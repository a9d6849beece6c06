#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of airfedga_cli.

    python3 perfbench/run.py --workload <cnn_cifar|population|xi_farm>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the CLI (and, for --trace 1, the probe) in Release under
perfbench/out/build, writes the workload's spec from the seed, and runs it
through `airfedga_cli run` in whole rounds until --seconds have passed.
Every (variant, mechanism) run is one operation and is checked. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off: each
round is one full invocation between two set-up-only invocations (virtual
budget cut to 1 ms). --trace 1 runs the workload once untraced as the
digest reference, then traced (in slices small enough that no trace ring
wraps) until --seconds have passed, once more untraced, then the per-layer
probe, and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import tracestats  # noqa: E402
from workloads import MECHANISM_NAMES, OVER_THE_AIR, SYNCHRONOUS, WORKLOADS  # noqa: E402

OUT = HERE / "out"
BUILD = OUT / "build"
CLI = BUILD / "airfedga" / "airfedga_cli"
PROBE = BUILD / "perfbench_probe"
SETUP_BUDGET = 0.001   # virtual seconds: ends every run before its first local update
MIN_ROUNDS = 3         # --trace 0 rounds at least, however short --seconds is
INVOKE_TIMEOUT = 150   # seconds one CLI or probe invocation may take
KIND_OF = {v: k for k, v in MECHANISM_NAMES.items()}
DROPPED_RE = re.compile(r"\((\d+) events dropped")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "virtual_s_per_s": "s/s", "cpu_s": "s",
                    "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "ml.sgemm_self_s": "s", "ml.conv_forward_self_s": "s", "ml.conv_backward_self_s": "s",
    "ml.train_step_ms": "ms", "ml.train_step_allocs": "count", "ml.sgemm_gflops": "GFLOP/s",
    "ml.eval_us_per_sample": "us", "ml.coop_regions": "count",
    "fl.local_update_self_s": "s", "fl.aggregate_self_s": "s", "fl.aggregate_ms_per_op": "ms",
    "fl.barrier_wait_s": "s", "fl.eval_s": "s", "fl.driver_ctor_s": "s",
    "fl.pool_warm_hits": "count", "fl.pool_cold_replays": "count", "fl.pool_warm_ratio": "ratio",
    "util.pool_busy_s": "s", "util.pool_tasks": "count", "util.pool_task_self_s": "s",
    "util.cohort_sample_ms": "ms",
    "core.grouping_ms": "ms", "core.power_control_us": "us",
    "channel.aircomp_aggregate_us": "us", "channel.aircomp_transmissions": "count",
    "sim.eventq_ns_per_op": "ns", "sim.eventq_pending_mean": "count",
    "data.build_s": "s", "scenario.farm_write_s": "s",
    "obs.trace_overhead": "ratio", "obs.dropped_events": "count", "obs.trace_complete": "count",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources beside {HERE.name}/; run from a full checkout")
    OUT.mkdir(parents=True, exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout path
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", *targets, "-j", "4"])
    log_path = OUT / "build.log"
    with open(log_path, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed: " + " ".join(cmd) + "\n" + "\n".join(tail))


# ------------------------------------------------------------- invocation --

class Invocation:
    """One finished process: host wall/CPU time, peak RSS, exit code, output."""

    def __init__(self, cmd, log_path):
        t0 = time.perf_counter()
        with open(log_path, "wb") as f:
            proc = subprocess.Popen(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(INVOKE_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - t0
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.rc = proc.returncode
        self.output = Path(log_path).read_text(errors="replace")


def run_cli(spec_path, out_dir, extra, log_path):
    cmd = [str(CLI), "run", str(spec_path), f"--out={out_dir}", "--no-progress", *extra]
    inv = Invocation(cmd, log_path)
    inv.out_dir = Path(out_dir)
    results = inv.out_dir / "results.jsonl"
    inv.records = ([json.loads(line) for line in results.read_text().splitlines() if line]
                   if inv.rc == 0 and results.exists() else [])
    return inv


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return path


# ----------------------------------------------------------------- checks --

def global_updates(rec):
    """Aggregations committed: the counts of the per-trigger latency histograms."""
    hists = rec.get("metrics", {}).get("histograms", {})
    return sum(h["count"] for name, h in hists.items() if name.startswith("latency."))


def read_points(out_dir, rec):
    with open(out_dir / rec["points_csv"]) as f:
        return list(csv.DictReader(f))


class Checker:
    """Counts operations and checks every (variant, mechanism) run."""

    def __init__(self, wl, spec):
        self.wl = wl
        self.spec = spec
        self.mechs = [MECHANISM_NAMES[m["kind"]] for m in spec["mechanisms"]]
        self.expected = wl.variants(spec) * len(self.mechs)
        self.digests = {}  # (scenario, mechanism) -> digest of the first run seen
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # descriptions of failures no known fault explains

    def fail_unexpected(self, what):
        self.unexpected.append(what)
        log("CHECK FAILED: " + what)

    def full_run(self, inv, spec=None):
        """Checks one full invocation of `spec` (default: the workload spec)."""
        spec = spec or self.spec
        expected = self.wl.variants(spec) * len(self.mechs)
        self.attempted += expected
        if inv.rc != 0:
            self.failed += expected
            self.fail_unexpected(f"airfedga_cli exited {inv.rc}: {inv.output[-400:]}")
            return
        per_scenario = defaultdict(Counter)
        for rec in inv.records:
            per_scenario[rec["scenario"]][rec["mechanism"]] += 1
        shape_ok = (len(per_scenario) == self.wl.variants(spec)
                    and all(c == Counter(self.mechs) for c in per_scenario.values())
                    and len(inv.records) == expected)
        if not shape_ok:
            self.failed += expected
            self.fail_unexpected(f"results.jsonl holds {dict(per_scenario)}, expected "
                                 f"{self.wl.variants(spec)} variants x {self.mechs}")
            return
        journalled = self.journalled_done(inv.out_dir)

        updates = {(r["scenario"], r["mechanism"]): global_updates(r) for r in inv.records}
        for rec in inv.records:
            failures = self.check_record(rec, inv.out_dir, spec, updates)
            if rec["scenario"] not in journalled:
                failures.append("journalled_done")
            if failures:
                self.failed += 1
                if set(failures) != {self.wl.known_fault}:
                    self.fail_unexpected(f"{rec['scenario']} {rec['mechanism']}: {failures}")

    def check_record(self, rec, out_dir, spec, updates):
        kind = KIND_OF[rec["mechanism"]]
        run = spec["run"]
        failures = []
        key = (rec["scenario"], rec["mechanism"])
        if self.digests.setdefault(key, rec["digest"]) != rec["digest"]:
            failures.append("digest_repeats")
        if not rec["virtual_seconds"] <= run["time_budget"]:
            failures.append("virtual_within_budget")
        if kind in SYNCHRONOUS and rec["max_staleness"] != 0:
            failures.append("synchronous_staleness_zero")
        energy = rec["total_energy_joules"]
        if (energy > 0) != (kind in OVER_THE_AIR):
            failures.append("aggregation_energy_by_channel")
        if kind == "airfedga":
            fedavg_key = (rec["scenario"], MECHANISM_NAMES["airfedavg"])
            if fedavg_key in updates and not updates[key] > updates[fedavg_key]:
                failures.append("grouping_commits_more_updates")
        points = read_points(out_dir, rec)
        if self.wl.capped_by == "rounds" and (
                not points or int(points[-1]["round"]) != run["max_rounds"]):
            failures.append("ran_all_rounds")
        if self.wl.known_fault == "loss_falls_1pct":
            first, last = float(points[0]["loss"]), float(points[-1]["loss"])
            if not first - last >= 0.01 * first:
                failures.append("loss_falls_1pct")
        return failures

    @staticmethod
    def journalled_done(out_dir):
        """Scenario names of the variants whose last manifest state is done."""
        last = {}
        for line in (out_dir / "manifest.jsonl").read_text().splitlines():
            if line:
                r = json.loads(line)
                last[r["variant"]] = r
        return {r["name"] for r in last.values() if r["state"] == "done"}

    def setup_run(self, inv):
        if inv.rc != 0 or len(inv.records) != self.expected:
            self.fail_unexpected(f"set-up-only invocation failed (exit {inv.rc}): "
                                 f"{inv.output[-400:]}")


# ---------------------------------------------------------------- measure --

def virtual_advanced(wl, spec, records):
    """Simulated seconds the runs advanced: a budget-capped run simulates up
    to its budget; a rounds-capped run up to its last round, which is its
    last evaluation point."""
    if wl.capped_by == "time":
        return spec["run"]["time_budget"] * len(records)
    return sum(r["virtual_seconds"] for r in records)


def end_to_end(wl, spec, spec_path, work, seconds, checker):
    rows = defaultdict(list)
    extra = list(wl.cli_args)

    def setup_only(tag):
        out = work / f"setup{tag}"
        inv = run_cli(spec_path, out, extra + [f"--time-budget={SETUP_BUDGET}"],
                      work / f"setup{tag}.log")
        checker.setup_run(inv)
        shutil.rmtree(out, ignore_errors=True)
        return inv.wall

    t0 = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        # Set-up is short and noisier than the full run, so it is timed
        # twice per round, on either side of the full invocation.
        setups = [setup_only(f"{r}a")]
        full = run_cli(spec_path, work / f"full{r}", extra, work / f"full{r}.log")
        checker.full_run(full)
        shutil.rmtree(work / f"full{r}", ignore_errors=True)
        setups.append(setup_only(f"{r}b"))
        rows["setup_s"].extend(setups)
        rows["run_s"].append(full.wall)
        rows["cpu_s"].append(full.cpu)
        rows["peak_rss_mib"].append(full.rss_mib)
        training = max(full.wall - statistics.mean(setups), 1e-6)
        rows["virtual_s_per_s"].append(virtual_advanced(wl, spec, full.records) / training)
        r += 1
    log(f"{wl.name}: {r} rounds in {time.perf_counter() - t0:.1f} s")
    return {k: statistics.median(v) for k, v in rows.items()}


def traced_round(wl, slices, work, tag, checker):
    """One traced pass over the workload's slices; returns its raw sums."""
    spans = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
    counters = Counter()
    hists = defaultdict(lambda: {"count": 0, "sum": 0.0})
    traced_wall = 0.0
    dropped = 0
    for i, path in enumerate(slices):
        out = work / f"{tag}_slice{i}"
        trace = out / "trace.json"
        inv = run_cli(path, out, list(wl.cli_args) + [f"--trace={trace}"],
                      work / f"{tag}_slice{i}.log")
        checker.full_run(inv, json.loads(path.read_text()))
        if inv.rc != 0:
            continue
        dropped += sum(int(m) for m in DROPPED_RE.findall(inv.output))
        for name, st in tracestats.span_stats(tracestats.load(trace)).items():
            for k in st:
                spans[name][k] += st[k]
        for rec in inv.records:
            traced_wall += rec["wall_seconds"]
            m = rec.get("metrics", {})
            counters.update(m.get("counters", {}))
            for name, h in m.get("histograms", {}).items():
                hists[name]["count"] += h["count"]
                hists[name]["sum"] += h["sum"]
        shutil.rmtree(out, ignore_errors=True)
    return spans, counters, hists, traced_wall, dropped


def per_layer(wl, spec, spec_path, work, seconds, checker):
    extra = list(wl.cli_args)

    def reference(tag):
        inv = run_cli(spec_path, work / tag, extra, work / f"{tag}.log")
        checker.full_run(inv)
        return inv

    ref = reference("reference")

    slices = [write_json(work / f"slice{i}.json", s) for i, s in enumerate(wl.trace_slices(spec))]
    rows = defaultdict(list)
    pending, traced_walls, dropped_events = [], [], []
    t0 = time.perf_counter()
    r = 0
    while r < 1 or time.perf_counter() - t0 < seconds:
        spans, counters, hists, traced_wall, dropped = traced_round(wl, slices, work, f"t{r}",
                                                                    checker)

        def self_s(name):
            return spans[name]["self_ns"] / 1e9

        def total_s(name):
            return spans[name]["total_ns"] / 1e9

        aggregations = spans["loop.aggregate"]["count"]
        warm, cold = counters["pool.warm_hits"], counters["pool.cold_replays"]
        pend = hists["eventq.pending"]
        pending.append(pend["sum"] / pend["count"] if pend["count"] else 0.0)
        traced_walls.append(traced_wall)
        dropped_events.append(dropped)
        row = {
            "ml.sgemm_self_s": self_s("gemm.sgemm"),
            "ml.conv_forward_self_s": self_s("conv.forward"),
            "ml.conv_backward_self_s": self_s("conv.backward"),
            "ml.coop_regions": counters["gemm.coop_regions"],
            "fl.local_update_self_s": self_s("worker.local_update"),
            "fl.aggregate_self_s": self_s("loop.aggregate"),
            "fl.aggregate_ms_per_op": (1e3 * self_s("loop.aggregate") / aggregations
                                       if aggregations else 0.0),
            "fl.barrier_wait_s": total_s("driver.barrier"),
            "fl.eval_s": total_s("driver.eval"),
            "fl.pool_warm_hits": warm,
            "fl.pool_cold_replays": cold,
            "fl.pool_warm_ratio": warm / (warm + cold) if warm + cold else 0.0,
            "util.pool_busy_s": counters["pool.busy_ns"] / 1e9,
            "util.pool_tasks": counters["pool.tasks"],
            "util.pool_task_self_s": self_s("pool.task"),
            "channel.aircomp_transmissions": hists["substrate.energy_j"]["count"],
            "sim.eventq_pending_mean": pending[-1],
        }
        for k, v in row.items():
            rows[k].append(v)
        r += 1
    log(f"{wl.name}: {r} traced rounds in {time.perf_counter() - t0:.1f} s")
    # Untraced runs before and after the traced rounds, so the overhead
    # ratio does not hinge on one cold or warm run.
    untraced = [sum(rec["wall_seconds"] for rec in inv.records)
                for inv in (ref, reference("reference_after"))]
    metrics = {k: statistics.median(v) for k, v in rows.items()}
    metrics["obs.trace_overhead"] = statistics.median(traced_walls) / statistics.mean(untraced)
    metrics["obs.dropped_events"] = max(dropped_events)
    metrics["obs.trace_complete"] = 0 if max(dropped_events) else 1
    if max(dropped_events):
        log(f"INCOMPLETE TRACE: {max(dropped_events)} events dropped; the trace-derived "
            "per-layer numbers miss that history")

    metrics.update(run_probe(wl, spec, work, ref, statistics.median(pending), checker))
    return metrics


def probe_spec(spec):
    """The first variant of `spec`'s sweep grid, as a plain spec."""
    s = json.loads(json.dumps(spec))
    for path, values in s.pop("sweeps", {}).items():
        node = s
        *parents, leaf = path.split(".")
        for p in parents:
            node = node[int(p)] if isinstance(node, list) else node[p]
        node[int(leaf) if isinstance(node, list) else leaf] = values[0]
    return s


def run_probe(wl, spec, work, ref, pending, checker):
    n, k = wl.sample_shape(spec)
    cmd = [str(PROBE), f"--spec={write_json(work / 'probe_spec.json', probe_spec(spec))}",
           f"--pending={max(1, round(pending))}",
           "--gemm=" + ";".join(",".join(map(str, s)) for s in wl.gemm_shapes),
           f"--sample={n},{k}", f"--farm-dir={ref.out_dir}", f"--merge-out={work / 'merged'}"]
    xis = wl.xis(spec)
    if xis:
        cmd.append("--xi=" + ",".join(map(str, xis)))
    inv = Invocation(cmd, work / "probe.log")
    if inv.rc not in (0, 1):  # 1: a check failed, reported in the JSON
        raise BenchError(f"probe exited {inv.rc}: {inv.output[-400:]}")
    result = json.loads(inv.output.strip().splitlines()[-1])
    for name, ok in result["checks"].items():
        if not ok:
            checker.fail_unexpected(f"probe check {name}")
    return result["metrics"]


# ------------------------------------------------------------------- main --

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        # The end-to-end pass builds only the CLI, so a library change that
        # breaks the probe cannot take the end-to-end numbers with it.
        build(["airfedga_cli", "perfbench_probe"] if args.trace else ["airfedga_cli"])
        work = OUT / "runs" / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            base = None
            if wl.preset:
                dump = subprocess.run([str(CLI), "dump", wl.preset], capture_output=True,
                                      text=True, check=True)
                base = json.loads(dump.stdout)
            spec = wl.make_spec(base, args.seed)
            spec_path = write_json(work / "spec.json", spec)
            checker = Checker(wl, spec)
            measure, units = ((per_layer, PER_LAYER_UNITS) if args.trace
                              else (end_to_end, END_TO_END_UNITS))
            values = measure(wl, spec, spec_path, work, args.seconds, checker)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 2

    missing = set(units) - set(values)
    if missing:
        log(f"error: metrics not measured: {sorted(missing)}")
        return 2
    for name in units:
        log(f"{wl.name} {name} = {values[name]:.6g} {units[name]}")
    log(f"{wl.name}: attempted {checker.attempted}, failed {checker.failed}"
        + (f", known fault: {wl.known_fault}" if checker.failed and not checker.unexpected
           else ""))
    print(json.dumps({
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
