"""The benchmark's workloads: the scenario spec each one runs, made from a seed.

Every workload runs through `airfedga_cli run <spec>`. `make_spec(base, seed)`
is a pure function of the preset's JSON (`airfedga_cli dump <preset>`, or
None for a workload that embeds its spec) and the seed, so the same seed
always gives the same spec.

The seed makes the training data (`dataset.seed`). The federation, that is
the partition, the workers' compute speeds and the channel draws, comes
from `run.seed`, which each workload fixes: it sets how many local updates
and aggregations fit in the budget, and letting it vary moved the work of
one cnn_cifar run by up to 30% between seeds, far more than any bound a
regression could be told apart within.
"""

import copy

# Display names the CLI writes into results.jsonl, and the mechanism kinds
# that aggregate synchronously or over the air.
MECHANISM_NAMES = {
    "fedavg": "FedAvg",
    "airfedavg": "Air-FedAvg",
    "dynamic": "Dynamic",
    "airfedga": "Air-FedGA",
}
SYNCHRONOUS = {"fedavg", "airfedavg", "dynamic"}
OVER_THE_AIR = {"airfedavg", "dynamic", "airfedga"}


class Workload:
    name = ""
    why = ""
    preset = None       # preset dumped as the base spec, or None
    cli_args = ()       # extra `airfedga_cli run` options
    capped_by = "time"  # "time": runs end at the budget; "rounds": at max_rounds
    gemm_shapes = ()    # (m, n, k) of the model's layer GEMMs, for the probe
    known_fault = None  # name of the one check that fails by a known fault

    def make_spec(self, base, seed):
        raise NotImplementedError

    def variants(self, spec):
        """Number of variants the spec's sweep grid expands to."""
        n = 1
        for values in spec.get("sweeps", {}).values():
            n *= len(values)
        return n

    def trace_slices(self, spec):
        """Specs whose traced runs together cover `spec`, each small enough
        that no thread's trace ring (2^16 events) wraps."""
        return [spec]

    def xis(self, spec):
        """The xi values Alg. 3 groups at."""
        return [m["xi"] for m in spec["mechanisms"] if m["kind"] == "airfedga"]

    def sample_shape(self, spec):
        """(n, k) of the workload's Rng::sample_without_replacement calls."""
        raise NotImplementedError


class CnnCifar(Workload):
    name = "cnn_cifar"
    why = ("fig05 CNN on CIFAR-like data, Dynamic/Air-FedAvg/Air-FedGA, 100 workers, "
           "2 lanes: kernels, lane pool, barriers and evaluation")
    preset = "fig05_cnn_cifar"
    # CNN width 0.2 on 16x16 inputs, batch 16: conv1 and conv2 lowered by
    # im2col, conv2's weight gradient, and the dense head.
    gemm_shapes = ((6, 4096, 75), (13, 1024, 150), (13, 150, 1024), (16, 102, 208))
    budget = 400.0
    run_seed = 42

    def make_spec(self, base, seed):
        s = copy.deepcopy(base)
        s["name"] = "bench_cnn_cifar"
        s["dataset"]["seed"] = seed
        s["run"].update(seed=self.run_seed, time_budget=self.budget, threads=2)
        return s

    def sample_shape(self, spec):
        shard = spec["dataset"]["train_samples"] // spec["partition"]["workers"]
        return shard, spec["train"]["batch_size"]


class Population(Workload):
    name = "population"
    why = ("10^6 workers, FedAvg and Air-FedAvg on 32-worker cohorts, lazy state, calendar "
           "queue, 1 lane: engine, cohort draw, setup and memory, not kernels")
    capped_by = "rounds"
    gemm_shapes = ((16, 10, 784),)  # softmax regression, batch 16
    known_fault = "loss_falls_1pct"
    rounds = 100

    def make_spec(self, base, seed):
        # One variant of scenarios/population_scaling_study.json at 10^6
        # workers. Its two runs fail the loss check by the cohort-weighting
        # fault, so the spec does not depend on the seed: the failing
        # operations are the same in every run.
        del base, seed
        return {
            "name": "bench_population",
            "dataset": {"kind": "mnist_like", "train_samples": 6000, "test_samples": 1000,
                        "seed": 7},
            "model": {"kind": "softmax", "input_dim": 784, "num_classes": 10},
            "partition": {"kind": "label_skew", "workers": 1000000, "shards": 200},
            "train": {"learning_rate": 0.05, "local_steps": 2, "batch_size": 16},
            "run": {"time_budget": 1.0e7, "max_rounds": self.rounds, "eval_every": 10,
                    "eval_samples": 256, "seed": 42, "threads": 1, "worker_state": "lazy",
                    "event_queue": "calendar", "cohort_size": 32},
            "mechanisms": [{"kind": "fedavg"}, {"kind": "airfedavg"}],
        }

    def sample_shape(self, spec):
        return spec["partition"]["workers"], spec["run"]["cohort_size"]


class XiFarm(Workload):
    name = "xi_farm"
    why = ("crash-safe farm of the fig08 Air-FedGA preset over a 4 xi x 2 seed grid, "
           "--jobs=2 x 1 lane: per-variant setup, grouping, AirComp, farm writes")
    preset = "fig08_xi_sweep"
    cli_args = ("--jobs=2",)
    # MLP-64 on 784 inputs with the whole local shard (3000 / 60 = 50 rows)
    # as the batch.
    gemm_shapes = ((50, 64, 784), (50, 10, 64))
    budget = 1000.0
    xi_grid = (0.1, 0.3, 0.6, 1.0)
    run_seeds = (1, 2)

    def make_spec(self, base, seed):
        s = copy.deepcopy(base)
        s["name"] = "bench_xi_farm"
        s["dataset"]["seed"] = seed
        # Budget-capped: the preset's accuracy stop would end variants at
        # seed-dependent times.
        s["run"].update(time_budget=self.budget, threads=1, stop_at_accuracy=-1)
        s["sweeps"] = {"mechanisms.0.xi": list(self.xi_grid), "run.seed": list(self.run_seeds)}
        return s

    def trace_slices(self, spec):
        # One xi per traced invocation (both seeds, one per job): a whole
        # grid fills the farm threads' rings past half their capacity.
        slices = []
        for xi in spec["sweeps"]["mechanisms.0.xi"]:
            s = copy.deepcopy(spec)
            s["sweeps"]["mechanisms.0.xi"] = [xi]
            slices.append(s)
        return slices

    def xis(self, spec):
        return list(spec["sweeps"]["mechanisms.0.xi"])

    def sample_shape(self, spec):
        shard = spec["dataset"]["train_samples"] // spec["partition"]["workers"]
        return shard, shard


WORKLOADS = {w.name: w for w in (CnnCifar(), Population(), XiFarm())}
