"""Tests of the benchmark's own logic: self-time computation and spec generation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import unittest

import tracestats
from run import probe_spec, virtual_advanced
from workloads import WORKLOADS


def span(tid, name, ts_us, dur_us):
    return {"ph": "X", "pid": 1, "tid": tid, "ts": ts_us, "dur": dur_us, "cat": "c", "name": name}


class SelfTimeTest(unittest.TestCase):
    def test_known_nesting(self):
        # Thread 1:  task [0, 100) > update [10, 90) > {gemm [20, 40), gemm [50, 60)}
        #            then task [100, 130) with no children.
        # Thread 2:  an update [0, 50) that nothing on thread 1 may be
        #            subtracted from, and an instant that is not a span.
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "lane-0"}},
            span(1, "gemm", 50.0, 10.0),
            span(1, "task", 0.0, 100.0),
            span(1, "update", 10.0, 80.0),
            span(1, "gemm", 20.0, 20.0),
            span(1, "task", 100.0, 30.0),
            span(2, "update", 0.0, 50.0),
            {"ph": "i", "pid": 1, "tid": 2, "ts": 5.0, "s": "t", "cat": "sim", "name": "pop"},
        ]
        st = tracestats.span_stats(events)
        self.assertEqual(st["gemm"], {"count": 2, "total_ns": 30000, "self_ns": 30000})
        self.assertEqual(st["update"], {"count": 2, "total_ns": 130000, "self_ns": 100000})
        self.assertEqual(st["task"], {"count": 2, "total_ns": 130000, "self_ns": 50000})

    def test_equal_start_and_back_to_back_children(self):
        # The parent and its first child start together; the second child
        # starts the instant the first ends and ends with the parent.
        events = [span(7, "child", 1.5, 0.5), span(7, "parent", 1.5, 1.0),
                  span(7, "child", 2.0, 0.5)]
        st = tracestats.span_stats(events)
        self.assertEqual(st["parent"]["self_ns"], 0)
        self.assertEqual(st["child"]["self_ns"], 1000)

    def test_child_overhang_is_clipped(self):
        # A child that overhangs its parent's end by one nanosecond is
        # clipped to the parent's interval.
        events = [span(1, "parent", 0.0, 1.000), span(1, "child", 0.5, 0.501)]
        st = tracestats.span_stats(events)
        self.assertEqual(st["parent"]["self_ns"], 500)
        self.assertEqual(st["child"]["self_ns"], 501)


BASES = {
    "fig05_cnn_cifar": {
        "name": "fig05_cnn_cifar",
        "dataset": {"kind": "cifar10_like", "train_samples": 6000, "test_samples": 1000,
                    "seed": 3},
        "partition": {"kind": "label_skew", "workers": 100, "shards": 0},
        "train": {"learning_rate": 0.3, "local_steps": 2, "batch_size": 16},
        "run": {"time_budget": 2500, "seed": 42, "threads": 0, "stop_at_accuracy": -1},
        "mechanisms": [{"kind": "dynamic"}, {"kind": "airfedavg"},
                       {"kind": "airfedga", "xi": 0.3}],
    },
    "fig08_xi_sweep": {
        "name": "fig08_xi_sweep",
        "dataset": {"kind": "mnist_like", "train_samples": 3000, "test_samples": 800, "seed": 5},
        "partition": {"kind": "label_skew", "workers": 60, "shards": 0},
        "train": {"learning_rate": 1.0, "local_steps": 1, "batch_size": 0},
        "run": {"time_budget": 12000, "seed": 42, "threads": 0, "stop_at_accuracy": 0.905},
        "mechanisms": [{"kind": "airfedga", "xi": 0.3}],
    },
}


class SpecTest(unittest.TestCase):
    def make(self, name, seed):
        wl = WORKLOADS[name]
        base = BASES.get(wl.preset)
        before = copy.deepcopy(base)
        spec = wl.make_spec(base, seed)
        self.assertEqual(base, before, "make_spec must not modify the preset")
        return wl, spec

    def test_same_seed_same_spec(self):
        for name in WORKLOADS:
            self.assertEqual(self.make(name, 5)[1], self.make(name, 5)[1], name)

    def test_seed_reaches_the_inputs(self):
        _, a = self.make("cnn_cifar", 1)
        _, b = self.make("cnn_cifar", 2)
        self.assertEqual((a["dataset"]["seed"], a["run"]["seed"]), (1, 42))
        self.assertEqual((b["dataset"]["seed"], b["run"]["seed"]), (2, 42))
        self.assertEqual(a["run"]["threads"], 2)
        self.assertEqual(a["run"]["time_budget"], 400.0)

        _, x = self.make("xi_farm", 3)
        self.assertEqual(x["sweeps"]["run.seed"], [1, 2])
        self.assertEqual(x["sweeps"]["mechanisms.0.xi"], [0.1, 0.3, 0.6, 1.0])
        self.assertEqual(x["dataset"]["seed"], 3)
        self.assertEqual(x["run"]["stop_at_accuracy"], -1)
        self.assertEqual(x["run"]["threads"], 1)

    def test_population_is_seed_independent(self):
        _, a = self.make("population", 1)
        _, b = self.make("population", 99)
        self.assertEqual(a, b)
        self.assertEqual(a["partition"]["workers"], 1000000)
        self.assertEqual(a["run"]["max_rounds"] % a["run"]["eval_every"], 0)

    def test_variant_counts_and_trace_slices(self):
        wl, spec = self.make("xi_farm", 1)
        self.assertEqual(wl.variants(spec), 8)
        slices = wl.trace_slices(spec)
        self.assertEqual(sum(wl.variants(s) for s in slices), 8)
        self.assertEqual(sorted(s["sweeps"]["mechanisms.0.xi"][0] for s in slices),
                         [0.1, 0.3, 0.6, 1.0])
        self.assertEqual(spec["sweeps"]["mechanisms.0.xi"], [0.1, 0.3, 0.6, 1.0])
        wl, spec = self.make("cnn_cifar", 1)
        self.assertEqual((wl.variants(spec), wl.trace_slices(spec)), (1, [spec]))

    def test_probe_spec_takes_the_first_grid_point(self):
        _, spec = self.make("xi_farm", 4)
        flat = probe_spec(spec)
        self.assertNotIn("sweeps", flat)
        self.assertEqual(flat["mechanisms"][0]["xi"], 0.1)
        self.assertEqual(flat["run"]["seed"], 1)
        self.assertEqual(flat["dataset"]["seed"], 4)

    def test_virtual_advanced(self):
        wl, spec = self.make("cnn_cifar", 1)
        recs = [{"virtual_seconds": 60.0}, {"virtual_seconds": 390.0}]
        self.assertEqual(virtual_advanced(wl, spec, recs), 800.0)
        wl, spec = self.make("population", 1)
        self.assertEqual(virtual_advanced(wl, spec, recs), 450.0)


if __name__ == "__main__":
    unittest.main()
