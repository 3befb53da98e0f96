"""Self-test of the benchmark's own code.

Run from the repository root:

    python3 bench/selftest.py

It checks the percentile rule, the exact binomial oracle, op counting, span
accounting, that each workload runs one round and passes its checks, that the
n = 3000 ops are counted as failed on the normalization fault, and that the
metric names match BENCHMARK.json.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, check_op_accounting, percentile, self_times  # noqa: E402
from run import FAULT_TEXT  # noqa: E402
from workloads import (  # noqa: E402
    FAULT_N,
    WORKLOADS,
    BoundTable,
    Confidence,
    ConfidenceInput,
    bound_input,
)


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            percentile(list(range(99)), 0.9)
        self.assertAlmostEqual(percentile(list(range(100)), 0.9), np.percentile(range(100), 90))

    def test_median_matches_numpy(self):
        vals = [5.0, 1.0, 4.0, 2.0]
        self.assertEqual(percentile(vals, 0.5), np.median(vals))
        with self.assertRaises(ValueError):
            percentile([], 0.5)


class OracleTest(unittest.TestCase):
    def test_binomial_tails_against_scipy(self):
        try:
            from scipy.stats import binom
        except ImportError:
            self.skipTest("scipy not installed")
        for n, p in ((1, 0.3), (50, 0.123), (400, 0.9), (333, 1e-3)):
            ks = [0, 1, n // 3, n // 2, n, n + 1]
            tails = oracle.binomial_upper_tails(n, p, ks)
            for k in ks:
                self.assertAlmostEqual(tails[k], binom.sf(k - 1, n, p), delta=1e-12 * binom.sf(k - 1, n, p) + 1e-300)
            k = n // 4
            self.assertAlmostEqual(float(oracle.binomial_cdf_at_most(n, p, k)), binom.cdf(k, n, p), delta=1e-12)

    def test_two_point_paths(self):
        paths = oracle.two_point_paths([(-1.0, 1.0, 0.5), (-2.0, 2.0, 0.25)])
        self.assertAlmostEqual(sum(p for _, p in paths), 1.0)
        self.assertAlmostEqual(oracle.two_point_sum_tail([(-1.0, 1.0, 0.5), (-2.0, 2.0, 0.25)], 2.5), 0.125)


class _FakeWorkload:
    name = "fake"

    def round(self, rng, r):
        return ["ok", "fault", "other", "wrong", "ok"]

    def op(self, inp, span):
        with span("inner"):
            if inp == "fault":
                raise ValueError(f"{FAULT_TEXT} exp(1e-12) != 1")
            if inp == "other":
                raise RuntimeError("boom")
        return inp

    def check(self, inp, out):
        assert out != "wrong", "wrong output"

    def replay(self, inp, out, span):
        with span("replay"):
            pass


class CountingTest(unittest.TestCase):
    def test_attempted_and_failed(self):
        for tracer in (None, Tracer()):
            stats = run.PhaseStats()
            run.run_round(_FakeWorkload(), _FakeWorkload().round(None, 0), tracer, stats)
            self.assertEqual((stats.attempted, stats.failed, stats.faults, stats.ok), (5, 2, 1, 3))
            self.assertEqual(len(stats.errors), 2)  # the RuntimeError and the failed check

    def test_phase_runs_whole_rounds(self):
        stats, next_round = run.run_phase(_FakeWorkload(), None, 1, 0.0001, None)
        self.assertEqual(stats.attempted % 5, 0)
        self.assertEqual(next_round - 1, stats.attempted // 5)


class TracingTest(unittest.TestCase):
    def test_self_times_add_up(self):
        tr = Tracer()
        for op in (1, 2):
            tr.op = op
            with tr.span("op"):
                with tr.span("a"):
                    with tr.span("b"):
                        sum(range(1000))
                with tr.span("c"):
                    pass
            with tr.span("replay"):
                pass
        selfs = self_times(tr.spans)
        self.assertEqual(check_op_accounting(tr.spans, selfs), 2)
        self.assertTrue(all(s >= 0 for s in selfs))

    def test_bad_nesting_is_refused(self):
        tr = Tracer()
        with tr.span("op"):
            pass
        tr.op = 7
        with tr.span("other-op"):
            pass
        tr.spans[1].parent = 0
        with self.assertRaises(ValueError):
            check_op_accounting(tr.spans, self_times(tr.spans))


class WorkloadTest(unittest.TestCase):
    def test_each_workload_round_passes_its_checks(self):
        tracer = Tracer()
        phases = {}
        for name, cls in WORKLOADS.items():
            wl = cls()
            rng = np.random.default_rng(11)
            plain = run.PhaseStats()
            run.run_round(wl, wl.round(rng, 0), None, plain)
            tracer.workload = name
            traced = run.PhaseStats()
            run.run_round(wl, wl.round(rng, 1), tracer, traced)
            for stats in (plain, traced):
                self.assertEqual(stats.errors, [], name)
                self.assertEqual(stats.failed, stats.faults, name)
                self.assertEqual(stats.faults, 1 if name in ("bound-table", "confidence") else 0, name)
            phases[name] = (plain, traced)
        metrics, summary = run.layer_metrics(tracer, phases, {s: 1.0 for s in run.SUITES})
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in spec["per_layer"]))
        for m in spec["per_layer"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
        self.assertEqual(summary["binomial_knots_on_hull_share"], 1.0)

    def test_fault_at_large_n_counts_as_failed(self):
        cases = (
            (BoundTable(), [bound_input("1.2", FAULT_N, {"p": 0.5}),
                            bound_input("1.1", 10_000, {"sigma2": 0.25, "b": 1.0})]),
            (Confidence(), [ConfidenceInput(FAULT_N, FAULT_N // 2, 0.05),
                            ConfidenceInput(10_000, 5_000, 0.05)]),
        )
        for wl, inputs in cases:
            stats = run.PhaseStats()
            run.run_round(wl, inputs, None, stats)
            self.assertEqual((stats.attempted, stats.failed, stats.faults), (2, 2, 2), wl.name)
            self.assertEqual(stats.errors, [])

    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            a = cls().round(np.random.default_rng(5), 0)
            b = cls().round(np.random.default_rng(5), 0)
            self.assertEqual(repr(a), repr(b))


class SpecTest(unittest.TestCase):
    def test_end_to_end_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]),
                         sorted(["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
