"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
runtime-limited criteria assert their wall-clock budget.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import tailbounds as tb
from tailbounds.suites import monte_carlo_dominance_rows, run_suite

SEED = 20240808


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_criterion_01_worst_constant_reproduction():
    with criterion(1, "n=1 worst constant via the CLI"):
        # the child imports the same tailbounds as this process, installed or not
        src = os.path.dirname(os.path.dirname(tb.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tailbounds.cli", "verify", "--suite", "c1", "--seed", "7"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        estimate = None
        for token in proc.stdout.split():
            if token.startswith("estimate="):
                estimate = float(token.split("=", 1)[1])
        assert estimate is not None, proc.stdout
        assert abs(estimate - 1.555884) < 2e-3
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_constant_identities():
    with criterion(2, "explicit constants and their ceilings"):
        assert abs(tb.RANGE_CONST - 2.718281828459045) < 1e-12
        assert abs(tb.VARIANCE_CONST - 3.694528049465325) < 1e-12
        assert abs(tb.SYMMETRIC_CONST - 4.463452649597259) < 1e-12
        assert abs(tb.RANGE_POISSON_CONST - 10.042768461593832) < 1e-12
        assert tb.RANGE_CONST <= 2.72
        assert tb.VARIANCE_CONST <= 3.7
        assert tb.SYMMETRIC_CONST <= 4.47
        assert tb.RANGE_POISSON_CONST <= 10.1
        assert abs(tb.moment_constant(1.0) - tb.RANGE_CONST) < 1e-12
        assert abs(tb.moment_constant(2.0) - tb.VARIANCE_CONST) < 1e-12
        assert abs(tb.moment_constant(3.0) - tb.SYMMETRIC_CONST) < 1e-12


def test_criterion_03_moment_inequality_sweep():
    with criterion(3, "fractional-moment inequality over 200+ binomial instances"):
        start = time.perf_counter()
        (res,) = run_suite("lemma42", seed=SEED)
        elapsed = time.perf_counter() - start
        assert res.info["instances"] >= 200
        assert res.checks >= 200 * 4
        assert not res.failures, res.failures[:5]
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_mgf_infimum_equals_closed_form():
    with criterion(4, "numeric MGF infimum vs closed form"):
        violations = []
        for n in (1, 2, 5, 10, 20):
            for sigma2 in (0.05, 0.2, 1.0, 2.0, 5.0):
                for b in (1.0, 2.0):
                    lo = -n * sigma2 / b
                    hi = n * b
                    for x in np.linspace(lo, hi, 13):
                        numeric = tb.mgf_bound([(sigma2, b)] * n, float(x))
                        closed = tb.hoeffding_tail_variance(n, sigma2, b, float(x))
                        if closed > 0:
                            if abs(numeric - closed) > 1e-8 * closed:
                                violations.append((n, sigma2, b, float(x), numeric, closed))
                        else:
                            if numeric > 1e-300:
                                violations.append((n, sigma2, b, float(x), numeric, closed))
        assert not violations, violations[:5]


def test_criterion_05_exhaustive_small_tree_dominance():
    with criterion(5, "exact dominance over 1e4+ random trees per condition"):
        (res,) = run_suite("dominance", seed=SEED, n=2)
        assert res.info["trees"] >= 2 * 10_000
        tree_failures = [f for f in res.failures if f.get("case") in ("range", "variance")]
        assert not tree_failures, tree_failures[:5]
        assert not res.failures, res.failures[:5]


def test_criterion_06_exact_n1_extremality():
    with criterion(6, "n=1 extremal values attained and never exceeded"):
        # attainment by the constructed two-point laws
        for a, x in ((-1.0, 0.5), (-0.3, 0.7), (-2.0, 1.0)):
            atom = tb.two_point_from_range(a, x)
            assert abs(atom.p_hi - tb.exact_n1_range(a, max(x, 1.0), x)) < 1e-12
        for sigma2, x in ((1.0, 1.0), (0.5, 0.8), (2.0, 0.3)):
            atom = tb.two_point_from_variance(sigma2, x)
            assert abs(atom.p_hi - tb.exact_n1_variance(sigma2, max(x, 1.0), x)) < 1e-12
        # 1e5-sample random search stays below the formulas
        rng = np.random.default_rng(SEED)
        a, b, sigma2 = -1.0, 1.0, 0.5
        xs = (0.25, 0.5, 0.75, 1.0)
        for _ in range(50_000):
            X = tb.random_centered_dist_in_range(rng, a, b)
            for x in xs:
                tail = float(X.probs[X.support >= x].sum())
                assert tail <= tb.exact_n1_range(a, b, x) + 1e-12
        for _ in range(50_000):
            Y = tb.random_centered_dist_bounded(rng, sigma2, b)
            for x in xs:
                tail = float(Y.probs[Y.support >= x].sum())
                assert tail <= tb.exact_n1_variance(sigma2, b, x) + 1e-12


def test_criterion_07_hull_properties():
    with criterion(7, "hull sandwich, convexity, idempotence, log-concavity"):
        (res,) = run_suite("lemma41", seed=SEED)
        assert not res.failures, res.failures[:5]
        # the scaled-copy counterexample is individually re-checked
        p, a = 0.01, 0.1
        S = tb.DiscreteDist.from_probs(
            [0.0, a, 1.0, 1.0 + a],
            [(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p],
        ).survival()
        assert not tb.is_log_concave_discrete(S)


def test_criterion_08_poisson_limit():
    with criterion(8, "padded binomial tails converge to the Poisson tail"):
        (res,) = run_suite("poisson-limit", seed=SEED)
        assert res.checks == 9
        assert not res.failures, res.failures
        for key, gap in res.info.items():
            if key.startswith("gap_"):
                assert gap < 5e-3


def test_criterion_09_product_bound_optimality():
    with criterion(9, "product-bound optimality along growing n"):
        n_list = [1, 10, 100, 1_000, 10_000, 100_000]
        for p, z in ((0.3, 0.5), (0.1, 0.4)):
            gs, neg_f = tb.hoeffding_optimality_sequence(p, z, n_list)
            f = -neg_f
            assert np.all(gs <= neg_f + 1e-12)
            assert abs(gs[-1] - neg_f) < 1e-2
            assert abs(math.exp(-f) - tb.hoeffding_H(z, p)) < 1e-12 * tb.hoeffding_H(z, p)


def test_criterion_10_domination_property_runs():
    with criterion(10, "1e4 randomized instances per domination family"):
        for name in ("lemma43", "lemma44", "lemma45", "lemma46"):
            (res,) = run_suite(name, seed=SEED)
            assert res.checks >= 10_000, name
            assert not res.failures, (name, res.failures[:5])


def test_criterion_11_hull_necessity():
    with criterion(11, "raw survival cannot replace the hull"):
        assert tb.hull_necessity_ratio(1e-6) > 1e6


def test_criterion_12_monte_carlo_dominance():
    with criterion(12, "1e6-trial Monte Carlo stays below every bound"):
        start = time.perf_counter()
        rows = monte_carlo_dominance_rows(seed=SEED, trials=1_000_000)
        elapsed = time.perf_counter() - start
        assert len(rows) == 18  # 3 thresholds x 6 bounds
        bad = [r for r in rows if not r["ok"]]
        assert not bad, bad
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
