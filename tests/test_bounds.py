"""Tests for the closed-form bound families and the confidence inverter.

Oracles: exact binomial tails (scipy), 50-digit Poisson tails (mpmath), the
explicit n = 1 extremal formulas, dense h-grids for the
moment-generating-function infimum, and frozen values computed from the
formulas directly.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tailbounds.distributions import (
    DiscreteDist,
    gaussian_survival,
    iid_sum_dist,
    iid_sum_survival,
    two_point_from_range,
    two_point_from_variance,
)
from tailbounds.hull import log_concave_hull
from tailbounds.fracmoment import moment_constant
from tailbounds.bounds import (
    RANGE_CONST,
    RANGE_POISSON_CONST,
    SYMMETRIC_CONST,
    VARIANCE_CONST,
    MartingaleConditions,
    comparison_atom,
    comparison_hull,
    exact_n1_range,
    exact_n1_variance,
    fractional_moment_bound,
    gaussian_tail_upper,
    hoeffding_H,
    hoeffding_tail_range,
    hoeffding_tail_variance,
    invert_for_confidence,
    mgf_bound,
    paulauskas_g,
    poisson_tail_rough,
    tail_bound_range,
    tail_bound_range_poisson,
    tail_bound_symmetric,
    tail_bound_symmetric_gaussian,
    tail_bound_variance,
    tail_bound_variance_poisson,
)


class TestConstants:
    def test_values_and_ceilings(self):
        assert RANGE_CONST == pytest.approx(2.718281828459045, abs=1e-12)
        assert VARIANCE_CONST == pytest.approx(3.694528049465325, abs=1e-12)
        assert SYMMETRIC_CONST == pytest.approx(4.463452649597259, abs=1e-12)
        assert RANGE_POISSON_CONST == pytest.approx(10.042768461593832, abs=1e-12)
        assert RANGE_CONST <= 2.72
        assert VARIANCE_CONST <= 3.7
        assert SYMMETRIC_CONST <= 4.47
        assert RANGE_POISSON_CONST <= 10.1

    def test_moment_constant_identity(self):
        assert abs(moment_constant(1.0) - RANGE_CONST) < 1e-12
        assert abs(moment_constant(2.0) - VARIANCE_CONST) < 1e-12
        assert abs(moment_constant(3.0) - SYMMETRIC_CONST) < 1e-12

    def test_range_poisson_is_composition(self):
        assert RANGE_POISSON_CONST == pytest.approx(
            RANGE_CONST * VARIANCE_CONST, rel=1e-15
        )


class TestHoeffdingKernel:
    def test_plateau_and_cutoffs(self):
        assert hoeffding_H(0.5, 0.5) == 1.0
        assert hoeffding_H(0.2, 0.5) == 1.0
        assert hoeffding_H(1.1, 0.5) == 0.0
        assert hoeffding_H(1.0, 0.3) == pytest.approx(0.3, rel=1e-15)
        assert hoeffding_H(0.5, 0.0) == 0.0

    def test_log_space_value(self):
        expected = math.exp(0.4 * math.log(1.25) + 0.6 * math.log(5.0 / 6.0))
        assert hoeffding_H(0.6, 0.5) == pytest.approx(expected, rel=1e-14)
        assert hoeffding_H(0.6, 0.5) == pytest.approx(0.9800658521038946, rel=1e-13)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            hoeffding_H(0.5, 1.5)
        with pytest.raises(ValueError):
            hoeffding_H(0.5, -0.1)

    def test_nonincreasing_and_log_concave_in_a(self):
        p = 0.3
        grid = np.linspace(p, 1.0, 200)
        vals = np.array([hoeffding_H(float(a), p) for a in grid])
        assert np.all(np.diff(vals) <= 1e-15)
        logs = np.log(vals[vals > 0])
        assert np.all(np.diff(logs, 2) <= 1e-10)


class TestHoeffdingTails:
    def test_range_trivial_left(self):
        assert hoeffding_tail_range(10, 0.3, 0.0) == 1.0
        assert hoeffding_tail_range(10, 0.3, -2.0) == 1.0

    def test_range_endpoint_equals_exact_all_heads(self):
        # a = 1: the bound collapses to p^n, the exact all-heads probability
        assert hoeffding_tail_range(10, 0.5, 5.0) == pytest.approx(0.5**10, rel=1e-12)

    def test_range_dominates_exact_binomial(self):
        # the bound is for centered sums: P{Bin(n,p) >= np + x} <= H^n(p + x/n; p)
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 80))
            p = float(rng.uniform(0.05, 0.95))
            x = float(rng.uniform(0.0, n * (1 - p)))
            exact = float(stats.binom.sf(math.ceil(n * p + x - 1e-9) - 1, n, p))
            assert hoeffding_tail_range(n, p, x) >= exact - 1e-12

    def test_range_frozen_example(self):
        value = hoeffding_tail_range(10, 0.5, 2.0)
        assert value == pytest.approx(0.43918752853805426, rel=1e-12)
        assert value >= 176.0 / 1024.0  # exact P{Bin(10, .5) >= 7}

    def test_variance_trivial_and_boundary(self):
        assert hoeffding_tail_variance(5, 1.0, 1.0, 0.0) == 1.0
        assert hoeffding_tail_variance(1, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_rejects_nan_threshold(self):
        # a NaN threshold used to read as a zero bound, which is not conservative
        with pytest.raises(ValueError, match="NaN"):
            hoeffding_tail_range(10, 0.3, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            hoeffding_tail_variance(10, 0.5, 1.0, math.nan)
        assert hoeffding_tail_range(10, 0.3, math.inf) == 0.0
        assert hoeffding_tail_range(10, 0.3, -math.inf) == 1.0

    def test_variance_rescaling_invariance(self):
        for b in (0.25, 1.0, 3.0):
            lhs = hoeffding_tail_variance(7, 0.9, b, 1.3)
            rhs = hoeffding_tail_variance(7, 0.9 / b**2, 1.0, 1.3 / b)
            assert lhs == rhs


class TestDominanceBounds:
    def test_variance_bound_examples(self):
        cond = MartingaleConditions.one_sided_variance(1.0, [1.0])
        assert tail_bound_variance(cond, -1.5).value == pytest.approx(VARIANCE_CONST, rel=1e-15)
        assert tail_bound_variance(cond, 1.1).value == 0.0
        res = tail_bound_variance(cond, 1.0)
        assert res.value == pytest.approx(1.8472640247326624, rel=1e-13)
        assert res.clamped == 1.0

    def test_variance_mean_reduction(self):
        # per-step caps enter only through their mean
        cond_a = MartingaleConditions.one_sided_variance(1.0, [0.2, 0.8, 0.5])
        cond_b = MartingaleConditions.one_sided_variance(1.0, [0.5, 0.5, 0.5])
        for x in (-0.5, 0.3, 1.2, 2.9):
            assert tail_bound_variance(cond_a, x).value == pytest.approx(
                tail_bound_variance(cond_b, x).value, rel=1e-14
            )

    def test_variance_poisson_examples(self):
        cond = MartingaleConditions.one_sided_variance(1.0, [1.0])
        assert tail_bound_variance_poisson(cond, -1.5).value == pytest.approx(
            VARIANCE_CONST, rel=1e-15
        )
        assert tail_bound_variance_poisson(cond, 1.0).value == pytest.approx(
            VARIANCE_CONST * float(stats.poisson.sf(1, 1.0)), rel=1e-12
        )
        expected = VARIANCE_CONST * math.sqrt(
            float(stats.poisson.sf(0, 1.0)) * float(stats.poisson.sf(1, 1.0))
        )
        assert tail_bound_variance_poisson(cond, 0.5).value == pytest.approx(expected, rel=1e-12)

    def test_range_bound_examples(self):
        cond = MartingaleConditions.range_condition([0.5, 0.5])
        assert tail_bound_range(cond, -1.5).value == pytest.approx(RANGE_CONST, rel=1e-15)
        assert tail_bound_range(cond, 1.0).value == pytest.approx(0.6795704571147613, rel=1e-13)
        expected = RANGE_CONST * math.sqrt(0.75 * 0.25)
        assert tail_bound_range(cond, 0.5).value == pytest.approx(expected, rel=1e-13)
        assert tail_bound_range(cond, 0.5).value == pytest.approx(1.1770505590455733, rel=1e-13)

    def test_range_rejects_degenerate_mean(self):
        with pytest.raises(ValueError):
            tail_bound_range(MartingaleConditions.range_condition([0.0, 0.0]), 0.5)
        with pytest.raises(ValueError):
            tail_bound_range(MartingaleConditions.range_condition([1.0, 1.0]), 0.5)

    def test_range_poisson(self):
        cond = MartingaleConditions.range_condition(np.full(10, 0.5))
        assert tail_bound_range_poisson(cond, -6.0).value == pytest.approx(
            RANGE_POISSON_CONST, rel=1e-15
        )
        expected = RANGE_POISSON_CONST * float(stats.poisson.sf(19, 10.0))
        assert tail_bound_range_poisson(cond, 5.0).value == pytest.approx(expected, rel=1e-12)

    def test_poisson_coarsenings_against_mpmath(self, mp_poisson_log_survival):
        # the hull is the log-linear interpolation of the 50-digit log survival
        def reference_log_hull(lam, y):
            k0 = math.floor(y)
            lo, hi = mp_poisson_log_survival(lam, k0), mp_poisson_log_survival(lam, k0 + 1)
            return (1.0 - (y - k0)) * lo + (y - k0) * hi

        cases = [
            (MartingaleConditions.one_sided_variance(0.5, np.full(8, 0.3)), tail_bound_variance_poisson),
            (MartingaleConditions.one_sided_variance(2.0, np.full(5000, 3.0)), tail_bound_variance_poisson),
            (MartingaleConditions.range_condition(np.full(40, 0.3)), tail_bound_range_poisson),
            (MartingaleConditions.range_condition(np.full(2000, 0.9)), tail_bound_range_poisson),
        ]
        for cond, bound in cases:
            if cond.variant == "range":
                p = cond.mean_p
                lam, scale = p * cond.n / (1.0 - p), 1.0 - p
            else:
                lam, scale = float(np.sum(cond.sigma2s)) / cond.b**2, cond.b
            for z in (-6.0, -2.0, -0.3, 0.0, 0.7, 2.0, 6.0, 12.0):
                x = z * math.sqrt(lam) * scale
                res = bound(cond, x)
                expected = reference_log_hull(lam, lam + x / scale)
                got = math.log(res.hull_value)
                assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected)), (lam, z, got, expected)
                assert res.value == res.constant * res.hull_value

    def test_variance_poisson_just_below_the_mean_at_large_lambda(self, mp_poisson_log_survival):
        # the hull between k = 999 998 and 999 999, both just below the mean
        cond = MartingaleConditions.one_sided_variance(1.0, np.full(10**6, 1.0))
        res = tail_bound_variance_poisson(cond, -1.5)
        expected = 0.5 * (
            mp_poisson_log_survival(1e6, 999_998) + mp_poisson_log_survival(1e6, 999_999)
        )
        assert math.isfinite(res.value)
        assert abs(math.log(res.hull_value) - expected) <= 1e-13

    def test_symmetric_bound_examples(self):
        cond = MartingaleConditions.symmetric([1.0, 1.0])
        assert tail_bound_symmetric(cond, 2.0).value == pytest.approx(
            SYMMETRIC_CONST * 0.25, rel=1e-13
        )
        assert tail_bound_symmetric(cond, 1.0).value == pytest.approx(
            SYMMETRIC_CONST * math.sqrt(0.75 * 0.25), rel=1e-13
        )

    def test_symmetric_cap_resolution(self):
        # sigma_k <= b_k resolves every cap to b_k
        cond_per_k = MartingaleConditions.per_k([1.0, 1.0], [0.25, 0.49])
        assert cond_per_k.a2 == pytest.approx(1.0, rel=1e-15)
        cond_mixed = MartingaleConditions.per_k([0.5, 0.5], [1.0, 4.0])
        assert cond_mixed.a2 == pytest.approx((1.0 + 4.0) / 2.0, rel=1e-15)

    def test_symmetric_gaussian(self):
        cond = MartingaleConditions.symmetric([1.0])
        assert tail_bound_symmetric_gaussian(cond, 0.0).value == pytest.approx(
            SYMMETRIC_CONST * 0.5, rel=1e-15
        )
        assert tail_bound_symmetric_gaussian(cond, 0.0).clamped == 1.0
        assert tail_bound_symmetric_gaussian(cond, 3.0).value == pytest.approx(
            SYMMETRIC_CONST * gaussian_survival(3.0), rel=1e-14
        )
        assert tail_bound_symmetric_gaussian(cond, 3.0).value == pytest.approx(
            0.0060252059459654644, rel=1e-12
        )

    def test_symmetric_gaussian_total_scale(self):
        # the normal tail is taken at x over the whole-sum standard deviation,
        # and per-step rescaling leaves it invariant
        cond_n4 = MartingaleConditions.symmetric([0.5] * 4)
        assert tail_bound_symmetric_gaussian(cond_n4, 1.0).hull_value == pytest.approx(
            gaussian_survival(1.0), rel=1e-14
        )
        cond_a = MartingaleConditions.symmetric([2.0] * 3)
        cond_1 = MartingaleConditions.symmetric([1.0] * 3)
        assert tail_bound_symmetric_gaussian(cond_a, 1.4).value == pytest.approx(
            tail_bound_symmetric_gaussian(cond_1, 0.7).value, rel=1e-14
        )

    def test_gaussian_dominates_hull_bound_in_the_bulk(self):
        # the CLT coarsening must dominate the exact comparison tail
        cond = MartingaleConditions.symmetric([1.0] * 25)
        S = iid_sum_survival(comparison_atom(cond), 25)
        for x in (0.0, 2.0, 5.0, 10.0):
            assert tail_bound_symmetric_gaussian(cond, x).value >= S.eval(x) - 1e-12

    def test_range_bound_at_the_top_knot(self):
        # x = n (1 - p) is the comparison sum's top knot, whose tail is p^n
        for mu in (1e-12, 1e-6, 0.5, 2.0 / 3.0):
            cond = MartingaleConditions.range_condition(np.full(100, 1.0 - mu))
            res = tail_bound_range(cond, 100 * mu)
            assert res.value == pytest.approx(math.e * (1.0 - mu) ** 100, rel=1e-12)

    def test_lazy_default_matches_materialized_hull(self):
        conds = (
            (tail_bound_variance, MartingaleConditions.one_sided_variance(2.0, np.full(60, 0.3))),
            (tail_bound_range, MartingaleConditions.range_condition(np.linspace(0.1, 0.5, 60))),
            (tail_bound_symmetric, MartingaleConditions.per_k(np.full(60, 0.5), np.full(60, 0.7))),
        )
        for bound, cond in conds:
            hull = comparison_hull(cond)
            for x in np.linspace(-3.0, 40.0, 87):
                lazy = bound(cond, float(x))
                materialized = bound(cond, float(x), hull=hull)
                assert lazy.hull_value == pytest.approx(materialized.hull_value, rel=1e-12)

    def test_result_decomposition(self):
        cond = MartingaleConditions.range_condition([0.3, 0.4, 0.5])
        res = tail_bound_range(cond, 0.7)
        assert res.value == res.constant * res.hull_value

    def test_self_dominance(self):
        # for the comparison sum itself, every bound sits above the exact tail
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            p = float(rng.uniform(0.1, 0.9))
            cond = MartingaleConditions.range_condition(np.full(n, p))
            S = iid_sum_survival(comparison_atom(cond), n)
            hull = log_concave_hull(S)
            xs = np.concatenate([S.knots, 0.5 * (S.knots[:-1] + S.knots[1:])])
            for x in xs:
                assert tail_bound_range(cond, float(x), hull=hull).value >= S.eval(float(x)) - 1e-12


class TestMgfBound:
    def test_trivial_left(self):
        assert mgf_bound([(1.0, 1.0)], 0.0) == 1.0
        assert mgf_bound([(1.0, 1.0)], -3.0) == 1.0

    def test_boundary_atom_product(self):
        assert mgf_bound([(1.0, 1.0)], 1.0) == pytest.approx(0.5, rel=1e-14)
        assert mgf_bound([(1.0, 1.0)], 1.5) == 0.0

    def test_closed_form_iid(self):
        value = mgf_bound([(0.5, 1.0)] * 5, 2.0)
        closed = hoeffding_tail_variance(5, 0.5, 1.0, 2.0)
        assert value == pytest.approx(closed, rel=1e-9)
        assert value == pytest.approx(0.47629934461210205, rel=1e-8)

    def test_dense_grid_oracle(self):
        specs = [(0.3, 1.0), (0.8, 1.0), (0.2, 1.0)]
        x = 1.2
        hs = np.linspace(1e-6, 40.0, 400_000)
        logs = np.full(hs.shape, -hs * x)
        for s2, b in specs:
            p = s2 / (b * b + s2)
            logs += np.logaddexp(math.log1p(-p) - hs * s2 / b, math.log(p) + hs * b)
        oracle = float(np.exp(logs.min()))
        assert mgf_bound(specs, x) == pytest.approx(oracle, rel=1e-7)
        assert mgf_bound(specs, x) <= oracle + 1e-12

    def test_random_non_iid_specs_dense_oracle(self):
        rng = np.random.default_rng(97)
        hs = np.geomspace(1e-8, 1e4, 400_000)
        for _ in range(20):
            specs = [
                (float(rng.uniform(0.05, 3.0)), float(rng.choice([0.5, 1.0, 2.0])))
                for _ in range(int(rng.integers(2, 6)))
            ]
            top = sum(b for _, b in specs)
            x = float(rng.uniform(1e-3, top * (1.0 - 1e-6)))
            logs = -hs * x
            for s2, b in specs:
                p = s2 / (b * b + s2)
                logs = logs + np.logaddexp(math.log1p(-p) - hs * s2 / b, math.log(p) + hs * b)
            oracle = float(np.exp(logs.min()))
            assert mgf_bound(specs, x) <= oracle + 1e-12
            assert mgf_bound(specs, x) == pytest.approx(oracle, rel=1e-7)

    def test_per_step_atoms_below_iid_closed_form(self):
        specs = [(0.2, 1.0), (0.8, 1.0)]
        closed = hoeffding_tail_variance(2, 0.5, 1.0, 0.9)
        assert mgf_bound(specs, 0.9) <= closed + 1e-10

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            mgf_bound([], 1.0)
        with pytest.raises(ValueError):
            mgf_bound([(0.0, 1.0)], 1.0)


class TestFractionalMomentBound:
    def test_fair_coin(self):
        T = DiscreteDist.from_two_point(two_point_from_range(-1.0, 1.0))
        optimized, hull_form = fractional_moment_bound(T, 2.0, 1.0)
        assert optimized == pytest.approx(0.5, rel=1e-10)
        assert hull_form == pytest.approx(VARIANCE_CONST * 0.5, rel=1e-13)
        assert optimized <= hull_form

    def test_beyond_support(self):
        T = DiscreteDist.from_two_point(two_point_from_range(-1.0, 1.0))
        optimized, hull_form = fractional_moment_bound(T, 2.0, 1.5)
        assert optimized == pytest.approx(0.0, abs=1e-15)
        assert hull_form == 0.0

    def test_rejects_small_s(self):
        T = DiscreteDist.from_two_point(two_point_from_range(-1.0, 1.0))
        with pytest.raises(ValueError):
            fractional_moment_bound(T, 1.5, 0.5)

    def test_ordering_on_random_sums(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            T = iid_sum_dist(
                two_point_from_variance(float(rng.uniform(0.1, 1.0)), 1.0),
                int(rng.integers(1, 10)),
            )
            x = float(rng.uniform(0.0, float(T.support[-1])))
            for s in (2.0, 2.5, 3.0):
                optimized, hull_form = fractional_moment_bound(T, s, x)
                assert optimized <= hull_form + 1e-9


class TestExactN1:
    def test_range_formula(self):
        assert exact_n1_range(-1.0, 1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert exact_n1_range(-1.0, 1.0, -0.2) == 1.0
        assert exact_n1_range(-1.0, 1.0, 1.2) == 0.0

    def test_variance_formula(self):
        assert exact_n1_variance(1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert exact_n1_variance(1.0, 1.0, 1e-12) == pytest.approx(1.0, rel=1e-9)
        assert exact_n1_variance(1.0, 1.0, -1.0) == 1.0
        assert exact_n1_variance(1.0, 1.0, 1.5) == 0.0

    def test_attained_by_two_point_laws(self):
        # range case: the law on {a, x} has exactly the extremal tail at x
        a, b, x = -0.7, 1.0, 0.4
        atom = two_point_from_range(a, x)
        assert atom.p_hi == pytest.approx(exact_n1_range(a, b, x), rel=1e-13)
        # variance case: eps(sigma2, x) attains sigma2/(x^2 + sigma2)
        sigma2, x = 0.6, 0.8
        atom = two_point_from_variance(sigma2, x)
        assert atom.p_hi == pytest.approx(exact_n1_variance(sigma2, 1.0, x), rel=1e-13)

    def test_random_search_never_exceeds(self):
        from tailbounds.verify import random_centered_dist_bounded, random_centered_dist_in_range

        rng = np.random.default_rng(101)
        a, b = -1.0, 1.0
        sigma2 = 0.5
        for _ in range(2000):
            X = random_centered_dist_in_range(rng, a, b)
            for x in (0.25, 0.5, 0.75, 1.0):
                tail = float(X.probs[X.support >= x].sum())
                assert tail <= exact_n1_range(a, b, x) + 1e-12
            Y = random_centered_dist_bounded(rng, sigma2, b)
            for x in (0.25, 0.5, 0.75, 1.0):
                tail = float(Y.probs[Y.support >= x].sum())
                assert tail <= exact_n1_variance(sigma2, b, x) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_n1_range(0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            exact_n1_variance(-1.0, 1.0, 0.5)


class TestReferenceTails:
    def test_poisson_rough(self):
        assert poisson_tail_rough(2.0, 0.0) == 1.0
        assert poisson_tail_rough(1.0, 1.0) == pytest.approx(math.e / 4.0, rel=1e-14)
        assert poisson_tail_rough(1.0, 1.0) == pytest.approx(0.6795704571147613, rel=1e-13)

    def test_poisson_rough_dominates(self):
        from tailbounds.distributions import poisson_survival

        for lam in (0.5, 1.0, 4.0, 12.0):
            for x in np.linspace(0.0, 4.0 * lam + 10.0, 30):
                exact = poisson_survival(lam, math.ceil(lam + x - 1e-9))
                assert poisson_tail_rough(lam, float(x)) >= exact - 1e-12

    def test_paulauskas_values(self):
        assert paulauskas_g(1.0, 1.0) == pytest.approx(math.e / (8.0 * math.sqrt(2.0)), rel=1e-13)
        assert paulauskas_g(1.0, 1.0) == pytest.approx(0.2402644392599448, rel=1e-12)
        y = 2.5
        expected = y**-0.5 * 2.5** (0.5 - 1.0) * math.exp(1.5 - y * math.log(2.5))
        assert paulauskas_g(1.0, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_paulauskas_domain_and_shape(self):
        with pytest.raises(ValueError):
            paulauskas_g(1.0, 0.5)
        with pytest.raises(ValueError):
            paulauskas_g(4.0, 2.0)
        xs = np.linspace(1.0, 12.0, 60)
        vals = [paulauskas_g(1.0, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gaussian_upper(self):
        assert gaussian_tail_upper(1.0) == pytest.approx(0.24197072451914337, rel=1e-13)
        with pytest.raises(ValueError):
            gaussian_tail_upper(0.0)
        for x in np.linspace(0.1, 8.0, 50):
            assert gaussian_tail_upper(float(x)) >= gaussian_survival(float(x))
        ratio = gaussian_tail_upper(8.0) / gaussian_survival(8.0)
        assert ratio == pytest.approx(1.0, rel=0.02)


class TestConfidenceInversion:
    def test_basic_inversion(self):
        mu = invert_for_confidence(100, 0.5, 0.05)
        assert 0.5 < mu < 1.0
        cond = MartingaleConditions.range_condition(np.full(100, 1.0 - mu))
        achieved = tail_bound_range(cond, 100.0 * (mu - 0.5)).value
        assert achieved == pytest.approx(0.05, abs=1e-6)

    def test_loose_level_stays_near_mean(self):
        mu = invert_for_confidence(100, 0.5, 0.999)
        assert 0.5 < mu < 0.55

    def test_no_room_above(self):
        assert invert_for_confidence(10, 1.0, 0.05) == 1.0

    def test_monotone_in_delta_and_n(self):
        mus = [invert_for_confidence(50, 0.3, d) for d in (0.01, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(mus, mus[1:]))
        mus_n = [invert_for_confidence(n, 0.3, 0.05) for n in (10, 50, 200)]
        assert all(a > b for a, b in zip(mus_n, mus_n[1:]))

    def test_zero_mean_at_least_clopper_pearson(self):
        # with no successes the exact upper limit is 1 - delta^(1/n)
        for n in (1, 10, 100, 1000):
            for delta in (0.01, 0.05, 0.5):
                mu = invert_for_confidence(n, 0.0, delta)
                assert 1.0 - delta ** (1.0 / n) <= mu < 1.0

    def test_returns_one_when_mu_near_one_keeps_bound_above_delta(self):
        # n = 1, knot 0.5: the hull at mu = 1 - 1e-12 is e * 1e-6 > delta
        assert invert_for_confidence(1, 0.5, 1e-7) == 1.0

    def test_equals_clopper_pearson_at_delta_over_e(self):
        # each probe is e P{Bin(n, mu) <= k} at sample mean k / n
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(10 ** rng.uniform(0, 5))
            k = int(rng.integers(0, n))
            delta = float(10 ** rng.uniform(-8, math.log10(0.9)))
            ref = stats.beta.ppf(1.0 - delta / math.e, k + 1, n - k)
            assert abs(invert_for_confidence(n, k / n, delta) - ref) <= 1e-9, (n, k, delta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            invert_for_confidence(10, 1.2, 0.05)
        with pytest.raises(ValueError):
            invert_for_confidence(10, 0.5, 1.5)


class TestNonFiniteInput:
    def test_range_condition_nan_p(self):
        with pytest.raises(ValueError):
            MartingaleConditions.range_condition([0.3, math.nan])

    def test_per_k_nan_b(self):
        with pytest.raises(ValueError):
            MartingaleConditions.per_k([1.0, math.nan], [0.2, 0.2])

    def test_range_bound_nan_threshold(self):
        cond = MartingaleConditions.range_condition(np.full(5, 0.3))
        with pytest.raises(ValueError):
            tail_bound_range(cond, math.nan)

    def test_other_parameters_and_thresholds(self):
        with pytest.raises(ValueError):
            MartingaleConditions.one_sided_variance(math.inf, [0.2, 0.2])
        with pytest.raises(ValueError):
            MartingaleConditions.one_sided_variance(1.0, [0.2, math.inf])
        with pytest.raises(ValueError):
            MartingaleConditions.symmetric([0.5, math.nan])
        cond = MartingaleConditions.one_sided_variance(1.0, [0.2, 0.2])
        for bound in (tail_bound_variance, tail_bound_variance_poisson):
            with pytest.raises(ValueError):
                bound(cond, math.inf)
        with pytest.raises(ValueError):
            tail_bound_range_poisson(MartingaleConditions.range_condition([0.3, 0.3]), -math.inf)
        sym = MartingaleConditions.symmetric([0.5, 0.5])
        for bound in (tail_bound_symmetric, tail_bound_symmetric_gaussian):
            with pytest.raises(ValueError):
                bound(sym, math.nan)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _random_conditions(rng):
    """One conditions object per variant, with per-step parameters drawn at random."""
    n = int(rng.integers(1, 40))
    return (
        MartingaleConditions.one_sided_variance(rng.uniform(0.3, 2.0), rng.uniform(0.05, 1.5, n)),
        MartingaleConditions.range_condition(rng.uniform(0.05, 0.95, n)),
        MartingaleConditions.per_k(rng.uniform(0.3, 2.0, n), rng.uniform(0.05, 1.5, n)),
        MartingaleConditions.symmetric(rng.uniform(0.25, 2.0, n)),
    )


def _random_thresholds(rng, S):
    """Thresholds below, between, on and past the comparison sum's knots."""
    lo, hi = S.knots[0], S.knots[-1]
    span = hi - lo
    return np.concatenate([
        rng.uniform(lo - 0.5 * span, hi + 0.5 * span, 25),
        rng.choice(S.knots, min(S.knots.size, 8)),
        [lo - 1.0, 0.0, hi, hi + 1e-9, hi + 1.0],
    ])


class TestArrayThresholds:
    """An array of thresholds equals the list of scalar calls, bit for bit."""

    BOUNDS = {
        "one_sided_variance": (tail_bound_variance, tail_bound_variance_poisson),
        "range": (tail_bound_range, tail_bound_range_poisson),
        "per_k": (tail_bound_symmetric, tail_bound_symmetric_gaussian),
        "symmetric": (tail_bound_symmetric, tail_bound_symmetric_gaussian),
    }

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_equal_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        for cond in _random_conditions(rng):
            S = iid_sum_survival(comparison_atom(cond), cond.n)
            xs = _random_thresholds(rng, S)
            bound, coarse = self.BOUNDS[cond.variant]
            hull = log_concave_hull(S)
            calls = [
                (lambda x: bound(cond, x), "lazy"),
                (lambda x: bound(cond, x, hull=hull), "hull"),
                (lambda x: coarse(cond, x), "coarse"),
            ]
            for call, label in calls:
                arr = call(xs)
                scalars = [call(float(x)) for x in xs]
                assert isinstance(arr.value, np.ndarray), label
                assert all(isinstance(r.value, float) for r in scalars), label
                assert _bits(arr.value) == _bits([r.value for r in scalars]), (cond.variant, label)
                assert _bits(arr.hull_value) == _bits([r.hull_value for r in scalars]), label
                assert _bits(arr.clamped) == _bits([r.clamped for r in scalars]), label
                assert arr.constant == scalars[0].constant

    @pytest.mark.parametrize("seed", range(6))
    def test_hoeffding_tails_equal_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        p, sigma2, b = rng.uniform(0.02, 0.98), rng.uniform(0.05, 2.0), rng.uniform(0.3, 2.0)
        edges = [0.0, n * (1.0 - p), n * b, math.inf]
        xs = np.concatenate([rng.uniform(-5.0, 1.2 * n * b, 40), edges])
        for call in (lambda x: hoeffding_tail_range(n, p, x),
                     lambda x: hoeffding_tail_variance(n, sigma2, b, x)):
            arr = call(xs)
            assert _bits(arr) == _bits([call(float(x)) for x in xs])
            assert isinstance(call(float(xs[0])), float)

    def test_lists_and_empty_arrays(self):
        cond = MartingaleConditions.range_condition([0.3, 0.4, 0.2])
        res = tail_bound_range(cond, [0.1, 0.5])
        scalars = [tail_bound_range(cond, x).value for x in (0.1, 0.5)]
        assert _bits(res.value) == _bits(scalars)
        assert tail_bound_range_poisson(cond, np.array([])).value.shape == (0,)

    def test_every_element_must_be_finite(self):
        cond = MartingaleConditions.range_condition(np.full(5, 0.3))
        for bad in (math.nan, math.inf, -math.inf):
            for bound in (tail_bound_range, tail_bound_range_poisson):
                with pytest.raises(ValueError, match="finite"):
                    bound(cond, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError):
            hoeffding_tail_range(5, 0.3, np.array([0.5, math.nan]))
