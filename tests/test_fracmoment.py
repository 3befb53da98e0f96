"""Tests for the fractional-moment integral, its infimum, and the hull side.

Oracles: segment-wise adaptive quadrature of the step integrand, dense
t-grids, and the continuous log-linear case where the minimizing t has a
closed form and the two sides agree exactly.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from tailbounds.distributions import (
    DiscreteDist,
    StepSurvival,
    iid_sum_survival,
    two_point_from_range,
    two_point_from_variance,
)
from tailbounds.hull import log_concave_hull, eval_hull
from tailbounds.fracmoment import (
    MARGIN_TOL,
    lhs_inf,
    lhs_inf_sweep,
    margin_sweep,
    moment_constant,
    rhs_bound,
    step_integral_moment,
)
from tailbounds.bounds import (
    RANGE_CONST,
    SYMMETRIC_CONST,
    VARIANCE_CONST,
    MartingaleConditions,
    comparison_hull,
)


def quad_step_integral(S, s, t):
    """Adaptive quadrature of s (z-t)^(s-1) B(z) over each constant segment."""
    total = 0.0
    edges = [t] + [float(x) for x in S.knots if x > t]
    values = S.values
    for lo, hi in zip(edges, edges[1:]):
        # B on (lo, hi] is the survival just above lo
        level = float(S.eval(0.5 * (lo + hi)))
        val, _ = integrate.quad(
            lambda z: s * (z - t) ** (s - 1.0) * level, lo, hi, epsabs=1e-14, epsrel=1e-12
        )
        total += val
    return total


def random_survival(rng, max_points=7):
    k = int(rng.integers(2, max_points + 1))
    pts = np.sort(rng.uniform(-2.0, 2.0, k))
    pts = pts[np.concatenate(([True], np.diff(pts) > 1e-6))]
    probs = rng.dirichlet(np.ones(pts.size))
    return DiscreteDist.from_probs(pts, probs).survival()


class TestStepIntegral:
    def test_zero_beyond_support(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 2)
        assert step_integral_moment(S, 1.5, 2.0) == 0.0
        assert step_integral_moment(S, 1.5, 5.0) == 0.0

    def test_fair_coin_s1(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 1)
        assert step_integral_moment(S, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_fair_coin_s2(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 1)
        value = step_integral_moment(S, 2.0, -1.0)
        assert value == pytest.approx(quad_step_integral(S, 2.0, -1.0), rel=1e-12)
        assert value == pytest.approx(2.0, rel=1e-13)
        # cross-check against the direct expectation E(X - t)_+^2
        assert value == pytest.approx(0.5 * 0.0 + 0.5 * 4.0, rel=1e-13)

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            S = random_survival(rng)
            s = float(rng.uniform(0.3, 3.5))
            t = float(rng.uniform(S.knots[0] - 2.0, S.knots[-1]))
            assert step_integral_moment(S, s, t) == pytest.approx(
                quad_step_integral(S, s, t), rel=1e-10, abs=1e-13
            )

    def test_equals_plus_moment(self):
        # integration by parts: the integral is E(X - t)_+^s exactly
        rng = np.random.default_rng(29)
        for _ in range(30):
            d_atoms = DiscreteDist.from_probs(
                np.sort(rng.uniform(-2, 2, 5)), rng.dirichlet(np.ones(5))
            )
            S = d_atoms.survival()
            s = float(rng.uniform(0.5, 3.0))
            t = float(rng.uniform(-3.0, 2.0))
            direct = float(d_atoms.probs @ np.clip(d_atoms.support - t, 0.0, None) ** s)
            assert step_integral_moment(S, s, t) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_fractional_order_below_one(self):
        # the closed form needs no quadrature even with the integrable singularity
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 2)
        value = step_integral_moment(S, 0.5, -0.5)
        direct = float(
            np.sum(S.atom_masses * np.clip(S.knots + 0.5, 0.0, None) ** 0.5)
        )
        assert value == pytest.approx(direct, rel=1e-13)

    def test_arrays_equal_scalar_calls(self):
        S = iid_sum_survival(two_point_from_variance(0.4, 0.7), 40)
        ts = np.concatenate([np.linspace(S.knots[0] - 1.0, S.knots[-1] + 1.0, 53), S.knots[::7]])
        for s in (0.5, 1.0, 1.7, 2.0, 3.0):
            scalars = [step_integral_moment(S, s, float(t)) for t in ts]
            assert all(type(v) is float for v in scalars)
            assert step_integral_moment(S, s, ts).tobytes() == np.array(scalars).tobytes()
        assert type(step_integral_moment(S, 2.0, np.float64(0.5))) is float

    def test_rejects_nonpositive_order(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 1)
        with pytest.raises(ValueError):
            step_integral_moment(S, 0.0, 0.0)

    def test_rejects_nan_threshold(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 3)
        with pytest.raises(ValueError, match="NaN"):
            step_integral_moment(S, 2.0, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            rhs_bound(log_concave_hull(S), 2.0, np.array([0.5, math.nan]))


class TestInfimum:
    def test_flat_region_fair_coin(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 1)
        assert lhs_inf(S, 1.0, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_one_threshold_gives_a_float(self):
        # lhs_inf_sweep at one threshold used to raise IndexError
        S = iid_sum_survival(two_point_from_range(-0.3, 0.7), 4)
        for s in (0.5, 1.0, 2.0, 2.5):
            for x in (-1.0, 0.0, 0.35, 1.2, 2.8, 5.0):
                one = lhs_inf_sweep(S, s, x)
                assert type(one) is float
                assert np.array(one).tobytes() == lhs_inf_sweep(S, s, [x]).tobytes()
                assert lhs_inf(S, s, x) == one

    def test_rejects_nan_threshold(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 3)
        with pytest.raises(ValueError, match="NaN"):
            lhs_inf(S, 2.0, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            lhs_inf_sweep(S, 2.0, [0.5, math.nan])

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            S = random_survival(rng)
            s = float(rng.choice([1.0, 2.0, 2.5, 3.0]))
            x = float(rng.uniform(S.knots[1], S.knots[-1]))
            # in u = 1/(x - t) the minimizer lies in (0, u_last], u_last the
            # last breakpoint; u -> 0 is the t -> -inf limit 1
            u_last = 1.0 / (x - float(S.knots[S.knots < x].max()))
            us = u_last * np.concatenate([np.geomspace(1e-9, 1.0, 60_000), np.linspace(0, 1, 60_000)[1:]])
            vals = np.clip(1.0 + us[:, None] * (S.knots - x)[None, :], 0, None) ** s @ S.atom_masses
            oracle = min(1.0, float(vals.min()))
            assert lhs_inf(S, s, x) <= oracle + 1e-12
            assert lhs_inf(S, s, x) == pytest.approx(oracle, rel=1e-6)

    def test_nonincreasing_in_x(self):
        S = iid_sum_survival(two_point_from_variance(0.21, 0.7), 10)
        for s in (1.0, 2.0, 3.0):
            xs = np.linspace(float(S.knots[1]), float(S.knots[-1]), 25)
            vals = [lhs_inf(S, s, float(x)) for x in xs]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sweep_matches_standalone(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            S = random_survival(rng)
            s = float(rng.choice([1.0, 2.0, 2.5, 3.0]))
            mids = 0.5 * (S.knots[:-1] + S.knots[1:])
            xs = np.sort(np.concatenate([S.knots[1:], mids]))
            swept = lhs_inf_sweep(S, s, xs)
            for x, v in zip(xs, swept):
                assert v == pytest.approx(lhs_inf(S, s, float(x)), rel=1e-9, abs=1e-12)

    def test_beyond_support_vanishes(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 2)
        assert lhs_inf(S, 2.0, 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_at_or_below_mean_is_exactly_one(self):
        # for s >= 1 the objective is convex in u = 1/(x - t) with slope
        # s (E X - x) >= 0 at u = 0, so the infimum is the t -> -inf limit
        rng = np.random.default_rng(71)
        for _ in range(20):
            S = random_survival(rng)
            mean = float(S.atom_masses @ S.knots)
            xs = np.linspace(float(S.knots[0]) - 1.0, mean, 9)
            for s in (1.0, 2.0, 3.0):
                assert lhs_inf_sweep(S, s, xs).tolist() == [1.0] * xs.size

    def test_far_minimizer_matches_s2_closed_form(self):
        # just above the mean every atom is active at the minimizer, where
        # u* = -sum p a / sum p a^2 over the offsets a = X - x, and the
        # minimizer t* = x - 1/u* lies far beyond x - 4 * span
        S = iid_sum_survival(two_point_from_variance(0.21, 0.7), 6)
        x = 0.02
        a = S.knots - x
        p = S.atom_masses
        u_star = -float(p @ a) / float(p @ a**2)
        span = float(S.knots[-1] - S.knots[0])
        assert 1.0 / u_star > 4.0 * span
        expected = 1.0 - float(p @ a) ** 2 / float(p @ a**2)
        assert lhs_inf(S, 2.0, x) == pytest.approx(expected, rel=1e-12)

    def test_order_below_one_is_min_over_knots(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            S = random_survival(rng)
            x = float(rng.uniform(S.knots[0] - 0.5, S.knots[-1] + 0.5))
            below = S.knots[S.knots < x]
            at_knots = [step_integral_moment(S, 0.5, float(t)) / (x - t) ** 0.5 for t in below]
            expected = min([1.0] + at_knots)
            assert lhs_inf(S, 0.5, x) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            ts = x - np.geomspace(1e-6, 1e3, 20_000)
            grid = (np.clip(S.knots[None, :] - ts[:, None], 0, None) ** 0.5 @ S.atom_masses) / (x - ts) ** 0.5
            assert lhs_inf(S, 0.5, x) <= min(1.0, float(grid.min())) + 1e-12


class TestHullSide:
    def test_constant_identities(self):
        assert moment_constant(1.0) == pytest.approx(RANGE_CONST, rel=1e-14)
        assert moment_constant(2.0) == pytest.approx(VARIANCE_CONST, rel=1e-14)
        assert moment_constant(3.0) == pytest.approx(SYMMETRIC_CONST, rel=1e-14)

    def test_fractional_constant(self):
        s = 2.5
        expected = math.exp(s) * s ** (-s) * math.exp(math.lgamma(s + 1.0))
        assert moment_constant(s) == pytest.approx(expected, rel=1e-13)
        assert moment_constant(s) == pytest.approx(4.096966298613827, rel=1e-12)

    def test_rhs_scales_hull(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        h = log_concave_hull(S)
        x = 0.5
        assert rhs_bound(h, 2.5, x) == pytest.approx(
            4.096966298613827 * eval_hull(h, x), rel=1e-13
        )

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        h = comparison_hull(MartingaleConditions.range_condition(np.full(200, 0.3)))
        xs = np.random.default_rng(5).uniform(h.knots[0] - 1.0, h.knots[-1] + 1.0, 10_000)
        scalar = np.array([rhs_bound(h, 2.5, float(x)) for x in xs])
        assert rhs_bound(h, 2.5, xs).tobytes() == scalar.tobytes()

    def test_margin_sweep_reads_knots_and_midpoints(self):
        S = iid_sum_survival(two_point_from_variance(0.21, 0.7), 12)
        xs, lhs, rhs = margin_sweep(S, (1.0, 2.5))
        knots = S.knots
        mids = 0.5 * (knots[:-1] + knots[1:])
        assert np.array_equal(xs, np.sort(np.concatenate([knots[1:], mids])))
        h = log_concave_hull(S)
        for row, s in enumerate((1.0, 2.5)):
            assert np.array_equal(lhs[row], lhs_inf_sweep(S, s, xs))
            assert np.array_equal(rhs[row], rhs_bound(h, s, xs))
        assert np.all(lhs - rhs <= MARGIN_TOL)

    def test_inequality_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            S = random_survival(rng)
            h = log_concave_hull(S)
            for s in (1.0, 2.0, 2.5, 3.0):
                mids = 0.5 * (S.knots[:-1] + S.knots[1:])
                for x in np.concatenate([S.knots[1:], mids]):
                    assert lhs_inf(S, s, float(x)) <= rhs_bound(h, s, float(x)) + 1e-9


class TestProofWitness:
    def test_continuous_log_linear_identity(self):
        # with B(z) = exp(-b z) the integral is Gamma(s+1) b^-s exp(-b t), and
        # at the witness t = x - s/b the objective equals the hull side exactly
        for s in (1.0, 2.0, 2.5, 3.0):
            for b in (0.5, 1.0, 2.3):
                x = 1.7
                t_star = x - s / b
                objective = (
                    math.exp(math.lgamma(s + 1.0))
                    * b**-s
                    * math.exp(-b * t_star)
                    / (x - t_star) ** s
                )
                hull_side = moment_constant(s) * math.exp(-b * x)
                assert objective == pytest.approx(hull_side, rel=1e-12)

    def test_discrete_log_linear_witness_converges(self):
        # fine step discretizations of the exponential survival: with the
        # witness t = x - s/b inside the support, the witness objective
        # approaches the hull side as the knot spacing shrinks
        b, s, x = 1.0, 2.0, 3.0
        gaps = []
        for spacing in (1e-2, 1e-3):
            knots = np.arange(0.0, 20.0, spacing)
            S = StepSurvival(knots, -b * knots)
            t_star = x - s / b
            witness = step_integral_moment(S, s, t_star) / (x - t_star) ** s
            hull_side = rhs_bound(log_concave_hull(S), s, x)
            assert witness <= hull_side + 1e-12
            gaps.append(hull_side - witness)
        assert gaps[1] < 0.2 * gaps[0]
        assert gaps[1] < 1e-3 * hull_side
