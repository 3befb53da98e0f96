"""Tests for log-concave hulls and linear envelopes of step survivals.

The hull oracle is the brute-force greatest convex minorant: the value at x
is the minimum over all knot-pair chords spanning x.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tailbounds.bounds import (
    MartingaleConditions,
    comparison_atom,
    comparison_hull,
    hoeffding_tail_range,
    hoeffding_tail_variance,
)
from tailbounds.distributions import (
    MERGE_REL_TOL,
    DiscreteDist,
    StepSurvival,
    binomial_log_survival,
    iid_sum_dist,
    iid_sum_survival,
    poisson_log_survival,
    poisson_survival,
    two_point_from_range,
    two_point_from_variance,
)
from tailbounds.fracmoment import lhs_inf_sweep, step_integral_moment
from tailbounds.hull import (
    _CONVEXITY_SLACK,
    LogLinearHull,
    _lattice_log_point,
    binomial_hull_log_eval,
    eval_hull,
    is_log_concave_discrete,
    linear_envelope_eval,
    log_concave_hull,
    log_eval_hull,
    poisson_hull_eval,
    poisson_hull_log_eval,
)
from tailbounds.verify import exact_tail_many, iid_tree


def chord_minorant(xs, ys, x):
    """Brute-force greatest convex minorant of the points (xs, ys) at x."""
    best = math.inf
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            if xs[i] <= x <= xs[j]:
                if i == j:
                    best = min(best, ys[i])
                else:
                    lam = (x - xs[i]) / (xs[j] - xs[i])
                    best = min(best, (1 - lam) * ys[i] + lam * ys[j])
    return best


def random_survival(rng, max_points=8):
    k = int(rng.integers(2, max_points + 1))
    pts = np.sort(rng.uniform(-3.0, 3.0, k))
    pts = pts[np.concatenate(([True], np.diff(pts) > 1e-6))]
    probs = rng.dirichlet(np.ones(pts.size))
    return DiscreteDist.from_probs(pts, probs).survival()


class TestHullConstruction:
    def test_two_knots_always_their_own_hull(self):
        S = iid_sum_survival(two_point_from_variance(0.5, 1.0), 1)
        h = log_concave_hull(S)
        np.testing.assert_allclose(h.knots, S.knots, atol=1e-15)
        np.testing.assert_allclose(h.neg_log, -S.log_values, atol=1e-15)

    def test_fair_half_n2_all_knots_on_hull(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        h = log_concave_hull(S)
        assert h.knots.size == 3
        np.testing.assert_allclose(
            h.neg_log, [0.0, 0.2876820724517809, 1.3862943611198906], rtol=1e-12, atol=1e-14
        )
        slopes = np.diff(h.neg_log) / np.diff(h.knots)
        np.testing.assert_allclose(slopes, [0.2876820724517809, 1.0986122886681097], rtol=1e-12)
        assert slopes[1] > slopes[0]

    def test_scaled_copy_counterexample_drops_a_knot(self):
        # eps1 + 0.1*eps2 with P{eps=1} = 0.01: the knot at 0.1 falls inside
        # the hull because p^a > 2p - p^2 there
        p, a = 0.01, 0.1
        assert p**a > 2 * p - p * p
        S = DiscreteDist.from_probs(
            [0.0, a, 1.0, 1.0 + a],
            [(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p],
        ).survival()
        h = log_concave_hull(S)
        assert a not in h.knots
        assert h.knots.size == 3
        assert not is_log_concave_discrete(S)

    def test_matches_brute_force_chords(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            S = random_survival(rng)
            h = log_concave_hull(S)
            ys = (-S.log_values).tolist()
            xs = S.knots.tolist()
            for x in rng.uniform(S.knots[0], S.knots[-1], 40):
                expected = chord_minorant(xs, ys, float(x))
                assert -log_eval_hull(h, float(x)) == pytest.approx(expected, abs=1e-10)

    def test_hull_dominates_source(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            S = random_survival(rng)
            h = log_concave_hull(S)
            assert np.all(eval_hull(h, S.knots) >= S.values - 1e-15)

    def test_constructor_takes_every_hull_the_sweep_builds(self):
        # a knot 0.8e-12 above its neighbours' chord at unit spacing stays on the hull
        S = StepSurvival(np.array([0.0, 1.0, 2.0]), -np.array([0.0, 0.5 + 0.8e-12, 1.0]))
        assert log_concave_hull(S).knots.size == 3
        rng = np.random.default_rng(53)
        for _ in range(300):
            m = int(rng.integers(3, 30))
            knots = rng.choice([0.01, 0.25, 1.0]) * np.arange(m)
            neg_log = 0.5 * knots + rng.uniform(-2.0, 2.0, m) * _CONVEXITY_SLACK
            neg_log[0] = 0.0
            log_concave_hull(StepSurvival(knots, -neg_log))

    def test_validation(self):
        with pytest.raises(ValueError):
            LogLinearHull(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0]))  # concave turn
        with pytest.raises(ValueError):
            LogLinearHull(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # must start at 0


def sweep_every_knot(S):
    """The monotone-chain sweep as a plain loop over every knot, with its own pop test."""
    xs = S.knots
    ys = -S.log_values
    keep_x = [xs[0]]
    keep_y = [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        while len(keep_x) >= 2:
            ox, oy = keep_x[-2], keep_y[-2]
            ax, ay = keep_x[-1], keep_y[-1]
            cross = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
            if cross < -_CONVEXITY_SLACK * (x - ox):
                keep_x.pop()
                keep_y.pop()
            else:
                break
        keep_x.append(x)
        keep_y.append(y)
    return np.array(keep_x), np.array(keep_y)


def assert_same_hull_bits(S):
    knots, neg_log = sweep_every_knot(S)
    h = log_concave_hull(S)
    assert h.knots.tobytes() == knots.tobytes()
    assert h.neg_log.tobytes() == neg_log.tobytes()
    return h


class TestHullPrefixSweep:
    """The vectorized prefix plus the loop keeps exactly the knots the full sweep keeps."""

    def test_binomial_sums(self):
        rng = np.random.default_rng(41)
        ns = [1, 2, 3, 734] + [int(n) for n in rng.integers(1, 735, 40)]
        for n in ns:
            p = float(rng.uniform(0.001, 0.999))
            S = iid_sum_survival(two_point_from_range(-p, 1.0 - p), n)
            h = assert_same_hull_bits(S)
            assert h.knots.size == S.knots.size

    def test_random_survivals(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            assert_same_hull_bits(random_survival(rng, max_points=int(rng.integers(2, 40))))
        for _ in range(100):
            m = int(rng.integers(3, 200))
            knots = np.cumsum(rng.uniform(0.01, 2.0, m))
            steps = rng.exponential(1.0, m - 1) * rng.choice([1e-3, 1.0, 1e3], m - 1)
            assert_same_hull_bits(StepSurvival(knots, np.concatenate([[0.0], -np.cumsum(steps)])))

    def test_triples_collinear_within_the_slack(self):
        # middle knots nudged above and below the line by about the slack; a
        # knot spacing of 2 keeps every hull the sweep builds a valid one
        rng = np.random.default_rng(47)
        for _ in range(300):
            m = int(rng.integers(3, 30))
            knots = 2.0 * np.arange(m)
            nudge = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], m) * _CONVEXITY_SLACK
            neg_log = 0.5 * knots + nudge
            neg_log[0] = 0.0
            assert_same_hull_bits(StepSurvival(knots, -neg_log))

    def test_triple_exactly_at_the_slack_is_kept(self):
        # the middle knot sits exactly the slack above its chord: the pop test is strict
        mid = 71 * 2.0**-45
        last = 2.0 * mid - 2.0 * _CONVEXITY_SLACK
        assert (2.0 * last - 4.0 * mid) == -_CONVEXITY_SLACK * 4.0
        h = assert_same_hull_bits(StepSurvival(np.array([0.0, 2.0, 4.0]), -np.array([0.0, mid, last])))
        assert h.knots.size == 3

    def test_first_failure_at_the_last_triple(self):
        knots = np.arange(12, dtype=np.float64)
        neg_log = 0.1 * knots**2
        # the last slope, 1.7, falls below the 1.9 before it, so knot 10 drops;
        # the chord 9 -> 11 (slope 1.8) still clears 8 -> 9 (1.7), so knot 9 stays
        neg_log[-1] = 11.7
        h = assert_same_hull_bits(StepSurvival(knots, -neg_log))
        assert h.knots.tolist() == knots[:-2].tolist() + [knots[-1]]


class TestHullEvaluation:
    def test_geometric_midpoint(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        h = log_concave_hull(S)
        assert eval_hull(h, 0.5) == pytest.approx(math.sqrt(0.75 * 0.25), rel=1e-13)
        assert eval_hull(h, 0.5) == pytest.approx(0.4330127018922193, rel=1e-13)

    def test_exact_at_knots(self):
        S = iid_sum_survival(two_point_from_variance(0.4, 0.7), 9)
        h = log_concave_hull(S)
        values = S.values
        for i, x in enumerate(S.knots):
            assert eval_hull(h, float(x)) == values[i]

    def test_outside_support(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 3)
        h = log_concave_hull(S)
        assert eval_hull(h, -7.0) == 1.0
        assert eval_hull(h, 3.0 + 1e-9) == 0.0
        assert log_eval_hull(h, -7.0) == 0.0

    def test_vectorized(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 4)
        h = log_concave_hull(S)
        xs = np.array([-10.0, 0.0, 4.0, 10.0])
        out = eval_hull(h, xs)
        assert out.shape == xs.shape
        assert out[0] == 1.0 and out[3] == 0.0

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        h = comparison_hull(MartingaleConditions.range_condition(np.full(200, 0.3)))
        xs = np.random.default_rng(5).uniform(h.knots[0] - 1.0, h.knots[-1] + 1.0, 10_000)
        scalar = np.array([eval_hull(h, float(x)) for x in xs])
        assert eval_hull(h, xs).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan]), [1.0, 2.0, math.nan]])
    def test_rejects_nan_threshold(self, x):
        # every evaluator on the threshold contract names its argument;
        # np.interp would carry the NaN through
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 3)
        h = log_concave_hull(S)
        tree = iid_tree(two_point_from_range(-1.0, 1.0), 3)
        evaluators = [
            (S.eval, "x"), (S.log_eval, "x"),
            (lambda v: log_eval_hull(h, v), "x"), (lambda v: eval_hull(h, v), "x"),
            (lambda v: linear_envelope_eval(S, v), "x"),
            (lambda v: lhs_inf_sweep(S, 2.0, v), "x"), (lambda v: step_integral_moment(S, 2.0, v), "t"),
            (lambda v: exact_tail_many(tree, v), "x"),
            (lambda v: hoeffding_tail_range(10, 0.3, v), "x"),
            (lambda v: hoeffding_tail_variance(10, 0.5, 1.0, v), "x"),
            (lambda v: poisson_log_survival(2.0, v), "k"), (lambda v: poisson_survival(2.0, v), "k"),
            (lambda v: poisson_hull_log_eval(2.0, v), "y"), (lambda v: poisson_hull_eval(2.0, v), "y"),
            (lambda v: binomial_hull_log_eval(10, 0.3, v), "y"),
        ]
        for evaluate, name in evaluators:
            with pytest.raises(ValueError, match=f"threshold {name} must not be NaN"):
                evaluate(x)


class TestLinearEnvelope:
    def test_arithmetic_midpoint(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        assert linear_envelope_eval(S, 0.5) == pytest.approx(0.5, rel=1e-13)

    def test_exact_at_knots_and_outside(self):
        S = iid_sum_survival(two_point_from_variance(0.4, 0.7), 6)
        values = S.values
        for i, x in enumerate(S.knots):
            assert linear_envelope_eval(S, float(x)) == pytest.approx(values[i], rel=1e-15)
        assert linear_envelope_eval(S, S.knots[0] - 1.0) == 1.0
        assert linear_envelope_eval(S, S.knots[-1] + 1e-9) == 0.0

    def test_envelope_dominates_hull_on_log_concave_instances(self):
        # the geometric interpolation never exceeds the arithmetic one
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 12):
            S = iid_sum_survival(two_point_from_variance(0.3, 1.0), n)
            h = log_concave_hull(S)
            xs = rng.uniform(S.knots[0] - 0.5, S.knots[-1] + 0.5, 1000)
            assert np.all(eval_hull(h, xs) <= linear_envelope_eval(S, xs) + 1e-12)


def _where_log_hull(h, x):
    """log B0 with both edges set by np.where after a default np.interp: the edge oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > h.knots[-1], np.inf, np.interp(x, h.knots, h.neg_log))
    return -np.where(x < h.knots[0], 0.0, out)


def _where_envelope(S, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x > S.knots[-1], 0.0, np.interp(x, S.knots, S.values))
    return np.where(x < S.knots[0], 1.0, out)


def _edge_probes(knots):
    """-inf, below the first knot, every knot and one ulp either side, every midpoint, +inf."""
    return np.concatenate([
        [-np.inf, knots[0] - 1.0], knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        0.5 * (knots[:-1] + knots[1:]), [np.inf],
    ])


def _swept_and_hand_built():
    rng = np.random.default_rng(53)
    survivals = [
        iid_sum_survival(two_point_from_variance(0.4, 0.7), 9),
        DiscreteDist.point_mass(0.25).survival(),
        random_survival(rng),
    ]
    hulls = [log_concave_hull(S) for S in survivals]
    hulls.append(LogLinearHull(np.array([-1.0, 0.5, 3.0]), np.array([0.0, 0.75, 4.0])))
    hulls.append(LogLinearHull(np.array([2.0]), np.array([0.0])))
    return survivals, hulls


class TestEdgesByInterp:
    """np.interp's left and right give the edges the two np.where masks gave, sign of zero included."""

    @pytest.mark.parametrize("case", range(5))
    def test_hull_reads_equal_the_where_oracle(self, case):
        h = _swept_and_hand_built()[1][case]
        xs = _edge_probes(h.knots)
        array = log_eval_hull(h, xs)
        assert array.tobytes() == _where_log_hull(h, xs).tobytes()
        scalar = np.array([log_eval_hull(h, float(x)) for x in xs])
        assert scalar.tobytes() == array.tobytes()
        assert np.array([eval_hull(h, float(x)) for x in xs]).tobytes() == eval_hull(h, xs).tobytes()

    def test_left_of_the_first_knot_reads_negative_zero(self):
        # a swept hull starts at neg_log = -0.0: np.interp's default left would read +0.0
        h = log_concave_hull(iid_sum_survival(two_point_from_range(-1.0, 1.0), 3))
        assert math.copysign(1.0, h.neg_log[0]) == -1.0
        for x in (-math.inf, float(h.knots[0]) - 1.0, float(np.nextafter(h.knots[0], -np.inf))):
            assert math.copysign(1.0, log_eval_hull(h, x)) == -1.0
        assert log_eval_hull(h, math.inf) == -math.inf
        assert log_eval_hull(h, float(np.nextafter(h.knots[-1], np.inf))) == -math.inf

    @pytest.mark.parametrize("case", range(3))
    def test_envelope_reads_equal_the_where_oracle(self, case):
        S = _swept_and_hand_built()[0][case]
        xs = _edge_probes(S.knots)
        array = linear_envelope_eval(S, xs)
        assert array.tobytes() == _where_envelope(S, xs).tobytes()
        scalar = np.array([linear_envelope_eval(S, float(x)) for x in xs])
        assert scalar.tobytes() == array.tobytes()


class TestKeptOnTheArgument:
    def test_survival_and_hull_are_built_once(self):
        d = iid_sum_dist(two_point_from_variance(0.3, 1.1), 12)
        S = StepSurvival.from_dist(d)
        assert StepSurvival.from_dist(d) is S
        assert d.survival() is S
        assert iid_sum_survival(two_point_from_variance(0.3, 1.1), 12) is not S
        h = log_concave_hull(S)
        assert log_concave_hull(S) is h

    def test_kept_hull_equals_a_fresh_sweep(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            S = random_survival(rng, max_points=12)
            kept = log_concave_hull(S)
            log_concave_hull(S)
            fresh = log_concave_hull(StepSurvival(S.knots.copy(), S.log_values.copy()))
            assert kept.knots.tobytes() == fresh.knots.tobytes()
            assert kept.neg_log.tobytes() == fresh.neg_log.tobytes()


class TestHullProperties:
    def test_minimality_removing_a_vertex_breaks_domination(self):
        rng = np.random.default_rng(31)
        tested = 0
        for _ in range(40):
            S = random_survival(rng)
            h = log_concave_hull(S)
            if h.knots.size < 3:
                continue
            for drop in range(1, h.knots.size - 1):
                keep = np.ones(h.knots.size, dtype=bool)
                keep[drop] = False
                reduced = LogLinearHull(h.knots[keep], h.neg_log[keep])
                # strictly below the dropped vertex unless it was collinear
                if eval_hull(reduced, float(h.knots[drop])) < math.exp(-h.neg_log[drop]) - 1e-13:
                    tested += 1
                    x = float(h.knots[drop])
                    assert eval_hull(reduced, x) < S.eval(x)
        assert tested > 20

    def test_idempotence(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            S = random_survival(rng)
            h = log_concave_hull(S)
            h2 = log_concave_hull(StepSurvival(h.knots, -h.neg_log))
            np.testing.assert_allclose(h2.knots, h.knots, atol=1e-15)
            np.testing.assert_allclose(h2.neg_log, h.neg_log, atol=1e-12)

    def test_neg_log_convex_on_grids(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            S = random_survival(rng)
            h = log_concave_hull(S)
            grid = np.linspace(float(S.knots[0]), float(S.knots[-1]), 200)
            neg_log = -log_eval_hull(h, grid)
            assert np.all(np.diff(neg_log, 2) >= -1e-10)


class TestDiscreteLogConcavity:
    def test_binomial_is_log_concave(self):
        S = iid_sum_survival(two_point_from_variance(0.3 - 0.09, 0.7), 10)  # p = 0.3
        assert is_log_concave_discrete(S)

    def test_two_knots_always(self):
        S = iid_sum_survival(two_point_from_variance(2.0, 0.5), 1)
        assert is_log_concave_discrete(S)

    def test_equally_spaced_matches_ratio_criterion(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(3, 9))
            probs = rng.dirichlet(np.ones(k))
            S = DiscreteDist.from_probs(np.arange(k, dtype=float), probs)
            S = S.survival()
            v = S.values
            ratio_ok = np.all(v[1:-1] ** 2 >= v[:-2] * v[2:] * (1 - 1e-12))
            assert is_log_concave_discrete(S) == bool(ratio_ok)


class TestLatticeReader:
    """The one reader behind both lattice hulls, on a tail that records the integers it reads."""

    @pytest.mark.parametrize("top", [10, math.inf])
    def test_edge_rules(self, top):
        reads = []

        def tail(k):
            reads.append(k)
            return -float(k)

        def read(y):
            reads.clear()
            value = _lattice_log_point(tail, top, y)
            assert type(value) is float
            return value, list(reads)

        for y in (-math.inf, -1e300, -2.5, -0.0, 0.0):
            assert read(y) == (0.0, [])
        assert read(math.inf) == (-math.inf, [])
        assert read(3.0) == (-3.0, [3])
        assert read(3.25) == ((1.0 - 0.25) * -3.0 + 0.25 * -4.0, [3, 4])
        if top == math.inf:
            assert read(11.5) == (0.5 * -11.0 + 0.5 * -12.0, [11, 12])
            assert read(1e300) == (-1e300, [int(1e300)])
        else:
            tol = MERGE_REL_TOL * top
            assert read(9.5) == (0.5 * -9.0 + 0.5 * -10.0, [9, 10])
            # at the top, and within the merge tolerance above it: one read of the top
            assert read(10.0) == read(10.0 + 0.5 * tol) == (-10.0, [10])
            for y in (10.0 + 2.0 * tol, 11.0, 1e300):
                assert read(y) == (-math.inf, [])
        with pytest.raises(ValueError, match="^threshold y must not be NaN$"):
            read(math.nan)


class TestPoissonHull:
    def test_left_of_zero(self):
        assert poisson_hull_eval(1.0, 0.0) == 1.0
        assert poisson_hull_eval(1.0, -3.5) == 1.0

    def test_integer_points_no_interpolation(self):
        assert poisson_hull_eval(1.0, 2.0) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-13)
        assert poisson_hull_eval(1.0, 2.0) == poisson_survival(1.0, 2)

    def test_geometric_interpolation(self):
        p1 = float(stats.poisson.sf(0, 1.0))
        p2 = float(stats.poisson.sf(1, 1.0))
        expected = math.sqrt(p1 * p2)
        assert poisson_hull_eval(1.0, 1.5) == pytest.approx(expected, rel=1e-12)
        assert poisson_hull_eval(1.0, 1.5) == pytest.approx(0.40869578289835395, rel=1e-12)

    def test_never_zero_and_decreasing(self):
        ys = np.linspace(0.0, 60.0, 241)
        vals = [poisson_hull_eval(2.0, float(y)) for y in ys]
        assert all(v > 0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_log_eval_consistency(self):
        for y in (0.3, 1.0, 2.7, 10.2):
            assert poisson_hull_eval(3.0, y) == pytest.approx(
                math.exp(poisson_hull_log_eval(3.0, y)), rel=1e-15
            )

    def test_infinite_and_nan_thresholds(self):
        assert poisson_hull_log_eval(2.0, math.inf) == -math.inf
        assert poisson_hull_eval(2.0, math.inf) == 0.0
        assert poisson_hull_log_eval(2.0, -math.inf) == 0.0
        with pytest.raises(ValueError, match="y"):
            poisson_hull_log_eval(2.0, math.nan)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 5.0, 1e2, 1e4, 1e6])
    def test_arrays_equal_scalar_calls(self, lam):
        sd = math.sqrt(lam)
        ys = np.concatenate([
            lam + sd * np.linspace(-40.0, 40.0, 37),
            [0.0, -2.0, 0.5, 1.0, 2.0, lam, lam + 0.5, math.floor(lam) + 1.0, math.inf, -math.inf],
        ])
        scalars = [poisson_hull_log_eval(lam, float(y)) for y in ys]
        assert np.asarray(poisson_hull_log_eval(lam, ys)).tobytes() == np.array(scalars).tobytes()
        scalars = [poisson_hull_eval(lam, float(y)) for y in ys]
        assert poisson_hull_eval(lam, ys).tobytes() == np.array(scalars).tobytes()

    def test_array_edges(self):
        with pytest.raises(ValueError, match="threshold y must not be NaN"):
            poisson_hull_log_eval(2.0, np.array([1.0, math.nan]))
        assert poisson_hull_log_eval(2.0, np.array([])).shape == (0,)
        assert poisson_hull_log_eval(2.0, [-1.0, 0.0, math.inf]).tolist() == [0.0, 0.0, -math.inf]

    def test_edge_grid(self):
        # the reader's edges on the Poisson lattice, which has no top; one
        # tail at an integer, two elsewhere; scalar calls equal the array call
        lam = 3.7

        def tail(k):
            return poisson_log_survival(lam, k)

        cases = [
            (-math.inf, 0.0), (-1e300, 0.0), (-2.5, 0.0), (-0.0, 0.0), (0.0, 0.0),
            (0.5, 0.5 * tail(1)), (1.0, tail(1)), (3.5, 0.5 * tail(3) + 0.5 * tail(4)), (4.0, tail(4)),
            (4.25, 0.75 * tail(4) + 0.25 * tail(5)), (1e300, tail(1e300)), (math.inf, -math.inf),
        ]
        ys, expected = (np.array(c) for c in zip(*cases))
        scalars = [poisson_hull_log_eval(lam, float(y)) for y in ys]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == expected.tobytes()
        assert poisson_hull_log_eval(lam, ys).tobytes() == expected.tobytes()
        for one in (np.float64(4.25), np.array(4.25)):
            assert type(poisson_hull_log_eval(lam, one)) is float
        # every call reads the lattice, so a bad lambda is refused even where
        # no point needs a tail
        for y in (0.0, [-1.0, math.inf], []):
            with pytest.raises(ValueError, match="^lambda must be positive"):
                poisson_hull_log_eval(-1.0, y)

    def test_dominates_poisson_survival(self):
        for lam in (0.5, 2.0, 7.0):
            for k in range(0, 25):
                assert poisson_hull_eval(lam, float(k)) >= poisson_survival(lam, k) - 1e-15


class TestBinomialHull:
    def test_edges(self):
        assert binomial_hull_log_eval(10, 0.3, 0.0) == 0.0
        assert binomial_hull_log_eval(10, 0.3, -2.5) == 0.0
        assert binomial_hull_log_eval(10, 0.3, 4.0) == binomial_log_survival(10, 0.3, 4)
        assert binomial_hull_log_eval(10, 0.3, 11.0) == -math.inf
        assert binomial_hull_log_eval(10, 0.3, math.inf) == -math.inf
        assert binomial_hull_log_eval(10, 0.3, -math.inf) == 0.0
        with pytest.raises(ValueError, match="y"):
            binomial_hull_log_eval(10, 0.3, math.nan)

    def test_edge_grid(self):
        # the reader's edges on the binomial lattice 0..n; scalar calls equal
        # the array call, and a point comes back as a Python float whatever
        # its type
        n, p = 10, 0.3
        tol = MERGE_REL_TOL * n

        def tail(k):
            return binomial_log_survival(n, p, k)

        cases = [
            (-math.inf, 0.0), (-2.5, 0.0), (-0.0, 0.0), (0.0, 0.0), (0.5, 0.5 * tail(1)), (4.0, tail(4)),
            (4.25, 0.75 * tail(4) + 0.25 * tail(5)), (9.5, 0.5 * tail(9) + 0.5 * tail(10)),
            (10.0, tail(10)), (10.0 + 0.5 * tol, tail(10)), (10.0 + 2.0 * tol, -math.inf),
            (11.0, -math.inf), (1e300, -math.inf), (math.inf, -math.inf),
        ]
        ys, expected = (np.array(c) for c in zip(*cases))
        scalars = [binomial_hull_log_eval(n, p, float(y)) for y in ys]
        assert np.array(scalars).tobytes() == expected.tobytes()
        assert binomial_hull_log_eval(n, p, ys).tobytes() == expected.tobytes()
        for one in (4.25, np.float64(4.25), np.array(4.25), 4):
            assert type(binomial_hull_log_eval(n, p, one)) is float

    def test_rounded_top_knot_snaps_to_n(self):
        top = 10 * math.log(0.3)
        assert binomial_hull_log_eval(10, 0.3, 10.0) == top
        assert binomial_hull_log_eval(10, 0.3, 10.0 + 0.5 * MERGE_REL_TOL * 10) == top
        assert binomial_hull_log_eval(10, 0.3, 10.0 + 2.0 * MERGE_REL_TOL * 10) == -math.inf

    @pytest.mark.parametrize("n", [1, 10, 700])
    def test_arrays_equal_scalar_calls(self, n):
        # below 0, on knots, between them, inside and past the top-knot
        # tolerance, and above n
        tol = MERGE_REL_TOL * n
        ys = np.array([
            -math.inf, -2.5, 0.0, 0.25, 1.0, n / 3.0, n / 2.0 + 0.5, n - 1.0, n - 0.5, float(n),
            n + 0.5 * tol, n + 2.0 * tol, n + 1.0, 1e300, math.inf,
        ])
        for p in (1e-3, 0.3, 0.999):
            scalars = [binomial_hull_log_eval(n, p, float(y)) for y in ys]
            assert all(isinstance(v, float) for v in scalars)
            assert binomial_hull_log_eval(n, p, ys).tobytes() == np.array(scalars).tobytes()
            assert binomial_hull_log_eval(n, p, ys.tolist()).tobytes() == np.array(scalars).tobytes()

    def test_geometric_interpolation(self):
        lo = binomial_log_survival(20, 0.4, 9)
        hi = binomial_log_survival(20, 0.4, 10)
        assert binomial_hull_log_eval(20, 0.4, 9.25) == pytest.approx(0.75 * lo + 0.25 * hi, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400, 700])
    def test_matches_materialized_comparison_hull(self, n):
        # log B0 agrees to 1e-12 relative; near log B0 = 0 the materialized
        # survival carries absolute rounding, hence the same 1e-12 as a floor
        for p in (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-6):
            cond = MartingaleConditions.range_condition(np.full(n, p))
            atom = comparison_atom(cond)
            knots = iid_sum_dist(atom, n).support
            width = atom.v_hi - atom.v_lo
            xs = np.concatenate([
                knots,
                0.5 * (knots[:-1] + knots[1:]),
                [knots[0] - 0.5 * width, knots[-1] + 0.5 * width],
            ])
            lazy = [binomial_hull_log_eval(n, atom.p_hi, (x - n * atom.v_lo) / width) for x in xs]
            materialized = log_eval_hull(comparison_hull(cond), xs)
            np.testing.assert_allclose(lazy, materialized, rtol=1e-12, atol=1e-12)
