"""Tests for two-point atoms, exact sums, and reference survival functions.

Oracles: brute-force enumeration over all 2^n outcomes, scipy.stats tails,
and direct log-space series summation.
"""

import math

import numpy as np
import pytest
from scipy import stats

from tailbounds.distributions import (
    MERGE_REL_TOL,
    DiscreteDist,
    StepSurvival,
    _beta_cf,
    _merge_close,
    _stirlerr,
    binomial_log_survival,
    convolve,
    gaussian_survival,
    iid_sum_survival,
    poisson_log_survival,
    poisson_survival,
    two_point_from_range,
    two_point_from_variance,
)


def enumerate_iid_survival(d, n):
    """Brute-force survival of an n-fold iid two-point sum over 2^n outcomes."""
    sums = {}
    for mask in range(2**n):
        total, prob = 0.0, 1.0
        for k in range(n):
            if mask >> k & 1:
                total += d.v_hi
                prob *= d.p_hi
            else:
                total += d.v_lo
                prob *= 1.0 - d.p_hi
        sums[round(total, 9)] = sums.get(round(total, 9), 0.0) + prob
    xs = sorted(sums)
    tails = np.cumsum([sums[x] for x in xs][::-1])[::-1]
    return np.array(xs), tails


class TestTwoPoint:
    def test_from_variance_symmetric(self):
        d = two_point_from_variance(1.0, 1.0)
        assert (d.v_lo, d.v_hi, d.p_hi) == (-1.0, 1.0, 0.5)

    def test_from_variance_quarter(self):
        d = two_point_from_variance(0.25, 1.0)
        assert d.v_lo == -0.25 and d.v_hi == 1.0
        assert d.p_hi == pytest.approx(0.2, abs=1e-15)

    def test_from_variance_matches_range_atom(self):
        # the p(1-p)-variance atom with upper bound 1-p sits on {-p, 1-p}
        p = 0.3
        d = two_point_from_variance(p - p * p, 1.0 - p)
        assert d.v_lo == pytest.approx(-p, abs=1e-15)
        assert d.p_hi == pytest.approx(p, abs=1e-15)

    def test_from_range(self):
        assert two_point_from_range(-1.0, 1.0).p_hi == 0.5
        d = two_point_from_range(-0.3, 0.7)
        assert d.p_hi == pytest.approx(0.3, abs=1e-15)
        d = two_point_from_range(-2.0, 1.0)
        assert d.p_hi == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert d.variance == pytest.approx(2.0, rel=1e-14)

    def test_domain_errors(self):
        for bad in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
            with pytest.raises(ValueError):
                two_point_from_variance(*bad)
        for bad in ((0.0, 1.0), (0.5, 1.0), (-1.0, 0.0), (-1.0, -0.5)):
            with pytest.raises(ValueError):
                two_point_from_range(*bad)

    def test_moment_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            b = float(rng.uniform(0.05, 20.0))
            sigma2 = b * b * float(rng.uniform(1e-3, 1e3))
            d = two_point_from_variance(sigma2, b)
            assert abs(d.mean) < 1e-14 * max(1.0, abs(d.v_lo), d.v_hi)
            assert d.variance == pytest.approx(sigma2, rel=1e-12)
            a = -float(rng.uniform(1e-2, 5.0))
            bb = float(rng.uniform(1e-2, 5.0))
            d = two_point_from_range(a, bb)
            assert abs(d.mean) < 1e-14 * max(1.0, abs(a), bb)
            assert d.variance == pytest.approx(-a * bb, rel=1e-12)

    def test_moment_invariants_extreme_corners(self):
        # the worst-constant search sweeps sigma2 over [1e-4, 1e4] at b = 1
        for sigma2 in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            d = two_point_from_variance(sigma2, 1.0)
            assert abs(d.mean) < 1e-14 * max(1.0, abs(d.v_lo))
            assert d.variance == pytest.approx(sigma2, rel=1e-12)


class TestIidSum:
    def test_fair_half_atoms_n2(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        np.testing.assert_allclose(S.knots, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(S.values, [1.0, 0.75, 0.25], rtol=1e-14)

    def test_n1_is_the_atom(self):
        d = two_point_from_variance(0.7, 1.3)
        S = iid_sum_survival(d, 1)
        np.testing.assert_allclose(S.knots, [d.v_lo, d.v_hi], atol=1e-15)
        np.testing.assert_allclose(S.values, [1.0, d.p_hi], rtol=1e-15)

    def test_all_heads_n20(self):
        S = iid_sum_survival(two_point_from_range(-1.0, 1.0), 20)
        assert S.eval(20.0) == pytest.approx(2.0**-20, rel=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = two_point_from_variance(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.3, 2.0)))
            n = int(rng.integers(1, 13))
            S = iid_sum_survival(d, n)
            xs, tails = enumerate_iid_survival(d, n)
            np.testing.assert_allclose(S.knots, xs, atol=1e-9)
            np.testing.assert_allclose(S.values, tails, rtol=1e-12, atol=1e-15)

    def test_matches_scipy_binomial(self):
        d = two_point_from_variance(0.25, 1.0)  # p_hi = 0.2
        S = iid_sum_survival(d, 40)
        tails = np.array([stats.binom.sf(k - 1, 40, d.p_hi) for k in range(41)])
        np.testing.assert_allclose(S.values, tails, rtol=1e-10)

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            iid_sum_survival(two_point_from_range(-1.0, 1.0), 0)


class TestConvolve:
    def test_point_mass_identity(self):
        d = DiscreteDist.from_two_point(two_point_from_variance(0.5, 1.0))
        out = convolve(d, DiscreteDist.point_mass(0.0))
        np.testing.assert_allclose(out.support, d.support, atol=1e-15)
        np.testing.assert_allclose(out.logp, d.logp, atol=1e-13)

    def test_fair_coins(self):
        d = DiscreteDist.from_two_point(two_point_from_range(-1.0, 1.0))
        out = convolve(d, d)
        np.testing.assert_allclose(out.support, [-2.0, 0.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25], rtol=1e-14)

    def test_two_atoms_enumeration(self):
        d1 = DiscreteDist.from_two_point(two_point_from_variance(0.25, 1.0))
        d2 = DiscreteDist.from_two_point(two_point_from_variance(1.0, 1.0))
        out = convolve(d1, d2)
        assert out.support.size == 4
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-13)
        expected = {}
        for v1, p1 in zip(d1.support, d1.probs):
            for v2, p2 in zip(d2.support, d2.probs):
                expected[round(v1 + v2, 12)] = expected.get(round(v1 + v2, 12), 0.0) + p1 * p2
        for v, p in zip(out.support, out.probs):
            assert p == pytest.approx(expected[round(v, 12)], rel=1e-13)

    def test_commutative_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dists = [
                DiscreteDist.from_two_point(
                    two_point_from_variance(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.2, 2.0)))
                )
                for _ in range(3)
            ]
            ab = convolve(dists[0], dists[1])
            ba = convolve(dists[1], dists[0])
            np.testing.assert_allclose(ab.support, ba.support, atol=1e-12)
            np.testing.assert_allclose(ab.probs, ba.probs, rtol=1e-12)
            abc = convolve(ab, dists[2])
            a_bc = convolve(dists[0], convolve(dists[1], dists[2]))
            np.testing.assert_allclose(abc.support, a_bc.support, atol=1e-12)
            np.testing.assert_allclose(abc.probs, a_bc.probs, rtol=1e-12)

    def test_n_fold_convolution_matches_iid_sum(self):
        d = two_point_from_variance(0.4, 0.8)
        base = DiscreteDist.from_two_point(d)
        acc = base
        for _ in range(5):
            acc = convolve(acc, base)
        S_conv = acc.survival()
        S_direct = iid_sum_survival(d, 6)
        np.testing.assert_allclose(S_conv.knots, S_direct.knots, atol=1e-12)
        np.testing.assert_allclose(S_conv.values, S_direct.values, rtol=1e-12)

    def test_close_chain_merges_to_weighted_mean(self):
        # the sums 0, e and 2e sit within MERGE_REL_TOL of their neighbours but
        # 2e does not of 0: the chain still merges into one point
        e = 0.7 * MERGE_REL_TOL
        d1 = DiscreteDist.from_probs([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        d2 = DiscreteDist.from_probs([-3.0 + 2.0 * e, -1.0 + e, 0.0], [0.1, 0.6, 0.3])
        out = convolve(d1, d2)
        assert out.support.size == 7
        chain = [(3.0 + (-3.0 + 2.0 * e), 0.5 * 0.1), (1.0 + (-1.0 + e), 0.3 * 0.6), (0.0, 0.2 * 0.3)]
        mass = math.fsum(p for _, p in chain)
        (j,) = np.nonzero(np.abs(out.support) < 1e-6)[0]
        assert out.probs[j] == pytest.approx(mass, rel=1e-14)
        assert out.support[j] == pytest.approx(math.fsum(v * p for v, p in chain) / mass, rel=1e-12)
        assert 0.0 < out.support[j] < 2.0 * e

    def test_merge_matches_loop_reference(self):
        def merge_loop(support, logp):
            order = np.argsort(support, kind="stable")
            support, logp = support[order], logp[order]
            groups, start = [], 0
            for i in range(1, support.size):
                prev, cur = support[i - 1], support[i]
                if cur - prev > MERGE_REL_TOL * max(1.0, abs(prev), abs(cur)):
                    groups.append((start, i))
                    start = i
            groups.append((start, support.size))
            out_x, out_lp = [], []
            for a, b in groups:
                lp = np.logaddexp.reduce(logp[a:b])
                out_lp.append(lp)
                out_x.append(float(np.sum(np.exp(logp[a:b] - lp) * support[a:b])))
            return np.array(out_x), np.array(out_lp)

        rng = np.random.default_rng(11)
        for _ in range(200):
            base = rng.uniform(-50.0, 50.0, int(rng.integers(1, 12)))
            jitter = rng.uniform(-2.0, 2.0, (base.size, 4)) * MERGE_REL_TOL * np.maximum(1.0, np.abs(base))[:, None]
            support = np.concatenate([base, (base[:, None] + jitter).ravel()[: rng.integers(0, 4 * base.size + 1)]])
            logp = np.log(rng.dirichlet(np.ones(support.size)))
            x, lp = _merge_close(support, logp)
            x_ref, lp_ref = merge_loop(support, logp)
            np.testing.assert_allclose(x, x_ref, rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(lp, lp_ref, rtol=1e-13, atol=1e-14)


class TestPoissonSurvival:
    def test_whole_mass(self):
        assert poisson_survival(3.7, 0) == 1.0

    def test_two_term_series(self):
        assert poisson_survival(1.0, 2) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-13)

    def test_direct_summation_oracle(self):
        # 60-term smallest-first summation at lambda = 5, k = 5
        js = np.arange(5, 65)
        terms = np.exp(js * math.log(5.0) - 5.0 - np.array([math.lgamma(j + 1) for j in js]))
        expected = math.fsum(sorted(terms))
        assert poisson_survival(5.0, 5) == pytest.approx(expected, rel=1e-13)
        assert poisson_survival(5.0, 5) == pytest.approx(0.5595067149347875, rel=1e-12)

    def test_against_scipy_across_crossover(self):
        for lam in (0.1, 1.0, 5.0, 29.0, 30.5, 50.0, 200.0):
            for k in (0, 1, 2, 5, int(lam), int(lam) + 1, int(2 * lam) + 5, int(lam + 10 * math.sqrt(lam))):
                expected = float(stats.poisson.sf(k - 1, lam))
                if expected > 0:
                    assert poisson_survival(lam, k) == pytest.approx(expected, rel=5e-13), (lam, k)

    def test_crossover_against_long_summation(self):
        # 200-term tail summation around the series/continued-fraction switch
        for lam in (29.5, 30.0, 30.5, 31.0):
            for k in (10, 25, 31, 45):
                js = np.arange(k, k + 200)
                terms = np.exp(js * math.log(lam) - lam - np.array([math.lgamma(j + 1) for j in js]))
                expected = math.fsum(sorted(terms))
                assert poisson_survival(lam, k) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_k_and_lambda(self):
        values = [poisson_survival(2.5, k) for k in range(15)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        lams = np.linspace(0.2, 40.0, 25)
        values = [poisson_survival(l, 7) for l in lams]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_deep_tail_log_space(self):
        # scipy.logsf underflows here; the leading-term ratio series does not:
        # P{eta >= k} = pmf(k) * (1 + lam/(k+1) + lam^2/((k+1)(k+2)) + ...)
        lam, k = 1.0, 200
        log_lead = k * math.log(lam) - lam - math.lgamma(k + 1)
        correction, term = 1.0, 1.0
        for j in range(1, 30):
            term *= lam / (k + j)
            correction += term
        expected = log_lead + math.log(correction)
        assert poisson_log_survival(lam, k) == pytest.approx(expected, rel=1e-13)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            poisson_survival(0.0, 1)


class TestGaussianSurvival:
    def test_center(self):
        assert gaussian_survival(0.0) == 0.5

    def test_quadrature_oracle(self):
        from scipy import integrate

        dens = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
        expected, _ = integrate.quad(dens, 1.0, 40.0, epsabs=1e-15, epsrel=1e-13)
        assert gaussian_survival(1.0) == pytest.approx(expected, rel=1e-12)
        assert gaussian_survival(1.0) == pytest.approx(0.15865525393145707, rel=1e-13)

    def test_total_mass_far_left(self):
        assert gaussian_survival(-10.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert gaussian_survival(x) == pytest.approx(float(stats.norm.sf(x)), rel=1e-12)


class TestBinomialLogSurvival:
    def test_edges(self):
        assert binomial_log_survival(10, 0.5, 0) == 0.0
        assert binomial_log_survival(10, 0.5, -3) == 0.0
        assert binomial_log_survival(10, 0.5, 11) == -math.inf

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 500))
            p = float(rng.uniform(0.02, 0.98))
            k = int(rng.integers(0, n + 1))
            expected = float(stats.binom.logsf(k - 1, n, p))
            assert binomial_log_survival(n, p, k) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [920, 3000, 10**4, 10**6])
    @pytest.mark.parametrize("p", [1e-3, 0.5, 0.999])
    def test_against_scipy_large_n(self, n, p):
        # both sides of the mean; scipy's log-sf underflows much further out
        sd = math.sqrt(n * p * (1.0 - p))
        for z in (-8.0, -3.0, -0.5, 0.5, 3.0, 8.0):
            k = int(round(n * p + z * sd))
            if not 0 < k <= n:
                continue
            expected = float(stats.binom.logsf(k - 1, n, p))
            assert binomial_log_survival(n, p, k) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_top_knot_is_exact(self):
        assert binomial_log_survival(100, 0.3, 100) == 100 * math.log(0.3)

    def test_stirling_error_table_and_series(self):
        # the table against log-gamma, whose rounding stays near 1e-15 there
        for m in range(1, 16):
            direct = math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2 * math.pi)
            assert _stirlerr(m) == pytest.approx(direct, abs=1e-14)
        # each truncated series branch against seven terms of the full series
        coefs = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
        for m in (16, 35, 36, 80, 81, 500, 501, 10**6):
            series = sum(c / float(m) ** (2 * j + 1) for j, c in enumerate(coefs))
            assert _stirlerr(m) == pytest.approx(series, rel=1e-13)

    def test_continued_fraction_reports_non_convergence(self):
        with pytest.raises(RuntimeError):
            _beta_cf(3000.0, 7001.0, 0.3, max_iter=2)


class TestStepSurvival:
    def test_eval_conventions(self):
        S = iid_sum_survival(two_point_from_range(-0.5, 0.5), 2)
        assert S.eval(-5.0) == 1.0
        assert S.eval(-1.0) == 1.0
        assert S.eval(-0.5) == pytest.approx(0.75, rel=1e-14)  # mass at or above
        assert S.eval(0.0) == pytest.approx(0.75, rel=1e-14)
        assert S.eval(0.5) == pytest.approx(0.25, rel=1e-14)
        assert S.eval(1.0) == pytest.approx(0.25, rel=1e-14)
        assert S.eval(1.0 + 1e-12) == 0.0
        np.testing.assert_allclose(S.eval(np.array([-2.0, 0.3, 2.0])), [1.0, 0.25, 0.0], rtol=1e-13)

    def test_eval_is_exp_of_log_eval(self):
        S = iid_sum_survival(two_point_from_variance(0.3, 0.9), 12)
        xs = np.concatenate([S.knots, S.knots + 1e-3, [-np.inf, np.inf, S.knots[0] - 5.0]])
        np.testing.assert_array_equal(S.eval(xs), np.exp(S.log_eval(xs)))
        assert type(S.eval(0.1)) is float and type(S.log_eval(0.1)) is float
        assert S.eval(float(S.knots[-1]) + 1.0) == 0.0

    def test_invariants(self):
        S = iid_sum_survival(two_point_from_variance(0.3, 0.9), 30)
        assert S.log_values[0] == 0.0
        assert np.all(np.diff(S.log_values) < 0)
        assert np.all(np.diff(S.knots) > 0)

    def test_atom_masses_sum_to_one(self):
        S = iid_sum_survival(two_point_from_variance(0.7, 1.1), 17)
        assert math.fsum(S.atom_masses) == pytest.approx(1.0, abs=1e-12)

    def test_validation_rejects_bad_sequences(self):
        with pytest.raises(ValueError):
            StepSurvival(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([0.0, 1.0]), np.array([-0.1, -0.2]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([1.0, 0.0]), np.array([0.0, -1.0]))

    def test_invisible_jumps_are_dropped(self):
        # a point carrying ~1e-40 relative mass leaves no double-precision jump
        d = DiscreteDist.from_probs([0.0, 1.0, 2.0], [0.5, 1e-40, 0.5 - 1e-40])
        S = d.survival()
        assert S.knots.size == 2
        np.testing.assert_allclose(S.knots, [0.0, 2.0], atol=1e-15)

    def test_csv_round_trip(self):
        d = DiscreteDist.from_probs([0.0, 1.0], [0.25, 0.75])
        lines = d.to_csv().strip().splitlines()
        assert lines[0] == "point,log_prob"
        points = [float(l.split(",")[0]) for l in lines[1:]]
        logps = [float(l.split(",")[1]) for l in lines[1:]]
        assert points == [0.0, 1.0]
        assert logps == d.logp.tolist()  # 17 digits round-trip doubles
        S = d.survival()
        s_lines = S.to_csv().strip().splitlines()
        assert s_lines[0] == "point,survival"
        assert [float(l.split(",")[1]) for l in s_lines[1:]] == S.values.tolist()
