"""Exact centered two-point atoms, their sums, and reference survival functions.

Everything is carried in log space: a sum of a few hundred two-point atoms
already has tail masses near 1e-300, and the bounds built on top of these
survival functions are interesting exactly in that regime. Tail sums are
always accumulated from the smallest term.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoPointDist",
    "DiscreteDist",
    "StepSurvival",
    "two_point_from_variance",
    "two_point_from_range",
    "iid_sum_survival",
    "iid_sum_dist",
    "convolve",
    "poisson_survival",
    "poisson_log_survival",
    "gaussian_survival",
    "binomial_log_survival",
    "MERGE_REL_TOL",
]

# Two support points s, t merge when |s - t| <= MERGE_REL_TOL * max(1, |s|, |t|).
MERGE_REL_TOL = 1e-9

_NEG_INF = float("-inf")

_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def _logsumexp(a):
    """log(sum(exp(a))) with the usual max shift; -inf for an empty input."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return _NEG_INF
    m = np.max(a)
    if m == _NEG_INF:
        return _NEG_INF
    return float(m + np.log(np.sum(np.exp(a - m))))


def _reverse_tail_logsum(logp):
    """log of the suffix sums of exp(logp), accumulated from the top atom down.

    Sequential pairwise accumulation from the largest support point adds the
    smallest tail terms first.
    """
    return np.logaddexp.accumulate(logp[::-1])[::-1]


@dataclass(frozen=True, eq=False)
class TwoPointDist:
    """Centered law on two atoms ``{v_lo, v_hi}`` with ``P{v_hi} = p_hi``.

    Invariants: ``v_lo < v_hi``, ``0 < p_hi < 1``, mean zero (to 1e-14 at unit
    scale, scaled by the atom magnitude beyond that) and positive variance.
    """

    v_lo: float
    v_hi: float
    p_hi: float

    def __post_init__(self):
        if not self.v_lo < self.v_hi:
            raise ValueError(f"need v_lo < v_hi, got {self.v_lo} >= {self.v_hi}")
        if not 0.0 < self.p_hi < 1.0:
            raise ValueError(f"p_hi must lie in (0,1), got {self.p_hi}")
        scale = max(1.0, abs(self.v_lo), abs(self.v_hi))
        if abs(self.mean) > 1e-14 * scale:
            raise ValueError(f"atoms are not centered: mean={self.mean}")
        if not self.variance > 0.0:
            raise ValueError("variance must be positive")

    @property
    def mean(self):
        return self.v_lo * (1.0 - self.p_hi) + self.v_hi * self.p_hi

    @property
    def variance(self):
        return self.v_lo**2 * (1.0 - self.p_hi) + self.v_hi**2 * self.p_hi


def two_point_from_variance(sigma2, b):
    """Centered two-point law with variance ``sigma2`` and upper atom ``b``.

    The atoms are ``{-sigma2/b, b}`` with ``P{b} = sigma2 / (b^2 + sigma2)``.
    Degenerate inputs (``sigma2 <= 0`` or ``b <= 0``) are rejected rather than
    treated as point masses.
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    return TwoPointDist(v_lo=-sigma2 / b, v_hi=b, p_hi=sigma2 / (b * b + sigma2))


def two_point_from_range(a, b):
    """Centered two-point law supported on ``{a, b}`` with ``a < 0 < b``.

    Mean zero forces ``P{b} = -a / (b - a)``; the variance comes out as
    ``-a*b``.
    """
    if not a < 0.0:
        raise ValueError(f"a must be negative, got {a}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    return TwoPointDist(v_lo=a, v_hi=b, p_hi=-a / (b - a))


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Finite discrete law: strictly increasing support, log-probabilities."""

    support: np.ndarray
    logp: np.ndarray

    def __post_init__(self):
        support = np.ascontiguousarray(self.support, dtype=np.float64)
        logp = np.ascontiguousarray(self.logp, dtype=np.float64)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "logp", logp)
        if support.ndim != 1 or support.shape != logp.shape:
            raise ValueError("support and logp must be 1-D arrays of equal length")
        if support.size == 0:
            raise ValueError("empty support")
        if support.size > 1:
            gaps = np.diff(support)
            scale = np.maximum(1.0, np.maximum(np.abs(support[1:]), np.abs(support[:-1])))
            if np.any(gaps <= MERGE_REL_TOL * scale):
                raise ValueError("support must be strictly increasing beyond the merge tolerance")
        total = _logsumexp(logp)
        if abs(math.expm1(total)) > 1e-12:
            raise ValueError(f"probabilities sum to exp({total}) != 1")

    @property
    def probs(self):
        return np.exp(self.logp)

    @property
    def mean(self):
        return float(np.sum(self.support * self.probs))

    @classmethod
    def point_mass(cls, x):
        return cls(np.array([float(x)]), np.array([0.0]))

    @classmethod
    def from_two_point(cls, d):
        return cls(
            np.array([d.v_lo, d.v_hi]),
            np.array([math.log1p(-d.p_hi), math.log(d.p_hi)]),
        )

    @classmethod
    def from_probs(cls, support, probs):
        """Build from plain probabilities, dropping zero-mass points."""
        support = np.asarray(support, dtype=np.float64)
        probs = np.asarray(probs, dtype=np.float64)
        if np.any(probs < 0):
            raise ValueError("negative probability")
        keep = probs > 0.0
        with np.errstate(divide="ignore"):
            return cls(support[keep], np.log(probs[keep]))

    def survival(self):
        return StepSurvival.from_dist(self)

    def to_csv(self):
        """CSV dump (columns: point, log_prob), 17 significant digits."""
        lines = ["point,log_prob"]
        lines += [f"{x:.17g},{lp:.17g}" for x, lp in zip(self.support, self.logp)]
        return "\n".join(lines) + "\n"


def _merge_close(support, logp):
    """Merge support points closer than the tolerance; weighted-average values.

    A gap above MERGE_REL_TOL * max(1, |prev|, |cur|) between sorted
    neighbours starts a new group, so chains of close points merge as one.
    """
    order = np.argsort(support, kind="stable")
    support = support[order]
    logp = logp[order]
    scale = np.maximum(1.0, np.maximum(np.abs(support[:-1]), np.abs(support[1:])))
    new_group = np.concatenate(([True], np.diff(support) > MERGE_REL_TOL * scale))
    starts = np.flatnonzero(new_group)
    out_lp = np.logaddexp.reduceat(logp, starts)
    w = np.exp(logp - out_lp[np.cumsum(new_group) - 1])
    return np.add.reduceat(w * support, starts), out_lp


def convolve(d1, d2):
    """Distribution of the sum of independent draws from ``d1`` and ``d2``.

    All pairwise sums are formed, near-coincident points merged, and the
    log-probabilities combined by log-sum-exp.
    """
    sums = (d1.support[:, None] + d2.support[None, :]).ravel()
    lps = (d1.logp[:, None] + d2.logp[None, :]).ravel()
    support, logp = _merge_close(sums, lps)
    return DiscreteDist(support, logp)


def iid_sum_dist(d, n):
    """Law of a sum of ``n`` independent copies of a two-point atom.

    Support points are ``k*v_hi + (n-k)*v_lo``; masses are binomial, with
    log C(n, k) a difference of log-gamma values. Its absolute error grows
    like eps n log n, so from n ~ 735 some (n, p) fail the 1e-12
    normalization check of ``DiscreteDist`` with ``ValueError``.
    ``binomial_log_survival`` builds no sum and holds at any n.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    k = np.arange(n + 1)
    support = k * d.v_hi + (n - k) * d.v_lo
    lp_hi = math.log(d.p_hi)
    lp_lo = math.log1p(-d.p_hi)
    logc = _lgamma(n + 1.0) - _lgamma(k + 1.0) - _lgamma(n - k + 1.0)
    logp = logc + k * lp_hi + (n - k) * lp_lo
    return DiscreteDist(support, logp)


@dataclass(frozen=True, eq=False)
class StepSurvival:
    """Left-continuous step survival function ``B(x) = P{X >= x}``.

    ``knots`` are the jump points; ``log_values[i] = log B(knots[i])`` with
    ``log_values[0] = 0`` and strictly decreasing entries. ``B(x) = 1`` for
    ``x <= knots[0]`` and ``B(x) = 0`` for ``x > knots[-1]``.
    """

    knots: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=np.float64)
        log_values = np.ascontiguousarray(self.log_values, dtype=np.float64)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "log_values", log_values)
        if knots.ndim != 1 or knots.shape != log_values.shape or knots.size == 0:
            raise ValueError("knots and log_values must be matching nonempty 1-D arrays")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if log_values[0] != 0.0:
            raise ValueError("survival must start at 1 (log value 0)")
        if np.any(np.diff(log_values) >= 0):
            raise ValueError("survival values must be strictly decreasing")
        if log_values[-1] == _NEG_INF:
            raise ValueError("zero-probability knots must be excluded")

    @property
    def values(self):
        return np.exp(self.log_values)

    @classmethod
    def from_dist(cls, d):
        """Survival function of a DiscreteDist.

        Knots with no visible jump at double precision are dropped (the
        rightmost point of each flat run is kept), so the invariants hold for
        arbitrarily lopsided masses.
        """
        logv = _reverse_tail_logsum(d.logp)
        # normalize by the total mass and re-monotonize: accumulation noise of
        # order n*eps can push near-1 values a hair above 0
        logv = logv - logv[0]
        logv[0] = 0.0
        logv = np.minimum.accumulate(logv)
        keep = np.ones(logv.size, dtype=bool)
        keep[:-1] = logv[:-1] > logv[1:]
        return cls(d.support[keep], logv[keep])

    def eval(self, x):
        """B(x) = total mass at or above x; scalar or array."""
        out = np.exp(self.log_eval(x))
        return float(out) if out.ndim == 0 else out

    def log_eval(self, x):
        """log B(x); -inf above the last knot."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.knots, x, side="left")
        inside = idx < self.knots.size
        out = np.full(x.shape, _NEG_INF)
        out[inside] = self.log_values[idx[inside]]
        if x.ndim == 0:
            return float(out)
        return out

    @property
    def atom_masses(self):
        """Jump sizes B(x_i) - B(x_i^+): the probability mass at each knot."""
        v = self.values
        return v - np.append(v[1:], 0.0)

    def to_csv(self):
        """CSV dump (columns: point, survival), 17 significant digits."""
        lines = ["point,survival"]
        lines += [f"{x:.17g},{v:.17g}" for x, v in zip(self.knots, self.values)]
        return "\n".join(lines) + "\n"


def iid_sum_survival(d, n):
    """Survival function of a sum of ``n`` iid copies of a two-point atom.

    The value at knot ``k`` is the binomial upper tail ``P{Bin(n, p_hi) >= k}``
    accumulated in log space from the smaller tail.
    """
    return StepSurvival.from_dist(iid_sum_dist(d, n))


# --- reference survival functions -------------------------------------------

_POISSON_SERIES_LAMBDA = 30.0


def _poisson_log_pmf(lam, j):
    return j * math.log(lam) - lam - math.lgamma(j + 1.0)


def _poisson_log_sf_series(lam, k):
    # sum of pmf terms j >= k until the addition is negligible; logsumexp
    # handles the ordering.
    terms = []
    biggest = -math.inf
    j = k
    peak = max(float(k), lam)
    while True:
        lt = _poisson_log_pmf(lam, j)
        terms.append(lt)
        biggest = max(biggest, lt)
        # past the mode the terms decay at least geometrically with ratio
        # lam/(j+1); stop once the remaining tail cannot move the sum
        if j > peak and lt < biggest - 45.0:
            break
        j += 1
        if j > k + 10_000_000:  # pragma: no cover - defensive
            raise RuntimeError("poisson series failed to converge")
    return _logsumexp(np.array(terms))


def _upper_gamma_cf(a, x, accuracy=1e-15, max_iter=500):
    """Continued fraction for the regularized upper incomplete gamma Q(a, x).

    Valid for x >= a + 1; returns log Q(a, x).
    """
    logfront = -x + a * math.log(x) - math.lgamma(a)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < accuracy:
            return logfront + math.log(h)
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def poisson_log_survival(lam, k):
    """log P{eta >= k} for a Poisson(lam) variable, integer ``k``."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    k = int(k)
    if k <= 0:
        return 0.0
    if lam <= _POISSON_SERIES_LAMBDA or lam < k + 1.0:
        return _poisson_log_sf_series(lam, k)
    # lam >= k + 1: the survival is >= 1/2-ish, so 1 - Q loses nothing
    logq = _upper_gamma_cf(float(k), lam)
    return math.log1p(-math.exp(logq))


def poisson_survival(lam, k):
    """P{eta >= k} for Poisson(lam), accurate to better than 1e-13 relative."""
    return math.exp(poisson_log_survival(lam, k))


def gaussian_survival(x):
    """Standard normal upper tail 1 - Phi(x) via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# log(m!) - log(sqrt(2 pi m) (m/e)^m) for m = 0..15, correctly rounded (Loader's
# table at the integers); larger m take the Stirling series in _stirlerr
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(m):
    """Error of Stirling's formula for log(m!), integer m >= 0 (Loader 2000)."""
    if m < len(_STIRLERR_SMALL):
        return _STIRLERR_SMALL[m]
    mm = float(m) * m
    if m > 500:
        return (1 / 12 - (1 / 360) / mm) / m
    if m > 80:
        return (1 / 12 - (1 / 360 - (1 / 1260) / mm) / mm) / m
    if m > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680) / mm) / mm) / mm) / m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / mm) / mm) / mm) / mm) / m


def _bd0(x, mean):
    """Deviance term x log(x/mean) + mean - x (Loader 2000).

    Near x = mean, where the direct form cancels, it is summed as a series.
    """
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        ej = 2.0 * x * v
        v *= v
        j = 1
        while True:
            ej *= v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mean) + mean - x


def _binomial_log_pmf(n, p, k):
    """log P{Bin(n, p) = k} by Loader's saddle-point form, 0 <= k <= n.

    Unlike a difference of log-gamma values, it carries no eps n log n error
    term.
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        - _bd0(float(k), n * p) - _bd0(float(n - k), n * (1.0 - p))
        - 0.5 * (_LOG_2PI + math.log(k * (n - k) / n))
    )


def _beta_cf(a, b, x, accuracy=1e-15, max_iter=100_000):
    """Continued fraction for I_x(a, b) a B(a, b) / (x^a (1-x)^b), by Lentz's method.

    Converges fast for x < (a + 1)/(a + b + 2); near that point it takes about
    4 (a + b)^(1/3) steps, so max_iter covers a + b up to about 1e13.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        a2m = a + 2.0 * m
        an = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 + an * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        an = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 + an * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < accuracy:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def binomial_log_survival(n, p, k):
    """log P{Bin(n, p) >= k} in log space, integer ``k``, in O(1) at any ``n``.

    The tail is the regularized incomplete beta I_p(k, n - k + 1), taken by
    Lentz's continued fraction (DiDonato & Morris, TOMS Alg. 708, 1992) times
    the exact prefactor P{Bin = k} (1 - p). Past p >= (k + 1)/(n + 3), where
    the tail is large, it is the complement 1 - P{Bin = k - 1} p CF of the
    lower tail.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    n = int(n)
    k = int(k)
    if k <= 0:
        return 0.0
    if k > n:
        return _NEG_INF
    if k == n:
        return n * math.log(p)
    if p < (k + 1.0) / (n + 3.0):
        cf = _beta_cf(float(k), float(n - k + 1), p)
        return _binomial_log_pmf(n, p, k) + math.log1p(-p) + math.log(cf)
    cf = _beta_cf(float(n - k + 1), float(k), 1.0 - p)
    return math.log1p(-math.exp(_binomial_log_pmf(n, p, k - 1)) * p * cf)
