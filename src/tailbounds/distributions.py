"""Exact centered two-point atoms, their sums, and reference survival functions.

Everything is carried in log space: a sum of a few hundred two-point atoms
already has tail masses near 1e-300, and the bounds built on top of these
survival functions are interesting exactly in that regime. Survival functions
of exact sums (``_reverse_tail_logsum``) are accumulated from the smallest
term; the Poisson tail sums its ratio series from the term next to the mean,
and the binomial tail is a continued fraction.
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

# The Poisson walk starts with blocks of this many steps, and no block
# holds more than this many (rows x steps) cells
_WALK_FIRST_STEPS = 32
_WALK_BLOCK_CELLS = 1 << 14


def _require_finite(**args):
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_count(n):
    """Raise ValueError naming ``n`` unless it is a whole number >= 1."""
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"n must be a positive integer, got {n}")


# The threshold contract of every evaluator: one threshold gives a float, a
# 1-D array gives the scalar calls' values bit for bit, NaN raises ValueError
# naming the argument.
def _thresholds(x, name):
    """The thresholds ``x``, one or a 1-D array, as a float array; NaN is refused by ``name``."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError(f"threshold {name} must not be NaN")
    return x


def _as_given(x, out):
    """``out`` as a float where ``x`` is one threshold, else the array ``out``."""
    return float(out) if isinstance(x, (int, float)) or np.ndim(x) == 0 else out


def _each(fn, x):
    """``fn`` of one threshold as a Python float; at a 1-D array, ``fn`` of each element.

    The per-element step stays in ``math``: numpy's exp and log1p differ from
    math's in the last bit on some inputs, and an array call must equal the
    scalar calls bit for bit.
    """
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        return fn(float(x))
    return np.array([fn(v) for v in np.asarray(x, dtype=np.float64).tolist()], dtype=np.float64)


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
    _require_finite(sigma2=sigma2, b=b)
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
    _require_finite(a=a, b=b)
    if not a < 0.0:
        raise ValueError(f"a must be negative, got {a}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    return TwoPointDist(v_lo=a, v_hi=b, p_hi=-a / (b - a))


@dataclass(frozen=True, eq=False)
class DiscreteDist:
    """Finite discrete law: strictly increasing support, log-probabilities.

    The arrays are checked once, when the law is built, and must not be
    changed in place: the survival built from them is kept on the law.
    """

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
            if not np.all(gaps > MERGE_REL_TOL * scale):
                raise ValueError("support must be strictly increasing beyond the merge tolerance")
        # increasing points are finite when both ends are
        if not (math.isfinite(support[0]) and math.isfinite(support[-1])):
            raise ValueError("support points must be finite")
        top = np.max(logp)
        total = _NEG_INF if top == _NEG_INF else float(top + np.log(np.sum(np.exp(logp - top))))
        if not abs(math.expm1(total)) <= 1e-12:
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
        """``StepSurvival.from_dist(self)``: built once and kept on this law."""
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
    A group's value is v0 + sum w (v - v0), with v0 its first point and w its
    normalized masses. The w need not sum to exactly 1 in floats, so this form
    keeps a group of equal points, such as a lattice knot, exactly in place.
    """
    order = np.argsort(support, kind="stable")
    support = support[order]
    logp = logp[order]
    scale = np.maximum(1.0, np.maximum(np.abs(support[:-1]), np.abs(support[1:])))
    new_group = np.concatenate(([True], np.diff(support) > MERGE_REL_TOL * scale))
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    out_lp = np.logaddexp.reduceat(logp, starts)
    w = np.exp(logp - out_lp[group])
    first = support[starts]
    return first + np.add.reduceat(w * (support - first[group]), starts), out_lp


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
    log C(n, k) = lg[n] - lg[k] - lg[n - k] read off one array of
    lg[i] = log(i!), one ``math.lgamma`` call per atom. Its absolute error
    grows like eps n log n, so from n ~ 735 some (n, p) fail the 1e-12
    normalization check of ``DiscreteDist`` with ``ValueError``.
    ``binomial_log_survival`` builds no sum and holds at any n.
    """
    _require_count(n)
    n = int(n)
    k = np.arange(n + 1)
    support = k * d.v_hi + (n - k) * d.v_lo
    lp_hi = math.log(d.p_hi)
    lp_lo = math.log1p(-d.p_hi)
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)
    logc = lg[n] - lg - lg[::-1]
    logp = logc + k * lp_hi + (n - k) * lp_lo
    return DiscreteDist(support, logp)


@dataclass(frozen=True, eq=False)
class StepSurvival:
    """Left-continuous step survival function ``B(x) = P{X >= x}``.

    ``knots`` are the jump points; ``log_values[i] = log B(knots[i])`` with
    ``log_values[0] = 0`` and strictly decreasing entries. ``B(x) = 1`` for
    ``x <= knots[0]`` and ``B(x) = 0`` for ``x > knots[-1]``. The arrays
    are checked once, when the survival is built, and must not be changed in
    place: the hull built from them is kept on the survival.
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
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        # increasing knots are finite when both ends are
        if not (math.isfinite(knots[0]) and math.isfinite(knots[-1])):
            raise ValueError("knots must be finite")
        if log_values[0] != 0.0:
            raise ValueError("survival must start at 1 (log value 0)")
        if not np.all(np.diff(log_values) < 0):
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
        arbitrarily lopsided masses. The survival is kept in ``d.__dict__``
        (``d`` is frozen), so a second call returns the same object; ``d``'s
        arrays must not be changed in place.
        """
        if "_survival" in d.__dict__:
            return d.__dict__["_survival"]
        logv = _reverse_tail_logsum(d.logp)
        # normalize by the total mass and re-monotonize: accumulation noise of
        # order n*eps can push near-1 values a hair above 0
        logv = logv - logv[0]
        logv[0] = 0.0
        logv = np.minimum.accumulate(logv)
        keep = np.ones(logv.size, dtype=bool)
        keep[:-1] = logv[:-1] > logv[1:]
        S = d.__dict__["_survival"] = cls(d.support[keep], logv[keep])
        return S

    def eval(self, x):
        """B(x) = total mass at or above x; scalar or array."""
        return _as_given(x, np.exp(self.log_eval(x)))

    def log_eval(self, x):
        """log B(x); -inf above the last knot."""
        x = _thresholds(x, "x")
        idx = np.searchsorted(self.knots, x, side="left")
        inside = idx < self.knots.size
        out = np.full(x.shape, _NEG_INF)
        out[inside] = self.log_values[idx[inside]]
        return _as_given(x, out)

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


def gaussian_survival(x):
    """Standard normal upper tail 1 - Phi(x) via the complementary error function.

    Infinite ``x`` reads the limits 0 and 1; NaN raises ValueError.
    """
    if math.isnan(x):
        raise ValueError("x must not be NaN")
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


def _tail_count(k):
    """The integer ceil(k) at which a tail P{eta >= k} reads; infinities pass through."""
    if math.isnan(k):
        raise ValueError("threshold k must not be NaN")
    return k if math.isinf(k) else math.ceil(k)


def _poisson_log_pmf(lam, k):
    """log P{eta = k} for Poisson(lam) by Loader's saddle-point form, k >= 0."""
    if k == 0:
        return -lam
    return -_stirlerr(k) - _bd0(float(k), lam) - 0.5 * (_LOG_2PI + math.log(k))


def poisson_log_survival(lam, k):
    """log P{eta >= k} for a Poisson(lam) variable, read at the integer ceil(k).

    The smaller side of the law is summed: P{eta >= k} for k > lam, else
    P{eta <= k - 1}, whose complement is returned. The sum starts at the
    pmf term next to the mean and walks away from it by the ratios
    lam/(j + 1) up or j/lam down, until a term no longer changes the sum.

    ``k`` is a threshold or a 1-D array of them. Each distinct integer
    ceil(k) is walked once, all of them at once in numpy
    (``_poisson_ratio_walks``); a threshold comes back as a float. The pmf,
    log and log1p per integer stay in ``math``: numpy's may differ from them
    in the last bit.
    """
    _require_finite(lam=lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    k = _thresholds(k, "k")
    ks, at = np.unique(np.ceil(k).ravel(), return_inverse=True)
    # 0 at k <= 0 and -inf at k = inf
    logs = np.where(ks > 0.0, _NEG_INF, 0.0)
    walked = np.flatnonzero((ks > 0.0) & (ks < math.inf))
    kw = ks[walked]
    logs[walked] = [
        _poisson_log_pmf(lam, kk) + math.log(total)
        if kk > lam
        else math.log1p(-math.exp(_poisson_log_pmf(lam, kk - 1) + math.log(total)))
        for kk, total in zip(map(int, kw.tolist()), _poisson_ratio_walks(lam, kw).tolist())
    ]
    return _as_given(k, logs[at].reshape(k.shape))


def _poisson_ratio_walks(lam, ks):
    """The totals 1 + r_1 + r_1 r_2 + ... of the ratio walk from each integer in sorted ``ks``.

    Going up from k > lam the ratios are lam/(k + i), going down from k - 1
    (k <= lam) they are max(k - i, 0)/lam, for i = 1, 2, ... Each block of
    steps takes the running products and then the running sums along every
    row, with the previous block's last term and sum as its first column, so
    every row rounds as a term-by-term loop does. The terms only shrink, so
    once a block's last term leaves a row's sum unchanged, that sum is the
    one the loop stops at. Blocks double in width but hold at most
    ``_WALK_BLOCK_CELLS`` cells, so memory stays flat at any lambda.
    """
    totals = np.empty(ks.size)
    rows = np.arange(ks.size)
    term = np.ones(ks.size)
    total = np.ones(ks.size)
    steps, width = 0, _WALK_FIRST_STEPS
    while rows.size:
        width = max(min(width, _WALK_BLOCK_CELLS // rows.size - 1), 1)
        i = np.arange(steps + 1, steps + width + 1, dtype=np.float64)
        block = np.empty((rows.size, width + 1))
        block[:, 0] = term
        k = ks[rows, None]
        # the rows stay sorted, so those that walk down come first
        down = np.searchsorted(k[:, 0], lam, side="right")
        lower, upper = block[:down, 1:], block[down:, 1:]
        np.maximum(np.subtract(k[:down], i, out=lower), 0.0, out=lower)
        lower /= lam
        np.divide(lam, np.add(k[down:], i, out=upper), out=upper)
        np.multiply.accumulate(block, axis=1, out=block)
        term = block[:, -1].copy()
        block[:, 0] = total
        np.add.accumulate(block, axis=1, out=block)
        done = block[:, -1] == block[:, -2]
        totals[rows[done]] = block[done, -1]
        going = ~done
        rows, term, total = rows[going], term[going], block[going, -1]
        steps += width
        width *= 2
    return totals


def poisson_survival(lam, k):
    """P{eta >= k} for Poisson(lam) at one ``k`` or a 1-D array, to 1e-13 relative."""
    return _each(math.exp, poisson_log_survival(lam, k))


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


def _beta_cf(a, b, x, max_iter=100_000):
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
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def binomial_log_survival(n, p, k):
    """log P{Bin(n, p) >= k} in log space at the integer ceil(k), in O(1) at any ``n``.

    The tail is the regularized incomplete beta I_p(k, n - k + 1), taken by
    Lentz's continued fraction (DiDonato & Morris, TOMS Alg. 708, 1992) times
    the exact prefactor P{Bin = k} (1 - p). Past p >= (k + 1)/(n + 3), where
    the tail is large, it is the complement 1 - P{Bin = k - 1} p CF of the
    lower tail.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    n = int(n)
    k = _tail_count(k)
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
