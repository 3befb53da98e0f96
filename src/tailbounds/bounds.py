"""Closed-form tail bounds for martingales with bounded differences.

Three bound families dominate the martingale tail by the hull of a Bernoulli
sum tail, each under its own boundedness condition and with its own explicit
constant:

* variance condition (one-sided bound b, per-step conditional variance caps):
  constant e^2/2, comparison atoms eps(mean sigma^2, b);
* range condition (each difference in [-p_k, 1-p_k]): constant e, comparison
  atoms eps(p - p^2, 1 - p) at the mean p;
* symmetric condition (per-step caps a_k = max{b_k, sigma_k}): constant
  2e^3/9, symmetric comparison atoms +-a.

Each has a coarsening: a Poisson hull tail for the first two, a Gaussian tail
for the third. The classical Hoeffding product bounds, the explicit
moment-generating-function and fractional-moment bounds, exact n = 1 extremal
values, and a conservative confidence-limit inverter round out the module.
Raw bound values may exceed 1; the algebraic value is preserved and a clamped
copy is carried alongside.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    gaussian_survival,
    iid_sum_survival,
    two_point_from_variance,
)
from .hull import binomial_hull_log_eval, log_concave_hull, log_eval_hull, poisson_hull_eval
from .fracmoment import MARGIN_TOL, lhs_inf, rhs_bound

__all__ = [
    "RANGE_CONST",
    "VARIANCE_CONST",
    "SYMMETRIC_CONST",
    "RANGE_POISSON_CONST",
    "MartingaleConditions",
    "BoundResult",
    "comparison_atom",
    "comparison_hull",
    "hoeffding_log_H",
    "hoeffding_H",
    "hoeffding_tail_range",
    "hoeffding_tail_variance",
    "tail_bound_variance",
    "tail_bound_variance_poisson",
    "tail_bound_range",
    "tail_bound_range_poisson",
    "tail_bound_symmetric",
    "tail_bound_symmetric_gaussian",
    "mgf_bound",
    "fractional_moment_bound",
    "exact_n1_range",
    "exact_n1_variance",
    "poisson_tail_rough",
    "paulauskas_g",
    "gaussian_tail_upper",
    "invert_for_confidence",
]

RANGE_CONST = math.e
VARIANCE_CONST = math.e**2 / 2.0
SYMMETRIC_CONST = 2.0 * math.e**3 / 9.0
RANGE_POISSON_CONST = math.e**3 / 2.0


@dataclass(frozen=True, eq=False)
class MartingaleConditions:
    """Boundedness assumptions on the differences of a length-n martingale.

    variant:
        ``one_sided_variance`` - X_k <= b and conditional variances <= sigma2s[k];
        ``range``              - X_k in [-ps[k], 1 - ps[k]];
        ``per_k``              - X_k <= bs[k] and conditional variances <= sigma2s[k];
        ``symmetric``          - |X_k| <= bs[k].
    """

    variant: str
    n: int
    b: float | None = None
    bs: np.ndarray | None = None
    sigma2s: np.ndarray | None = None
    ps: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        for name in ("bs", "sigma2s", "ps"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                object.__setattr__(self, name, arr)
                if arr.shape != (self.n,):
                    raise ValueError(f"{name} must have length n={self.n}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name} must be finite")
        if self.b is not None and not math.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")
        if self.variant == "one_sided_variance":
            if self.b is None or not self.b > 0.0:
                raise ValueError("one_sided_variance needs a common bound b > 0")
            self._check_sigma2s()
        elif self.variant == "range":
            if self.ps is None:
                raise ValueError("range condition needs per-step ps")
            if np.any(self.ps < 0.0) or np.any(self.ps > 1.0):
                raise ValueError("every p_k must lie in [0, 1]")
        elif self.variant == "per_k":
            if self.bs is None or self.sigma2s is None:
                raise ValueError("per_k condition needs bs and sigma2s")
            if np.any(self.bs <= 0.0):
                raise ValueError("per_k bounds must be positive")
            self._check_sigma2s()
        elif self.variant == "symmetric":
            if self.bs is None:
                raise ValueError("symmetric condition needs bs")
            if np.any(self.bs < 0.0) or not np.mean(self.bs**2) > 0.0:
                raise ValueError("symmetric bounds must be nonnegative with positive mean square")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    def _check_sigma2s(self):
        if self.sigma2s is None:
            raise ValueError("variance caps sigma2s are required")
        if np.any(self.sigma2s < 0.0) or not np.mean(self.sigma2s) > 0.0:
            raise ValueError("sigma2s must be nonnegative with positive mean")

    @classmethod
    def one_sided_variance(cls, b, sigma2s):
        sigma2s = np.atleast_1d(np.asarray(sigma2s, dtype=np.float64))
        return cls(variant="one_sided_variance", n=sigma2s.size, b=float(b), sigma2s=sigma2s)

    @classmethod
    def range_condition(cls, ps):
        ps = np.atleast_1d(np.asarray(ps, dtype=np.float64))
        return cls(variant="range", n=ps.size, ps=ps)

    @classmethod
    def per_k(cls, bs, sigma2s):
        bs = np.atleast_1d(np.asarray(bs, dtype=np.float64))
        sigma2s = np.atleast_1d(np.asarray(sigma2s, dtype=np.float64))
        return cls(variant="per_k", n=bs.size, bs=bs, sigma2s=sigma2s)

    @classmethod
    def symmetric(cls, bs):
        bs = np.atleast_1d(np.asarray(bs, dtype=np.float64))
        return cls(variant="symmetric", n=bs.size, bs=bs)

    @property
    def mean_sigma2(self):
        return float(np.mean(self.sigma2s))

    @property
    def mean_p(self):
        return float(np.mean(self.ps))

    @property
    def a_values(self):
        """Per-step caps a_k = max{b_k, sigma_k} (just b_k when symmetric)."""
        if self.variant == "symmetric":
            return self.bs.copy()
        return np.maximum(self.bs, np.sqrt(self.sigma2s))

    @property
    def a2(self):
        return float(np.mean(self.a_values**2))


@dataclass(frozen=True)
class BoundResult:
    """A bound value split into its constant and hull factors.

    ``value`` and ``hull_value`` are floats for a scalar threshold and arrays
    for an array of thresholds.
    """

    value: float | np.ndarray
    constant: float
    hull_value: float | np.ndarray

    @property
    def clamped(self):
        if isinstance(self.value, np.ndarray):
            return np.minimum(1.0, self.value)
        return min(1.0, self.value)


def comparison_atom(cond):
    """The dominating iid two-point atom for a conditions object."""
    if cond.variant == "one_sided_variance":
        return two_point_from_variance(cond.mean_sigma2, cond.b)
    if cond.variant == "range":
        p = cond.mean_p
        if not 0.0 < p < 1.0:
            raise ValueError(f"mean p must lie strictly inside (0,1), got {p}")
        return two_point_from_variance(p - p * p, 1.0 - p)
    if cond.variant in ("per_k", "symmetric"):
        a = math.sqrt(cond.a2)
        return two_point_from_variance(a * a, a)
    raise ValueError(f"unknown variant {cond.variant!r}")


def comparison_hull(cond):
    """Log-concave hull of the comparison sum's survival function, materialized."""
    return log_concave_hull(iid_sum_survival(comparison_atom(cond), cond.n))


def _lazy_hull_value(atom, n, x):
    """B0(x) for the sum of n iid copies of ``atom``, without building the sum.

    Knot k of the sum sits at n v_lo + k (v_hi - v_lo) and carries the
    binomial tail P{Bin(n, p_hi) >= k}.
    """
    y = (x - n * atom.v_lo) / (atom.v_hi - atom.v_lo)
    return math.exp(binomial_hull_log_eval(n, atom.p_hi, y))


def _is_scalar(x):
    return isinstance(x, float) or np.ndim(x) == 0


def _elementwise(fn, x):
    """``fn(x)`` at a scalar threshold; at a 1-D array, ``fn`` of each element.

    The per-element step stays in ``math``: numpy's exp and log1p differ from
    math's in the last bit on some inputs, and an array call must equal the
    scalar calls bit for bit.
    """
    if _is_scalar(x):
        return fn(x)
    return np.array([fn(v) for v in np.asarray(x, dtype=np.float64).tolist()], dtype=np.float64)


def _check_x(x):
    if not (math.isfinite(x) if _is_scalar(x) else np.isfinite(x).all()):
        bad = x if _is_scalar(x) else np.asarray(x)[~np.isfinite(x)][0]
        raise ValueError(f"threshold x must be finite, got {bad}")


def _bound(cond, x, constant, expected_variant, hull):
    _check_x(x)
    if cond.variant not in expected_variant:
        raise ValueError(f"bound requires variant in {expected_variant}, got {cond.variant!r}")
    if hull is None:
        atom = comparison_atom(cond)
        hv = _elementwise(lambda v: _lazy_hull_value(atom, cond.n, v), x)
    else:
        # the interpolation runs once over all thresholds; exp per element
        hv = _elementwise(math.exp, log_eval_hull(hull, x))
    return BoundResult(value=constant * hv, constant=constant, hull_value=hv)


def tail_bound_variance(cond, x, hull=None):
    """Variance-condition bound: (e^2/2) * B0(x), atoms eps(mean sigma^2, b).

    Without ``hull`` B0(x) is evaluated lazily from two binomial tails; pass
    ``comparison_hull(cond)`` to read it off the materialized hull instead,
    which pays off over many thresholds. ``x`` is a threshold or a 1-D array
    of thresholds; an array gives a ``BoundResult`` of arrays, equal bit for
    bit to the scalar calls. The same holds for every bound, coarsening and
    Hoeffding tail below.
    """
    return _bound(cond, x, VARIANCE_CONST, ("one_sided_variance",), hull)


def tail_bound_variance_poisson(cond, x):
    """Poisson coarsening of the variance bound, lambda = sum sigma_k^2 / b^2.

    Independent of n, hence rougher: it also covers the heaviest, infinite-n
    tails.
    """
    _check_x(x)
    if cond.variant != "one_sided_variance":
        raise ValueError(f"poisson coarsening requires one_sided_variance, got {cond.variant!r}")
    lam = float(np.sum(cond.sigma2s)) / cond.b**2
    hv = _elementwise(lambda v: poisson_hull_eval(lam, lam + v / cond.b), x)
    return BoundResult(value=VARIANCE_CONST * hv, constant=VARIANCE_CONST, hull_value=hv)


def tail_bound_range(cond, x, hull=None):
    """Range-condition bound: e * B0(x), atoms eps(p - p^2, 1 - p) at mean p.

    ``hull``: lazy when omitted, materialized when passed (see
    ``tail_bound_variance``).
    """
    return _bound(cond, x, RANGE_CONST, ("range",), hull)


def tail_bound_range_poisson(cond, x):
    """Poisson coarsening of the range bound, lambda = p n / (1 - p).

    The constant e^3/2 is exactly e * (e^2/2): the range reduction composed
    with the variance bound's own Poisson step.
    """
    _check_x(x)
    if cond.variant != "range":
        raise ValueError(f"poisson coarsening requires range, got {cond.variant!r}")
    p = cond.mean_p
    if not 0.0 < p < 1.0:
        raise ValueError(f"mean p must lie strictly inside (0,1), got {p}")
    lam = p * cond.n / (1.0 - p)
    hv = _elementwise(lambda v: poisson_hull_eval(lam, lam + v / (1.0 - p)), x)
    return BoundResult(value=RANGE_POISSON_CONST * hv, constant=RANGE_POISSON_CONST, hull_value=hv)


def tail_bound_symmetric(cond, x, hull=None):
    """Symmetric-cap bound: (2e^3/9) * B0(x), symmetric atoms +-a, a^2 = mean a_k^2.

    ``hull``: lazy when omitted, materialized when passed (see
    ``tail_bound_variance``).
    """
    return _bound(cond, x, SYMMETRIC_CONST, ("per_k", "symmetric"), hull)


def tail_bound_symmetric_gaussian(cond, x):
    """Gaussian coarsening of the symmetric bound.

    Padding the martingale with zero differences and passing to the central
    limit leaves (2e^3/9) * (1 - Phi(x / sqrt(sum a_k^2))): the comparison sum
    has total standard deviation sqrt(n * a^2), which is the scale the normal
    tail must be evaluated at.
    """
    _check_x(x)
    if cond.variant not in ("per_k", "symmetric"):
        raise ValueError(f"gaussian coarsening requires per_k or symmetric, got {cond.variant!r}")
    scale = math.sqrt(cond.n * cond.a2)
    hv = _elementwise(lambda v: gaussian_survival(v / scale), x)
    return BoundResult(value=SYMMETRIC_CONST * hv, constant=SYMMETRIC_CONST, hull_value=hv)


# --- Hoeffding's product-form bounds -----------------------------------------


def hoeffding_log_H(a, p):
    """log H(a; p) for the classical kernel ((1-p)/(1-a))^(1-a) (p/a)^a.

    H = 1 for a <= p; H = 0 for a > 1; the a = 1 value is the continuous
    limit p, and H = 0 when p = 0 < a.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if math.isnan(a):
        raise ValueError("a must not be NaN")
    if a <= p:
        return 0.0
    if a > 1.0 or p == 0.0:
        return float("-inf")
    if a == 1.0:
        return math.log(p)
    return (1.0 - a) * (math.log1p(-p) - math.log1p(-a)) + a * (math.log(p) - math.log(a))


def hoeffding_H(a, p):
    return _hoeffding_power(1, a, p)


def _hoeffding_power(n, a, p):
    logv = hoeffding_log_H(a, p)
    return math.exp(n * logv) if logv > float("-inf") else 0.0


def hoeffding_tail_range(n, p, x):
    """Product bound H^n(p + x/n; p) under the range condition at common p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0,1), got {p}")
    return _elementwise(lambda v: _hoeffding_power(n, p + v / n, p), x)


def hoeffding_tail_variance(n, sigma2, b, x):
    """Product bound under the variance condition, rescaled to b = 1.

    Returns H^n((sigma^2 + x/n) / (1 + sigma^2); sigma^2 / (1 + sigma^2)) at
    the rescaled (sigma^2/b^2, x/b); invariant under the b-rescaling by
    construction.
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    s2 = sigma2 / (b * b)
    p = s2 / (1.0 + s2)
    return _elementwise(lambda v: _hoeffding_power(n, (s2 + v / b / n) / (1.0 + s2), p), x)


# --- explicit moment bounds ---------------------------------------------------

def _mgf_log_terms(s2, b, counts, x, h):
    """log of exp(-h x) prod E exp(h theta_k) and its first two h-derivatives.

    Under the exponential tilt at h the atom theta(s2, b) puts mass pi on b;
    the log-MGF's slope and curvature are the tilted mean and variance.
    """
    width = b + s2 / b
    r = np.log(s2 / (b * b)) + h * width
    pi = 0.5 * (1.0 + np.tanh(0.5 * r))
    log_mgf = np.logaddexp(0.0, r) - np.log1p(s2 / (b * b)) - h * s2 / b
    value = counts @ log_mgf - h * x
    slope = counts @ (pi * width - s2 / b) - x
    curvature = counts @ (pi * (1.0 - pi) * width * width)
    return value, slope, curvature


def mgf_bound(theta_specs, x):
    """Infimum over h > 0 of exp(-h x) * prod_k E exp(h theta_k).

    ``theta_specs`` lists per-step (sigma_k^2, b_k) pairs for the dominating
    atoms theta_k. The log-objective is convex in h with slope -x < 0 at
    h = 0+, so its minimizer is bracketed by doubling h and found by
    safeguarded Newton steps on the slope, summing over the distinct
    (sigma^2, b) pairs weighted by their counts. The h -> infinity boundary
    (x at the top of the support) returns the product of the upper-atom
    probabilities directly. When the specs are iid with common (sigma^2, b)
    the result is checked against the closed form
    H^n((sigma^2 + b x/n)/(b^2 + sigma^2); sigma^2/(b^2 + sigma^2)), which the
    infimum attains exactly.
    """
    specs = [(float(s2), float(b)) for s2, b in theta_specs]
    if not specs:
        raise ValueError("need at least one (sigma2, b) spec")
    for s2, b in specs:
        if not (s2 > 0.0 and b > 0.0):
            raise ValueError(f"sigma2 and b must be positive, got ({s2}, {b})")
    if x <= 0.0:
        return 1.0
    top = sum(b for _, b in specs)
    tol = 1e-12 * top
    if x > top + tol:
        return 0.0
    if x >= top - tol:
        log_prod = sum(math.log(s2 / (b * b + s2)) for s2, b in specs)
        return math.exp(log_prod)

    pairs, counts = np.unique(np.array(specs), axis=0, return_counts=True)
    s2, b = pairs[:, 0], pairs[:, 1]
    counts = counts.astype(np.float64)

    def terms(h):
        return _mgf_log_terms(s2, b, counts, x, h)

    lo, hi = 0.0, 1.0 / float(b.max())
    while terms(hi)[1] < 0.0:
        lo, hi = hi, 2.0 * hi
    h = 0.5 * (lo + hi)
    # bisection alone narrows the bracket to rounding within about 60 halvings
    for _ in range(100):
        _, slope, curvature = terms(h)
        if slope < 0.0:
            lo = h
        elif slope > 0.0:
            hi = h
        nxt = 0.5 * (lo + hi)
        if curvature > 0.0 and lo <= h - slope / curvature <= hi:
            nxt = h - slope / curvature
        # done once Newton settles, or once the log-objective's excess over
        # its minimum, which convexity bounds by |slope| (hi - lo), is below
        # rounding
        settled = abs(nxt - h) <= 1e-13 * h or abs(slope) * (hi - lo) <= 1e-16
        h = nxt
        if settled:
            break
    log_min = terms(h)[0]
    numeric = math.exp(log_min)

    bs = {b for _, b in specs}
    s2s = {s2 for s2, _ in specs}
    if len(bs) == 1 and len(s2s) == 1:
        b = bs.pop()
        s2 = s2s.pop()
        closed = hoeffding_tail_variance(len(specs), s2, b, x)
        if closed > 0.0 and abs(log_min - math.log(closed)) > 1e-8:
            raise RuntimeError(
                f"mgf infimum {numeric} disagrees with closed form {closed}"
            )
    return numeric


def fractional_moment_bound(T, s, x):
    """Explicit fractional-moment bound and its hull coarsening.

    For a finite sum distribution ``T`` and s >= 2, returns the pair
    ``(inf_{t<x} E(T - t)_+^s / (x - t)^s,  e^s s^-s Gamma(s+1) B0(x))``
    with the expectation exact over the support. The first never exceeds the
    second; that ordering is enforced on every call.
    """
    if not s >= 2.0:
        raise ValueError(f"s must be at least 2, got {s}")
    S = T.survival()
    optimized = lhs_inf(S, s, x)
    hull_form = rhs_bound(log_concave_hull(S), s, x)
    if optimized > hull_form + MARGIN_TOL:
        raise RuntimeError(
            f"optimized moment bound {optimized} exceeds hull form {hull_form}"
        )
    return optimized, hull_form


# --- exact n = 1 extremal tails ----------------------------------------------


def exact_n1_range(a, b, x):
    """Supremum of P{X >= x} over mean-zero laws supported on [a, b].

    Equals -a/(x - a) for 0 <= x <= b, attained by the two-point law on
    {a, b}; 1 for x <= 0 and 0 for x > b.
    """
    if not (a < 0.0 < b):
        raise ValueError(f"need a < 0 < b, got ({a}, {b})")
    if x <= 0.0:
        return 1.0
    if x > b:
        return 0.0
    return -a / (x - a)


def exact_n1_variance(sigma2, b, x):
    """Supremum of P{X >= x} over mean-zero laws with X <= b, E X^2 <= sigma2.

    Equals sigma2/(x^2 + sigma2) for 0 < x <= b, attained by
    eps(sigma2, x)-type atoms; 1 for x <= 0 and 0 for x > b.
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b}")
    if x <= 0.0:
        return 1.0
    if x > b:
        return 0.0
    return sigma2 / (x * x + sigma2)


# --- reference tail estimates -------------------------------------------------


def poisson_tail_rough(lam, x):
    """Rough Poisson upper-tail bound exp{x - (x + lam) log(1 + x/lam)}."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return math.exp(x - (x + lam) * math.log1p(x / lam))


def paulauskas_g(lam, x):
    """Two-sided Poisson tail envelope, valid for x >= max{lam - 1, 1}.

    g(x) = (lam+x)^(-1/2) (1 + x/lam)^(frac(lam+x) - 1)
           * exp{x - (x + lam) log(1 + x/lam)}.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if x < max(lam - 1.0, 1.0):
        raise ValueError(f"x={x} below the envelope's range max(lam-1, 1)")
    y = lam + x
    frac = y - math.floor(y)
    return y**-0.5 * (1.0 + x / lam) ** (frac - 1.0) * math.exp(x - y * math.log1p(x / lam))


def gaussian_tail_upper(x):
    """Standard normal tail bound phi(x)/x for x > 0."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    return math.exp(-0.5 * x * x) / (x * math.sqrt(2.0 * math.pi))


# --- conservative confidence limit --------------------------------------------


def _confidence_bound(n, mu, sample_mean):
    """Range bound for n differences in [-(1 - mu), mu] at x = n (mu - sample_mean).

    Knot k of the comparison sum at p = 1 - mu sits at k - n p, so x is knot
    n (1 - sample_mean) for every mu, read off the Bin(n, 1 - mu) hull.
    """
    return RANGE_CONST * math.exp(binomial_hull_log_eval(n, 1.0 - mu, n * (1.0 - sample_mean)))


def invert_for_confidence(n, sample_mean, delta):
    """Conservative level-(1 - delta) upper confidence limit for a bounded mean.

    For iid observations in [0, 1] with sample mean ``sample_mean``, returns
    the largest mu for which the range-condition bound on the event "a
    mean-mu sample looks this small" still reaches delta: the bound is
    evaluated for the reflected differences (each in [-(1 - mu), mu], i.e.
    p_k = 1 - mu) at the threshold x = n (mu - sample_mean), and mu is found
    by bisection. Each probe is e P{Bin(n, 1 - mu) >= n (1 - sample_mean)}
    on the hull, O(1) in n. Returns 1 if even mu -> 1 keeps the bound above
    delta.

    For an integer k = n sample_mean < n the probe is e P{Bin(n, mu) <= k},
    so the limit is the Clopper-Pearson upper limit at level delta / e: the
    1 - delta / e quantile of Beta(k + 1, n - k), to the 1e-9 bisection
    tolerance.

    The bound decreases in mu; that monotonicity is spot-checked on every
    call.
    """
    if not 0.0 <= sample_mean <= 1.0:
        raise ValueError(f"sample_mean must lie in [0, 1], got {sample_mean}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if sample_mean >= 1.0:
        return 1.0

    def bound(mu):
        return _confidence_bound(n, mu, sample_mean)

    # mu = 0 and mu = 1 would make Bin(n, 1 - mu) degenerate
    hi = 1.0 - 1e-12
    probes = np.linspace(max(sample_mean, 1e-12), hi, 7)
    vals = [bound(m) for m in probes]
    if any(b - a > 1e-9 for a, b in zip(vals, vals[1:])):
        raise RuntimeError("confidence bound is not decreasing in mu")
    if vals[-1] >= delta:
        return 1.0
    if vals[0] < delta:
        return float(sample_mean)
    lo = sample_mean
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if bound(mid) >= delta:
            lo = mid
        else:
            hi = mid
    return lo
