"""Log-concave hulls and linear envelopes of discrete survival functions.

The hull of a step survival B is the minimal function B0 >= B whose negative
logarithm is convex. On the knots this is the lower convex hull of the points
(x_i, -log B(x_i)), which a single monotone-chain sweep produces in O(m) and
which is kept on the survival it was built for; between knots it is the
log-linear interpolation, 1 left of the first knot and 0 strictly right of
the last. Poisson and binomial survivals are log-concave, so their hulls can
also skip the materialized knots and be evaluated lazily: one reader,
``_lattice_log_point``, holds the edge rules of both lattices and reads a
point from the tails at the integers next to it.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import (
    MERGE_REL_TOL, _as_given, _each, _thresholds, binomial_log_survival, poisson_log_survival,
)

__all__ = [
    "LogLinearHull",
    "log_concave_hull",
    "eval_hull",
    "log_eval_hull",
    "linear_envelope_eval",
    "is_log_concave_discrete",
    "poisson_hull_eval",
    "poisson_hull_log_eval",
    "binomial_hull_log_eval",
]

# Absolute slack on -log values for convexity comparisons; collinear knots are
# kept on the hull (evaluation is identical either way).
_CONVEXITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class LogLinearHull:
    """Convex knots ``(knots, neg_log)``, ``neg_log = -log B0``; checked once, not to be changed in place."""

    knots: np.ndarray
    neg_log: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=np.float64)
        neg_log = np.ascontiguousarray(self.neg_log, dtype=np.float64)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "neg_log", neg_log)
        if knots.ndim != 1 or knots.shape != neg_log.shape or knots.size == 0:
            raise ValueError("knots and neg_log must be matching nonempty 1-D arrays")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("hull knots must be strictly increasing")
        if neg_log[0] != 0.0:
            raise ValueError("hull must start where the survival equals 1")
        if not np.all(np.isfinite(neg_log)):
            raise ValueError("hull values must be finite")
        # the sweep's own pop test, so every hull the sweep builds passes
        if np.any(_pops(knots[:-2], neg_log[:-2], knots[1:-1], neg_log[1:-1], knots[2:], neg_log[2:])):
            raise ValueError("hull must be convex: a knot sits above its neighbours' chord")

    @property
    def values(self):
        return np.exp(-self.neg_log)


def _pops(ox, oy, ax, ay, x, y):
    """Whether the chain pops (ax, ay) when (x, y) arrives after (ox, oy).

    It pops while the middle point sits above the chord of its neighbours by
    more than the convexity slack. Scalars or arrays of triples alike.
    """
    cross = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
    # cross = -(distance of the middle point above chord) * (x - ox)
    return cross < -_CONVEXITY_SLACK * (x - ox)


def log_concave_hull(S):
    """Lower convex hull of ``(knot, -log B(knot))`` by a monotone-chain sweep.

    The point set is already sorted by x, so one pass suffices: a point is
    popped while it sits above the chord of its neighbours by more than the
    convexity slack. Up to the first consecutive triple that fails this test
    the sweep pops nothing, so one vectorized pass of the same test over all
    triples finds that prefix and the loop sweeps only the knots after it;
    on a log-concave survival, such as every binomial sum, the loop does not
    run. The knots are the ones the full loop keeps, bit for bit.

    The hull is kept in ``S.__dict__`` (``S`` is frozen), so a second call
    returns the same object; ``S``'s arrays must not be changed in place.
    """
    if "_hull" in S.__dict__:
        return S.__dict__["_hull"]
    xs = S.knots
    ys = -S.log_values
    fails = np.flatnonzero(_pops(xs[:-2], ys[:-2], xs[1:-1], ys[1:-1], xs[2:], ys[2:]))
    start = int(fails[0]) + 2 if fails.size else xs.size
    keep_x = xs[:start].tolist()
    keep_y = ys[:start].tolist()
    for x, y in zip(xs[start:].tolist(), ys[start:].tolist()):
        while len(keep_x) >= 2 and _pops(keep_x[-2], keep_y[-2], keep_x[-1], keep_y[-1], x, y):
            keep_x.pop()
            keep_y.pop()
        keep_x.append(x)
        keep_y.append(y)
    h = S.__dict__["_hull"] = LogLinearHull(np.array(keep_x), np.array(keep_y))
    return h


def log_eval_hull(h, x):
    """log B0(x) by ``np.interp``: 0 left of the first knot, -inf strictly right of the last."""
    x = _thresholds(x, "x")
    # not the default left: a swept hull's neg_log[0] is -0.0, and log B0 reads -0.0 there
    return _as_given(x, -np.interp(x, h.knots, h.neg_log, left=0.0, right=np.inf))


def eval_hull(h, x):
    """B0(x) = exp of the interpolated -log B0; arrays and scalars agree bit for bit."""
    return _as_given(x, np.exp(log_eval_hull(h, x)))


def linear_envelope_eval(S, x):
    """Straight-line interpolation of B between adjacent jump points.

    Equals B at the knots; ``np.interp``'s edges read 1 left of the first
    knot and 0 strictly right of the last. Always >= the log-linear hull.
    """
    x = _thresholds(x, "x")
    return _as_given(x, np.interp(x, S.knots, S.values, left=1.0, right=0.0))


def _on_hull(S, h):
    """Per-knot mask: whether each knot of ``S`` lies on its hull ``h``, up to the convexity slack."""
    return (-S.log_values) - np.interp(S.knots, h.knots, h.neg_log) <= _CONVEXITY_SLACK


def is_log_concave_discrete(S):
    """Whether every knot of ``S`` lies on its own lower convex hull, up to the convexity slack.

    This is discrete log-concavity: -log B restricted to the jump points is
    convex (equivalently B(x_i)^2 >= B(x_{i-1}) B(x_{i+1}) on equally spaced
    knots).
    """
    return bool(np.all(_on_hull(S, log_concave_hull(S))))


def _lattice_log_point(tail, top, y):
    """log hull at one point ``y`` of a log-concave survival on the integers 0..``top``.

    ``tail(k)`` is the log survival at an integer k, and the hull interpolates
    it log-linearly between integers; ``top`` may be inf. NaN is refused,
    y <= 0 reads 0, and y = inf or y past the top by more than
    MERGE_REL_TOL * max(1, top) reads -inf; a y within that tolerance above a
    finite top is a rounded top knot and reads as the top (conservative).
    """
    if math.isnan(y):
        raise ValueError("threshold y must not be NaN")
    if y == math.inf or y - top > MERGE_REL_TOL * max(1, top):
        return -math.inf
    if y > top:
        y = float(top)
    if y <= 0.0:
        return 0.0
    k0 = math.floor(y)
    if y == k0:
        return tail(k0)
    t = y - k0
    return (1.0 - t) * tail(k0) + t * tail(k0 + 1)


def poisson_hull_log_eval(lam, y):
    """log of the Poisson(lam) hull survival at a point ``y`` or a 1-D array of them.

    One ``poisson_log_survival`` call reads floor(y) and floor(y) + 1 of every
    point, and ``_lattice_log_point`` reads each point off them.
    """
    ys = _thresholds(y, "y")
    k0 = np.floor(ys).ravel()
    ks = np.concatenate((k0, k0 + 1.0))
    tails = dict(zip(ks.tolist(), poisson_log_survival(lam, ks).tolist()))
    return _each(partial(_lattice_log_point, tails.__getitem__, math.inf), ys)


def poisson_hull_eval(lam, y):
    """Poisson(lam) hull survival at ``y``, a point or a 1-D array of them."""
    return _each(math.exp, poisson_hull_log_eval(lam, y))


def binomial_hull_log_eval(n, p, y):
    """log of the Bin(n, p) hull survival at a knot coordinate ``y`` or a 1-D array of them.

    ``_lattice_log_point`` reads each point from at most two
    ``binomial_log_survival`` tails, O(1) in n and in Python floats.
    """
    return _each(partial(_lattice_log_point, partial(binomial_log_survival, n, p), n), y)
