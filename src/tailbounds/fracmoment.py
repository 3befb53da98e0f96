"""Fractional-moment machinery for step survival functions.

For a step survival B and s > 0, the integral

    I_s(t) = integral_t^inf s (z - t)^(s-1) B(z) dz = E (X - t)_+^s

has an exact segment-by-segment closed form. Minimizing (x - t)^(-s) I_s(t)
over t < x and comparing against e^s s^-s Gamma(s+1) B0(x) is the device that
turns plain Chebyshev-type bounds into hull-dominated ones; ``margin_sweep``
reads the margin between the two sides on a threshold grid. The infimum is
the optimal moment comparison of Pinelis (1998): in u = 1/(x - t) the
objective is piecewise concave for s <= 1 and convex for s >= 1, so it is
solved exactly from its breakpoints and, for s > 1, one root of its
derivative.
"""

import math

import numpy as np

from .distributions import _as_given, _each, _thresholds
from .hull import eval_hull, log_concave_hull

__all__ = [
    "step_integral_moment",
    "lhs_inf",
    "lhs_inf_sweep",
    "rhs_bound",
    "moment_constant",
    "margin_sweep",
    "MARGIN_TOL",
]

# A margin lhs - rhs above this counts as a violation of the inequality.
MARGIN_TOL = 1e-9


def _check_order(s):
    """Refuse a moment order s that is not a positive finite number."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")


def _segment_integral(S, s, ts):
    """Exact I_s(t) for a 1-D array of t values, vectorized over segments.

    Integrating s (z-t)^(s-1) against the left-continuous step B: on
    (-inf, x_1] the survival is 1, on (x_i, x_{i+1}] it equals B(x_{i+1}),
    and it vanishes above the last knot. Summing by parts this is simply
    sum_i p_i (x_i - t)_+^s with p_i the atom masses.
    """
    masses = S.atom_masses
    diffs = np.clip(S.knots[None, :] - ts[..., None], 0.0, None)
    return diffs**s @ masses


def step_integral_moment(S, s, t):
    """Exact ``integral_t^inf s (z - t)^(s-1) B(z) dz`` for s > 0 at a threshold or a 1-D array."""
    _check_order(s)
    # one product per threshold: BLAS may round a row differently beside others
    return _each(lambda v: float(_segment_integral(S, s, np.array([v]))[0]), _thresholds(t, "t"))


def lhs_inf(S, s, x):
    """Infimum over t < x of ``(x - t)^-s * step_integral_moment(S, s, t)``."""
    return lhs_inf_sweep(S, s, x)


def lhs_inf_sweep(S, s, xs):
    """``lhs_inf`` at a threshold or a 1-D array of them, solved exactly.

    With u = 1/(x - t) the objective is R(u) = E(1 + u(X - x))_+^s over
    u > 0, with R -> 1 as u -> 0 (t -> -inf). Its breakpoints are the knots
    x_j < x, where R = I_s(x_j) / (x - x_j)^s is read off one shared table of
    I_s at the knots. For s <= 1, R is concave between breakpoints, so the
    infimum is min(1, R at the breakpoints). For s >= 1, R is convex with
    R'(0) = s(E X - x): the infimum is exactly 1 when x <= E X. Otherwise the
    root of R' lies in the piece where the sign of R' at the breakpoints,
    that of I_s(x_j) - (x - x_j) I_{s-1}(x_j), turns, and a safeguarded
    Newton iteration finds it. R' is linear in u when s = 2, so there the
    first step lands on the closed form u = -sum p a / sum p a^2 over the
    atoms p at offsets a = x_i - x that are active in the piece.
    """
    _check_order(s)
    given = _thresholds(xs, "x")
    xs = given.reshape(-1)
    knots, masses = S.knots, S.atom_masses
    gap = xs[:, None] - knots[None, :]
    below = gap > 0.0
    table = _segment_integral(S, s, knots)
    at_knots = np.full(gap.shape, np.inf)
    at_knots[below] = np.broadcast_to(table, gap.shape)[below] / gap[below] ** s
    out = np.minimum(1.0, at_knots.min(axis=1))
    if s >= 1.0:
        falling = xs > masses @ knots
        out[~falling] = 1.0
        # from the top knot on R only falls, down to its value at the last
        # breakpoint, which is already in out
        solve = falling & (xs < knots[-1])
        if s > 1.0 and np.any(solve):
            out[solve] = np.minimum(out[solve], _convex_min(S, s, gap[solve], table))
    return _as_given(given, out.reshape(given.shape))


def _convex_min(S, s, gap, table):
    """min_u R(u) for s > 1 and E X < x < top knot, one row per threshold.

    ``gap`` holds x - x_j for each threshold x and knot x_j, ``table`` holds
    I_s at the knots.
    """
    masses = S.atom_masses
    below = gap > 0.0
    # sign of R' at each breakpoint; it rises with u, and it is >= 0 at the
    # last breakpoint, where only atoms at or above x remain
    slope = table - gap * _segment_integral(S, s - 1.0, S.knots)
    c = np.minimum((below & (slope < 0.0)).sum(axis=1), below.sum(axis=1) - 1)
    rows = np.arange(gap.shape[0])
    lo = np.where(c > 0, 1.0 / gap[rows, np.maximum(c - 1, 0)], 0.0)
    hi = 1.0 / gap[rows, c]
    a = -gap
    u = 0.5 * (lo + hi)
    best = np.ones(gap.shape[0])
    # bisection alone narrows a bracket to rounding within about 60 halvings
    for _ in range(100):
        w = np.clip(1.0 + u[:, None] * a, 0.0, None)
        live = w > 0.0
        value = (masses * w**s).sum(axis=1)
        best = np.minimum(best, value)
        d1 = (masses * a * w ** (s - 1.0)).sum(axis=1)
        d2 = (s - 1.0) * (masses * a * a * live * np.where(live, w, 1.0) ** (s - 2.0)).sum(axis=1)
        lo = np.where(d1 < 0.0, u, lo)
        hi = np.where(d1 > 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u - d1 / d2
        nxt = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        # done once Newton settles, or once R(u) - min R, which convexity
        # bounds by |R'(u)| (hi - lo), is below rounding; the second covers
        # roots so near u = 0 that rounding in R' hides them
        settled = np.abs(nxt - u) <= 1e-13 * u
        if np.all(settled | (s * np.abs(d1) * (hi - lo) <= 1e-16 * value)):
            break
        u = nxt
    return best


def moment_constant(s):
    """``e^s s^-s Gamma(s+1)``; exact factorials keep integer s bit-tight."""
    _check_order(s)
    if float(s).is_integer() and s <= 20:
        gamma = float(math.factorial(int(s)))
    else:
        gamma = math.exp(math.lgamma(s + 1.0))
    return math.exp(s) * s ** (-s) * gamma


def rhs_bound(h, s, x):
    """Hull side ``moment_constant(s) * B0(x)`` at a threshold or a threshold array."""
    return moment_constant(s) * eval_hull(h, x)


def margin_sweep(S, s_values):
    """Both sides of the inequality at every knot above the first and every midpoint.

    Returns the sorted thresholds ``xs`` and arrays ``lhs``, ``rhs`` with one
    row per moment order in ``s_values``.
    """
    h = log_concave_hull(S)
    xs = np.sort(np.concatenate([S.knots[1:], 0.5 * (S.knots[:-1] + S.knots[1:])]))
    lhs = np.array([lhs_inf_sweep(S, s, xs) for s in s_values])
    rhs = np.array([rhs_bound(h, s, xs) for s in s_values])
    return xs, lhs, rhs
