"""Brute-force and Monte Carlo verification of the bound machinery.

Every extremal claim behind the bounds gets a computational check at desk
scale: exact tail enumeration over small martingale trees, worst cases over
two-point grid martingales by backward induction against the theorem bounds,
the n = 1 worst-constant search, Schur and convex-domination property runs,
convolution log-concavity, product-bound optimality, the hull-necessity
ratio, and the Poisson limit step. One array engine enumerates batches of
two-point trees, breadth-first node arrays, for the dominance suite and the
Schur check. The single most important property: no search, enumeration,
or Monte Carlo run (within its standard-error slack) may ever exceed an
applicable bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DiscreteDist,
    TwoPointDist,
    _as_given,
    _require_finite,
    _thresholds,
    binomial_log_survival,
    poisson_survival,
)
from .bounds import (
    MartingaleConditions,
    hoeffding_H,
    tail_bound_range,
    tail_bound_variance,
)

__all__ = [
    "VerificationError",
    "TreeNode",
    "MartingaleTree",
    "SearchReport",
    "iid_tree",
    "exact_tail",
    "exact_tail_many",
    "worst_case_search",
    "c1_search",
    "schur_check",
    "convex_domination_check",
    "convolution_log_concavity_check",
    "hoeffding_optimality_sequence",
    "hull_necessity_ratio",
    "poisson_limit_check",
    "monte_carlo_tail",
    "iid_grid_sampler",
    "random_centered_dist_in_range",
    "random_centered_dist_bounded",
    "ceil_safe",
]

_MAX_LEAVES = 1_000_000


class VerificationError(RuntimeError):
    """A claimed property failed a computational check."""


def ceil_safe(y):
    """Smallest integer >= y, forgiving float noise up to 1e-9 above an integer."""
    return math.ceil(y - 1e-9)


def _check_law(values, probs):
    """Raise unless each row of the last axis is a centered law.

    Masses are >= 0 and sum to 1 within 1e-12; |mean| <= 1e-12 max(1, max|v|).
    """
    if not ((probs >= 0).all() and (np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12).all()):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    scale = np.maximum(1.0, np.abs(values).max(axis=-1))
    if not (np.abs((values * probs).sum(axis=-1)) <= 1e-12 * scale).all():
        raise ValueError("conditional mean must vanish (martingale differences)")


@dataclass(frozen=True, eq=False)
class TreeNode:
    """Conditional law of the next difference given the history at this node."""

    values: np.ndarray
    probs: np.ndarray
    children: tuple | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.shape != probs.shape or values.ndim != 1 or values.size == 0:
            raise ValueError("values and probs must be matching nonempty 1-D arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        _check_law(values, probs)
        kids = self.children
        if kids is not None and (len(kids) != values.size or not all(isinstance(c, TreeNode) for c in kids)):
            raise ValueError("need one TreeNode child per support point")

    @property
    def second_moment(self):
        return float((self.values**2) @ self.probs)


@dataclass(frozen=True, eq=False)
class MartingaleTree:
    """Depth-n tree of conditional difference laws, optionally condition-tagged.

    The tree is walked once, at construction: every node is checked against
    the depth and the condition, and the leaf path sums and log-probabilities
    are stored for the tail queries.
    """

    root: TreeNode
    depth: int
    condition: MartingaleConditions | None = None
    _sums: np.ndarray = field(init=False, repr=False)
    _logps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.depth, (int, np.integer)) or self.depth < 1:
            raise ValueError(f"depth must be an integer of at least 1, got {self.depth!r}")
        if self.condition is not None and self.condition.n != self.depth:
            raise ValueError(f"condition has n={self.condition.n} but the tree has depth {self.depth}")
        # paths grow level by level, root first; paths that reach the same node
        # object (iid_tree shares one node per level) grow as one array
        level = [(self.root, np.zeros(1), np.zeros(1))]
        with np.errstate(divide="ignore"):
            for k in range(self.depth):
                last = k == self.depth - 1
                for node, _, _ in level:
                    self._check_condition(node, k)
                    if node.children is None and not last:
                        raise ValueError("all leaves must sit at the stated depth")
                    if node.children is not None and last:
                        raise ValueError("tree deeper than stated depth")
                # refuse before growing the paths past the cap
                if sum(sums.size * node.values.size for node, sums, _ in level) > _MAX_LEAVES:
                    raise ValueError(f"tree has over {_MAX_LEAVES} leaves")
                if last:
                    break
                reached = {}
                for node, sums, logps in level:
                    for child, v, lp in zip(node.children, node.values, np.log(node.probs)):
                        _, child_sums, child_logps = reached.setdefault(id(child), (child, [], []))
                        child_sums.append(sums + v)
                        child_logps.append(logps + lp)
                level = [(c, np.concatenate(ss), np.concatenate(ls)) for c, ss, ls in reached.values()]
            sums = [(s[:, None] + node.values).ravel() for node, s, _ in level]
            logps = [(ls[:, None] + np.log(node.probs)).ravel() for node, _, ls in level]
        object.__setattr__(self, "_sums", np.concatenate(sums))
        object.__setattr__(self, "_logps", np.concatenate(logps))

    def _check_condition(self, node, k):
        cond = self.condition
        if cond is None:
            return
        tol = 1e-12
        if cond.variant in ("one_sided_variance", "per_k"):
            b = cond.b if cond.variant == "one_sided_variance" else cond.bs[k]
            if np.any(node.values > b * (1 + tol) + tol):
                raise ValueError(f"difference above b at depth {k + 1}")
            if node.second_moment > cond.sigma2s[k] * (1 + tol) + tol:
                raise ValueError(f"conditional variance above cap at depth {k + 1}")
        elif cond.variant == "range":
            p = cond.ps[k]
            if np.any(node.values < -p - tol) or np.any(node.values > 1 - p + tol):
                raise ValueError(f"difference outside [-p, 1-p] at depth {k + 1}")
        elif cond.variant == "symmetric":
            if np.any(np.abs(node.values) > cond.bs[k] * (1 + tol) + tol):
                raise ValueError(f"|difference| above cap at depth {k + 1}")


def iid_tree(d, n, condition=None):
    """Tree for a sum of n iid copies of a two-point or discrete law."""
    if isinstance(d, TwoPointDist):
        d = DiscreteDist.from_two_point(d)
    node = TreeNode(d.support, d.probs)
    for _ in range(n - 1):
        node = TreeNode(d.support, d.probs, children=(node,) * d.support.size)
    return MartingaleTree(root=node, depth=n, condition=condition)


def _path_tails(sums, logps, xs):
    """P{sum >= x} at each threshold from leaf path sums and log-probabilities.

    ``sums`` and ``logps`` have shape (..., L), one row of paths per tree;
    the thresholds ``xs`` (X,) are shared by every tree and the result has
    shape (..., X). Thresholds are sorted in among the paths, ahead of equal
    path sums, with no mass of their own, so one reverse log-sum over the
    merged order reads each tail at its threshold's position.
    """
    xs = np.atleast_1d(_thresholds(xs, "x"))
    batch = sums.shape[:-1]
    keys = np.concatenate([np.broadcast_to(xs, batch + xs.shape), sums], axis=-1)
    masses = np.concatenate([np.full(batch + xs.shape, -np.inf), logps], axis=-1)
    order = np.argsort(keys, axis=-1, kind="stable")
    sorted_masses = np.take_along_axis(masses, order, axis=-1)
    tails = np.logaddexp.accumulate(sorted_masses[..., ::-1], axis=-1)[..., ::-1]
    unsorted = np.empty_like(tails)
    np.put_along_axis(unsorted, order, tails, axis=-1)
    return np.exp(unsorted[..., : xs.size])


def exact_tail_many(tree, xs):
    """Exact P{M_n >= x} at a threshold (as a float) or a 1-D array of them, from the leaf paths."""
    return _as_given(xs, _path_tails(tree._sums, tree._logps, xs).reshape(np.shape(xs)))


def exact_tail(tree, x):
    """Exact P{M_n >= x} by leaf-path enumeration in log space."""
    return exact_tail_many(tree, x)


# --- worst-case search ---------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a worst-case tail search against a theorem bound."""

    best_tail: float
    bound_value: float
    params: dict
    evaluations: int

    @property
    def ratio(self):
        """best_tail / bound_value; 0 for a zero tail, inf for a positive tail over a zero bound."""
        if self.bound_value > 0:
            return self.best_tail / self.bound_value
        return math.inf if self.best_tail > 0 else 0.0


def _node_levels(n):
    """Level of each node of a depth-n binary tree in breadth-first order."""
    return np.floor(np.log2(np.arange(1, 2**n))).astype(int)


def _two_point_nodes(cond, scales):
    """Extremal two-point node laws of binary trees, from per-node scales.

    ``scales`` has shape (..., 2**n - 1, 2): one row per node, breadth-first
    (1, 2, 4 nodes per level; node i's children are 2i + 1 and 2i + 2).
    Under the range condition a node at level k sits on the range atom xi
    ``{-p_k su, (1 - p_k) sv}``; under the variance condition on the atom
    theta ``{-s2/h, h}`` with ``s2 = sigma2_k ss`` and ``h = b sh``. Returns
    node values and the upper atom's probability, (..., 2**n - 1, 2) and
    (..., 2**n - 1).
    """
    level = _node_levels(cond.n)
    s_lo, s_hi = scales[..., 0], scales[..., 1]
    if cond.variant == "range":
        u = -cond.ps[level] * s_lo
        v = (1.0 - cond.ps[level]) * s_hi
        return np.stack([u, v], axis=-1), -u / (v - u)
    s2 = cond.sigma2s[level] * s_lo
    h = cond.b * s_hi
    return np.stack([-s2 / h, h], axis=-1), s2 / (h * h + s2)


def _two_point_paths(values, q_hi):
    """Path sums and log-probabilities of binary trees in breadth-first form.

    ``values`` (..., 2**n - 1, 2) holds each node's lower and upper atom and
    ``q_hi`` (..., 2**n - 1) the upper atom's probability. Every node must be
    a law (q_hi in [0, 1]) with conditional mean 0, as ``TreeNode`` demands.
    Returns two arrays of shape (..., 2**n), leaves in left-to-right order.
    """
    probs = np.stack([1.0 - q_hi, q_hi], axis=-1)
    _check_law(values, probs)
    n = int(np.log2(values.shape[-2] + 1))
    leaf = np.arange(2**n)
    k = np.arange(n)[:, None]
    node = 2**k - 1 + (leaf >> (n - k))
    branch = (leaf >> (n - 1 - k)) & 1
    with np.errstate(divide="ignore"):
        logps = np.log(probs)
    return values[..., node, branch].sum(axis=-2), logps[..., node, branch].sum(axis=-2)


_GRID = 40
_MAX_CELLS = 10**8


def _grid_steps(y):
    """Whole grid steps in ``y``, forgiving float noise up to 1e-12 relative."""
    return np.floor(y * (1.0 + 1e-12))


def worst_case_search(cond, x):
    """Supremum of P{M_n >= x} over martingales whose steps are two-point grid laws.

    Backward induction on the states i h, h = s/G with s = 1 (range) or b
    (variance) and G = ``_GRID``: V = 1 at or above X = ceil(x/h) and 0 below
    the window [X - sum top_k, X], from which no path reaches X. Step k keeps
    the best of the zero step and each admissible law {-u h, v h}: v h <=
    1 - p_k and u h <= p_k, or v h <= b and u v h^2 <= sigma2_k. Of the u
    that land below the window, where V is 0, only the deepest can be best.
    Exact on the grid, so a lower bound on the true supremum. ``evaluations``
    counts (state, law) cells; a pass over ``_MAX_CELLS`` is refused up front.
    """
    if cond.variant == "range":
        bound, h = tail_bound_range(cond, x).value, 1.0 / _GRID
    elif cond.variant == "one_sided_variance":
        bound, h = tail_bound_variance(cond, x).value, cond.b / _GRID
    else:
        raise ValueError("search supports the range and one_sided_variance conditions")
    steps = []  # per step: the up offsets v and the deepest down offset of each
    for k in range(cond.n):
        if cond.variant == "range":
            v = np.arange(1.0, _grid_steps((1.0 - cond.ps[k]) / h) + 1.0)
            deep = np.full(v.shape, _grid_steps(cond.ps[k] / h))
        else:
            v = np.arange(1.0, _GRID + 1.0)
            deep = _grid_steps(cond.sigma2s[k] / (v * h * h))
        steps.append((v[deep >= 1], deep[deep >= 1]))
    top = sum(v.size for v, _ in steps)
    X = ceil_safe(min(max(x / h, -1.0), top + 1.0))
    best, cells = (1.0 if X <= 0 else 0.0), 0
    if 0 < X <= top:
        cells = int((top + 1) * sum(np.minimum(deep, top).sum() + (deep > top).sum() for _, deep in steps))
        if cells > _MAX_CELLS:
            raise ValueError(f"the induction would evaluate {cells} cells, over the cap of {_MAX_CELLS}")
        V = np.zeros(top + 1)
        V[-1] = 1.0
        for vs, deeps in reversed(steps):
            # rows[r] is V shifted by r - top states, 0 below the window and 1 above
            rows = np.lib.stride_tricks.sliding_window_view(
                np.concatenate([np.zeros(top), V, np.ones(_GRID)]), top + 1
            )
            new = V.copy()
            for v, deep in zip(vs, deeps):
                up = rows[top + int(v)]
                u = np.arange(1.0, min(deep, top) + 1.0)[:, None]
                mix = (u * up + v * rows[top - u.size : top][::-1]) / (u + v)
                np.maximum(new, mix.max(axis=0), out=new)
                if deep > top:
                    np.maximum(new, deep * up / (deep + v), out=new)
            V = new
        best = float(V[top - X])
    report = SearchReport(best, bound, {"x": x, "grid_step": h}, cells)
    if report.ratio > 1.0 + 1e-9:
        raise VerificationError(f"search tail {best} exceeds bound {bound} (ratio {report.ratio})")
    return report


# --- the n = 1 worst constant ---------------------------------------------------


def _c1_ratio(sigma2, x):
    """Exact n=1 tail sup over the hull of the single atom eps(sigma2, 1)."""
    neg_log_hull = (x + sigma2) / (1.0 + sigma2) * np.log((1.0 + sigma2) / sigma2)
    return sigma2 / (x * x + sigma2) * np.exp(neg_log_hull)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi):
    """Golden-section minimum ``(x, f(x))`` of a unimodal ``f`` on [lo, hi].

    The bracket shrinks until its width drops below 1e-12 max(1, |lo|, |hi|).
    """
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _c1_best_x(sigma2):
    """Maximizer over x in (0, 1] of the ratio at fixed sigma2.

    The ratio's log has slope -2x/(x^2 + sigma2) + L/(1 + sigma2) with
    L = log((1 + sigma2)/sigma2); the slope first vanishes at the smaller root
    of L x^2 - 2(1 + sigma2) x + L sigma2 = 0, written here in the
    cancellation-free form L sigma2 / ((1 + sigma2) + sqrt(disc)). Without a
    real root the ratio rises all the way to x = 1.
    """
    L = math.log((1.0 + sigma2) / sigma2)
    disc = (1.0 + sigma2) ** 2 - L * L * sigma2
    if disc < 0.0:
        return 1.0
    return min(1.0, L * sigma2 / ((1.0 + sigma2) + math.sqrt(disc)))


def c1_search():
    """Supremum of the n = 1 ratio: extremal tail over bound-hull value.

    For each sigma^2 the best x in (0, 1] solves a quadratic, which leaves a
    unimodal profile in log sigma^2, maximized by golden section over
    [log 1e-4, log 1e4]. The ratio tends to 1 at both sigma^2 extremes, so
    the supremum is interior and the domain truncation is safe.
    """

    def neg_profile(log_s2):
        s2 = math.exp(log_s2)
        return -float(_c1_ratio(s2, _c1_best_x(s2)))

    _, value = _golden_min(neg_profile, math.log(1e-4), math.log(1e4))
    return -value


# --- majorization and convex domination ----------------------------------------


def _schur_kernel(xs, t, slack):
    """``schur_check`` verdicts for rows xs (B, n) and thresholds t (B,).

    Node row 0 holds theta(x_k, 1) at every node of level k, row 1
    theta(mean, 1) at every node: one (B, 2, 2**n - 1, 2) engine call.
    """
    x = np.stack([xs, xs.mean(axis=-1, keepdims=True).repeat(xs.shape[-1], axis=-1)], axis=-2)
    x = x[..., _node_levels(xs.shape[-1])]
    sums, logps = _two_point_paths(np.stack([-x, np.ones_like(x)], axis=-1), x / (1.0 + x))
    e = np.sum(np.exp(logps) * np.maximum(sums - t[:, None, None], 0.0) ** 2, axis=-1)
    return e[:, 0] <= e[:, 1] + slack


def schur_check(xs, t, slack=1e-10):
    """Spreading the per-step variances can only lower E(sum - t)_+^2.

    Compares the non-iid sum T_n of atoms theta(x_k, 1) = {-x_k, 1} with the
    iid sum S_n at the mean parameter, both enumerated exactly as two-point
    trees. A zero x_k is a node whose upper atom has probability 0. Equality
    holds when all x_k agree.
    """
    xs = np.asarray(xs, dtype=np.float64)
    t = float(t)
    if xs.ndim != 1 or xs.size == 0 or not np.all(np.isfinite(xs)) or not math.isfinite(t):
        raise ValueError("need a nonempty 1-D array of finite parameters and a finite t")
    if xs.size > 8:
        raise ValueError("limited to n <= 8 (exact enumeration)")
    if np.any(xs < 0.0):
        raise ValueError("parameters must be nonnegative")
    return bool(_schur_kernel(xs[None], np.array([t]), slack)[0])


def _domination_kernel(family, support, probs, first, b, slack):
    """``convex_domination_check`` verdicts for a batch of laws.

    ``support`` and ``probs`` (B, K) hold one law per row, ``first`` (B,) its
    a (family ``"convex"``) or sigma2 and ``b`` (B,) its b. A centered law's
    support brackets 0, so slots with value 0 and mass 0 pad a row inertly.
    """
    if family not in ("convex", "moment", "symmetric"):
        raise ValueError(f"unknown family {family!r}")
    _check_law(support, probs)
    if family == "convex":
        a = first
        if not ((a < 0.0) & (b > 0.0)).all():
            raise ValueError("need a < 0 < b")
        if (support < a[:, None] - 1e-12).any() or (support > b[:, None] + 1e-12).any():
            raise ValueError("support must lie inside [a, b]")
        v_lo, v_hi, q = a, b, -a / (b - a)  # xi(a, b)
        ts = np.linspace(a - 0.5 * (b - a), b + 0.25 * (b - a), 41).T
        powers, hs = np.array([1.0]), np.array([])
    else:
        sigma2 = first
        if not ((sigma2 > 0.0) & (b > 0.0)).all():
            raise ValueError("need sigma2 > 0 and b > 0")
        if (support > b[:, None] + 1e-12).any():
            raise ValueError("support must lie below b")
        if ((probs * support**2).sum(axis=-1) > sigma2 * (1 + 1e-12) + 1e-15).any():
            raise ValueError("second moment above sigma2")
        # theta(sigma2, b), or the symmetric theta(a^2, a) with a = max{sigma, b}
        h = b if family == "moment" else np.maximum(np.sqrt(sigma2), b)
        s2 = sigma2 if family == "moment" else h * h
        v_lo, v_hi, q = -s2 / h, h, s2 / (h * h + s2)
        lo = np.minimum(support.min(axis=-1), v_lo)
        hi = np.maximum(support.max(axis=-1), v_hi)
        width = np.maximum(hi - lo, 1e-6)
        ts = np.linspace(lo - 0.5 * width, hi + 0.25 * width, 21).T
        powers, hs = np.array([2.0, 2.5, 3.0]), np.array([0.1, 0.5, 1.0, 2.0, 4.0])

    def expect(z, w):
        # E (Z - t)_+^s (B, powers, T) and E exp(h Z) (B, hs) at points z, masses w
        pos = np.maximum(z[:, None, :] - ts[:, :, None], 0.0)
        plus = np.einsum("bstp,bp->bst", pos[:, None] ** powers[:, None, None], w)
        return plus, np.einsum("bhp,bp->bh", np.exp(hs[:, None] * z[:, None, :]), w)

    plus_X, exp_X = expect(support, probs)
    plus_atom, exp_atom = expect(np.array([v_lo, v_hi]).T, np.array([1.0 - q, q]).T)
    # the relative allowance applies to the exponential rows only
    beaten = (plus_X > plus_atom + slack).any(axis=(1, 2))
    return ~(beaten | (exp_X > exp_atom * (1 + 1e-12) + slack).any(axis=1))


def convex_domination_check(family, X, params, slack=1e-10):
    """Domination of E f(X) by the matching extremal two-point atom.

    family ``"convex"``: X centered on [a, b], comparison xi(a, b), tested on
    the hinge functions (z - t)_+ over a t grid. family ``"moment"``: X <= b
    with E X^2 <= sigma2, comparison theta(sigma2, b). family ``"symmetric"``:
    same conditions, symmetric comparison theta(a^2, a) with a = max{sigma, b}.
    The moment families are tested on (z - t)_+^s for s in {2, 2.5, 3} and on
    exp(h z). Precondition violations raise; the check returns whether every
    test function is dominated.
    """
    first, b = np.array([[params["a" if family == "convex" else "sigma2"]], [params["b"]]], dtype=np.float64)
    return bool(_domination_kernel(family, X.support[None], X.probs[None], first, b, slack)[0])


# --- log-concavity of convolutions ----------------------------------------------


def _is_log_concave_seq(p):
    p = np.asarray(p, dtype=np.float64)
    pos = np.nonzero(p > 0)[0]
    if pos.size == 0:
        return False
    if np.any(p[pos[0] : pos[-1] + 1] <= 0):
        return False  # interior zero breaks log-concavity
    q = p[pos[0] : pos[-1] + 1]
    return bool(np.all(q[1:-1] ** 2 >= q[:-2] * q[2:] * (1 - 1e-12)))


def convolution_log_concavity_check(p, q):
    """Convolving log-concave integer sequences preserves log-concavity.

    Both inputs must already be log-concave (that is the lemma's hypothesis);
    the check passes when the convolution and the suffix-sum sequences are
    log-concave within a relative tolerance of 1e-12.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("sequences must be nonnegative")
    if not (_is_log_concave_seq(p) and _is_log_concave_seq(q)):
        raise ValueError("inputs must be log-concave sequences")
    conv = np.convolve(p, q)
    tails = np.cumsum(conv[::-1])[::-1]
    tails_p = np.cumsum(p[::-1])[::-1]
    return (
        _is_log_concave_seq(conv)
        and _is_log_concave_seq(tails)
        and _is_log_concave_seq(tails_p)
    )


# --- optimality of the product bound ---------------------------------------------


def hoeffding_optimality_sequence(p, z, n_list):
    """Normalized log binomial tails against the product-bound exponent.

    Returns ``(g, -f)`` with ``g[i] = (1/n_i) log P{Bin(n_i, p) >= z n_i}``
    and f the large-deviation rate. Checks that every g stays below -f, that
    the gap |g + f| shrinks along n_list (to under 1e-2 once n reaches 1e5),
    and that exp(-f) reproduces the Hoeffding kernel H(z; p) to 1e-12.
    """
    if not 0.0 < p < z < 1.0:
        raise ValueError(f"need 0 < p < z < 1, got p={p}, z={z}")
    f = z * math.log(z / p) + (1.0 - z) * math.log((1.0 - z) / (1.0 - p))
    if abs(math.exp(-f) - hoeffding_H(z, p)) > 1e-12 * hoeffding_H(z, p):
        raise VerificationError("rate function does not reproduce the product kernel")
    gs = []
    for n in n_list:
        n = int(n)
        k = ceil_safe(z * n)
        gs.append(binomial_log_survival(n, p, k) / n)
    gs = np.array(gs)
    if np.any(gs > -f + 1e-12):
        raise VerificationError("a finite-n tail exceeded the product bound")
    gaps = np.abs(gs + f)
    if np.any(np.diff(gaps) >= 0):
        raise VerificationError("tail gaps are not decreasing along n_list")
    if max(n_list) >= 10**5 and gaps[int(np.argmax(n_list))] >= 1e-2:
        raise VerificationError(f"gap at n={max(n_list)} is {gaps[-1]}, expected < 1e-2")
    return gs, -f


def hull_necessity_ratio(sigma2):
    """Ratio P{X >= 0} / P{eps >= 0} for X = 0 against eps(sigma2, 1).

    Equals (1 + sigma2)/sigma2 and blows up as sigma2 -> 0: the raw survival
    cannot replace its hull in the bounds.
    """
    _require_finite(sigma2=sigma2)
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    return (1.0 + sigma2) / sigma2


# --- the Poisson limit step -------------------------------------------------------


def poisson_limit_check(n, sigma2_total, b, m_list, x):
    """Gap between padded-sum binomial tails and their Poisson limit.

    Padding the martingale with m zero differences turns the comparison sum
    into a Binomial(n+m, lambda/(n+m+lambda)) tail at the transformed
    threshold (lambda + x/b)/(1 + lambda/(n+m)); as m grows this converges to
    the Poisson(lambda) tail at lambda + x/b. Returns the gaps and checks
    they decrease, ending below 5e-3 once m reaches 1e4.
    """
    lam = sigma2_total / (b * b)
    target = poisson_survival(lam, ceil_safe(lam + x / b))
    gaps = []
    for m in m_list:
        total = int(n) + int(m)
        p = lam / (total + lam)
        tau = (lam + x / b) / (1.0 + lam / total)
        value = math.exp(binomial_log_survival(total, p, ceil_safe(tau)))
        gaps.append(abs(value - target))
    gaps = np.array(gaps)
    if np.any(np.diff(gaps) >= 0):
        raise VerificationError(f"gaps {gaps.tolist()} are not decreasing")
    if max(m_list) >= 10**4 and gaps[int(np.argmax(m_list))] >= 5e-3:
        raise VerificationError(f"final gap {gaps[-1]} is not below 5e-3")
    return gaps


# --- Monte Carlo ------------------------------------------------------------------


def monte_carlo_tail(sampler, trials, x, seed):
    """Empirical P{M_n >= x} with its binomial standard error.

    ``sampler(rng, size)`` must return ``size`` independent martingale sums;
    the run is deterministic given the seed.
    """
    trials = int(trials)
    if trials < 10**4:
        raise ValueError("need at least 1e4 trials")
    _thresholds(x, "x")
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000  # sums per sampler call
    for start in range(0, trials, chunk):
        hits += int(np.count_nonzero(sampler(rng, min(chunk, trials - start)) >= x))
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, se


def iid_grid_sampler(values, n):
    """Sampler of sums of n iid uniform draws from a finite grid."""
    values = np.asarray(values, dtype=np.float64)
    n = int(n)

    def sampler(rng, size):
        return values[rng.integers(0, values.size, size=(size, n))].sum(axis=1)

    return sampler


# --- random instance generators ----------------------------------------------------


def _random_points(rng, k_max, lo, hi, gap):
    """2 to k_max sorted uniform points in [lo, hi], less any within gap of its left neighbour."""
    pts = np.sort(rng.uniform(lo, hi, int(rng.integers(2, k_max + 1))))
    return pts[np.concatenate(([True], np.diff(pts) > gap))]


def _random_centered_law(rng, family, first, b):
    """Random mean-zero law on at most 7 points, as a (2, 7) row of support and masses.

    Slots past the law hold value 0 and mass 0. For ``"convex"`` the support
    lies in [a, b], a = ``first``; otherwise below b, with second moment
    below sigma2 = ``first``.
    """
    convex = family == "convex"
    lo = first if convex else -3.0 * b
    # keep points apart so the support stays valid after centering
    pts = _random_points(rng, 7, lo, b, 1e-6 * max(1.0, abs(lo), abs(b)))
    probs = rng.dirichlet(np.ones(pts.size))
    shifted = pts - float(probs @ pts)
    c = min(1.0, b / shifted[-1]) if shifted[-1] > 0 else 1.0
    if convex:
        if shifted[0] < 0:
            c = min(c, first / shifted[0])
    else:
        second = float(probs @ shifted**2)
        if second > 0:
            c = min(c, math.sqrt(first / second))
    row = np.zeros((2, 7))
    row[:, : pts.size] = shifted * c, probs
    return row


def random_centered_dist_in_range(rng, a, b):
    """Random mean-zero law supported inside [a, b] (a < 0 < b).

    Points and flat-simplex probabilities are drawn, the mean is shifted out,
    and the support is shrunk back into the box, so the precondition holds
    exactly.
    """
    return DiscreteDist.from_probs(*_random_centered_law(rng, "convex", a, b))


def random_centered_dist_bounded(rng, sigma2, b):
    """Random mean-zero law with support below b and second moment below sigma2."""
    return DiscreteDist.from_probs(*_random_centered_law(rng, "moment", sigma2, b))
