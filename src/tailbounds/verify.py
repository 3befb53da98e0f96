"""Brute-force and Monte Carlo verification of the bound machinery.

Every extremal claim behind the bounds gets a computational check at desk
scale: exact tail enumeration over small martingale trees, worst-case
searches against the theorem bounds, the n = 1 worst-constant search, Schur
and convex-domination property runs, convolution log-concavity, product-bound
optimality, the hull-necessity ratio, and the Poisson limit step. The single
most important property: no search, enumeration, or Monte Carlo run (within
its standard-error slack) may ever exceed an applicable bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteDist,
    TwoPointDist,
    binomial_log_survival,
    convolve,
    iid_sum_dist,
    poisson_survival,
    two_point_from_range,
    two_point_from_variance,
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


def ceil_safe(y, slack=1e-9):
    """Smallest integer >= y, forgiving float noise just above an integer."""
    return math.ceil(y - slack)


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
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        scale = max(1.0, float(np.max(np.abs(values))))
        if abs(float(values @ probs)) > 1e-12 * scale:
            raise ValueError("conditional mean must vanish (martingale differences)")
        if self.children is not None and len(self.children) != values.size:
            raise ValueError("need one child per support point")

    @property
    def second_moment(self):
        return float((self.values**2) @ self.probs)


@dataclass(frozen=True, eq=False)
class MartingaleTree:
    """Depth-n tree of conditional difference laws, optionally condition-tagged."""

    root: TreeNode
    depth: int
    condition: MartingaleConditions | None = None

    def __post_init__(self):
        leaves = self._validate(self.root, 1, {})
        if leaves > _MAX_LEAVES:
            raise ValueError(f"tree has {leaves} leaves, over the {_MAX_LEAVES} limit")

    def _validate(self, node, level, seen):
        # iid trees share node objects; validate each (node, level) pair once
        key = (id(node), level)
        if key in seen:
            return seen[key]
        self._check_condition(node, level)
        if node.children is None:
            if level != self.depth:
                raise ValueError("all leaves must sit at the stated depth")
            count = node.values.size
        else:
            if level >= self.depth:
                raise ValueError("tree deeper than stated depth")
            count = sum(self._validate(child, level + 1, seen) for child in node.children)
        seen[key] = count
        return count

    def _check_condition(self, node, level):
        cond = self.condition
        if cond is None:
            return
        k = level - 1
        tol = 1e-12
        if cond.variant == "one_sided_variance":
            if np.any(node.values > cond.b * (1 + tol) + tol):
                raise ValueError(f"difference above b at depth {level}")
            if node.second_moment > cond.sigma2s[k] * (1 + tol) + tol:
                raise ValueError(f"conditional variance above cap at depth {level}")
        elif cond.variant == "range":
            p = cond.ps[k]
            if np.any(node.values < -p - tol) or np.any(node.values > 1 - p + tol):
                raise ValueError(f"difference outside [-p, 1-p] at depth {level}")
        elif cond.variant == "symmetric":
            if np.any(np.abs(node.values) > cond.bs[k] * (1 + tol) + tol):
                raise ValueError(f"|difference| above cap at depth {level}")


def iid_tree(d, n, condition=None):
    """Tree for a sum of n iid copies of a two-point or discrete law."""
    if isinstance(d, TwoPointDist):
        d = DiscreteDist.from_two_point(d)
    node = TreeNode(d.support, d.probs)
    for _ in range(n - 1):
        node = TreeNode(d.support, d.probs, children=(node,) * d.support.size)
    return MartingaleTree(root=node, depth=n, condition=condition)


def _paths(tree):
    """All leaf path sums with their log-probabilities."""
    sums = []
    logps = []
    with np.errstate(divide="ignore"):
        stack = [(tree.root, 0.0, 0.0)]
        while stack:
            node, acc, logp = stack.pop()
            logs = logp + np.log(node.probs)
            vals = acc + node.values
            if node.children is None:
                sums.append(vals)
                logps.append(logs)
            else:
                for child, v, lp in zip(node.children, vals, logs):
                    stack.append((child, v, lp))
    return np.concatenate(sums), np.concatenate(logps)


def _path_tails(sums, logps, xs):
    """P{sum >= x} at each threshold from leaf path sums and log-probabilities.

    ``sums`` and ``logps`` have shape (..., L), one row of paths per tree;
    the thresholds ``xs`` (X,) are shared by every tree and the result has
    shape (..., X). Thresholds are sorted in among the paths, ahead of equal
    path sums, with no mass of their own, so one reverse log-sum over the
    merged order reads each tail at its threshold's position.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
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
    """Exact P{M_n >= x} for each threshold, one path enumeration."""
    return _path_tails(*_paths(tree), xs)


def exact_tail(tree, x):
    """Exact P{M_n >= x} by leaf-path enumeration in log space."""
    return float(exact_tail_many(tree, [x])[0])


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
        return self.best_tail / self.bound_value if self.bound_value > 0 else math.inf


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
    n = cond.n
    level = np.floor(np.log2(np.arange(1, 2**n))).astype(int)
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
    if not np.all((q_hi >= 0.0) & (q_hi <= 1.0)):
        raise ValueError("node probabilities must lie in [0, 1]")
    scale = np.maximum(1.0, np.max(np.abs(values), axis=-1))
    if not np.all(np.abs(np.sum(values * probs, axis=-1)) <= 1e-12 * scale):
        raise ValueError("conditional mean must vanish (martingale differences)")
    n = int(np.log2(values.shape[-2] + 1))
    leaf = np.arange(2**n)
    k = np.arange(n)[:, None]
    node = 2**k - 1 + (leaf >> (n - k))
    branch = (leaf >> (n - 1 - k)) & 1
    with np.errstate(divide="ignore"):
        logps = np.log(probs)
    return values[..., node, branch].sum(axis=-2), logps[..., node, branch].sum(axis=-2)


def worst_case_search(cond, x, budget=6000, seed=0, restarts=6):
    """Maximize the exact tail over two-point-conditional trees of depth n <= 3.

    Conditional laws are restricted to two atoms (the n = 1 extremal laws are
    two-point; the restriction is kept explicit for n >= 2). Grid-seeded
    coordinate ascent with random restarts; the report never exceeds the
    applicable theorem bound.
    """
    if cond.variant not in ("range", "one_sided_variance"):
        raise ValueError("search supports the range and one_sided_variance conditions")
    n = cond.n
    if n > 3:
        raise ValueError("worst-case search is limited to n <= 3")
    n_nodes = 2**n - 1
    dim = 2 * n_nodes
    rng = np.random.default_rng(seed)
    evals = 0

    def objective(params):
        """Tails of the trees in a (..., dim) batch of parameter vectors."""
        nonlocal evals
        scales = params.reshape(params.shape[:-1] + (n_nodes, 2))
        tails = _path_tails(*_two_point_paths(*_two_point_nodes(cond, scales)), x)[..., 0]
        evals += tails.size
        return tails

    # seeded starts: full-scale atoms, plus upper atoms placed so path sums
    # hit the threshold exactly (the n = 1 extremal laws have this shape)
    starts = [np.ones(dim)]
    for m in range(1, n + 1):
        params = np.ones(dim)
        for i in range(n_nodes):
            level = int(math.floor(math.log2(i + 1)))
            top = (1.0 - cond.ps[level]) if cond.variant == "range" else cond.b
            frac = x / m / top
            if 0.0 < frac <= 1.0:
                params[2 * i + 1] = frac
        starts.append(params)
    for _ in range(restarts):
        starts.append(rng.uniform(0.05, 1.0, dim))

    scan = np.linspace(1e-6, 1.0, 65)
    best_val = -1.0
    best_params = None
    for start in starts:
        params = np.clip(start, 1e-6, 1.0)
        current = float(objective(params))
        improved = True
        while improved and evals < budget:
            improved = False
            for d in range(dim):
                trial = np.repeat(params[None, :], scan.size, axis=0)
                trial[:, d] = scan
                vals = objective(trial)
                # tails within the 1e-15 noise floor tie; the first scan value wins,
                # so last-bit rounding of the tail does not steer the ascent
                j = int(np.argmax(vals >= vals.max() - 1e-15))
                if vals[j] > current + 1e-15:
                    params[d] = scan[j]
                    current = vals[j]
                    improved = True
                if evals >= budget:
                    break
        if current > best_val:
            best_val = current
            best_params = params.copy()

    if cond.variant == "range":
        bound = tail_bound_range(cond, x).value
    else:
        bound = tail_bound_variance(cond, x).value
    report = SearchReport(
        best_tail=best_val,
        bound_value=bound,
        params={"scales": best_params.tolist(), "x": x},
        evaluations=evals,
    )
    if report.ratio > 1.0 + 1e-9:
        raise VerificationError(
            f"search tail {best_val} exceeds bound {bound} (ratio {report.ratio})"
        )
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


def _theta_dist(x_k):
    """The atom theta(x_k, 1): {-x_k, 1} with P{1} = x_k/(1 + x_k); x_k = 0 degenerates."""
    if x_k == 0.0:
        return DiscreteDist.point_mass(0.0)
    return DiscreteDist.from_two_point(two_point_from_variance(x_k, 1.0))


def schur_check(xs, t, slack=1e-10):
    """Spreading the per-step variances can only lower E(sum - t)_+^2.

    Builds the non-iid sum T_n of atoms theta(x_k, 1), the iid sum S_n at the
    mean parameter, and compares the exact expectations. Equality holds when
    all x_k agree.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size > 8:
        raise ValueError("limited to n <= 8 (exact enumeration)")
    if np.any(xs < 0.0):
        raise ValueError("parameters must be nonnegative")
    T = _theta_dist(xs[0])
    for x_k in xs[1:]:
        T = convolve(T, _theta_dist(x_k))
    a = float(np.mean(xs))
    if a == 0.0:
        S = DiscreteDist.point_mass(0.0)
    else:
        S = iid_sum_dist(two_point_from_variance(a, 1.0), xs.size)

    def e_plus_sq(d):
        return float(d.probs @ np.clip(d.support - t, 0.0, None) ** 2)

    return e_plus_sq(T) <= e_plus_sq(S) + slack


def _plus_power_expectations(d, ts, s):
    diffs = np.clip(d.support[None, :] - np.asarray(ts)[:, None], 0.0, None)
    return diffs**s @ d.probs


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
    scale = max(1.0, float(np.max(np.abs(X.support))))
    if abs(X.mean) > 1e-12 * scale:
        raise ValueError("X must be centered")
    if family == "convex":
        a, b = params["a"], params["b"]
        if not (a < 0.0 < b):
            raise ValueError("need a < 0 < b")
        if np.any(X.support < a - 1e-12) or np.any(X.support > b + 1e-12):
            raise ValueError("support must lie inside [a, b]")
        atom = DiscreteDist.from_two_point(two_point_from_range(a, b))
        width = b - a
        ts = np.linspace(a - 0.5 * width, b + 0.25 * width, 41)
        return bool(
            np.all(
                _plus_power_expectations(X, ts, 1.0)
                <= _plus_power_expectations(atom, ts, 1.0) + slack
            )
        )
    if family in ("moment", "symmetric"):
        sigma2, b = params["sigma2"], params["b"]
        if not (sigma2 > 0.0 and b > 0.0):
            raise ValueError("need sigma2 > 0 and b > 0")
        if np.any(X.support > b + 1e-12):
            raise ValueError("support must lie below b")
        if float(X.probs @ X.support**2) > sigma2 * (1 + 1e-12) + 1e-15:
            raise ValueError("second moment above sigma2")
        if family == "moment":
            atom = DiscreteDist.from_two_point(two_point_from_variance(sigma2, b))
        else:
            a_star = max(math.sqrt(sigma2), b)
            atom = DiscreteDist.from_two_point(two_point_from_variance(a_star * a_star, a_star))
        lo = min(float(X.support[0]), float(atom.support[0]))
        hi = max(float(X.support[-1]), float(atom.support[-1]))
        width = max(hi - lo, 1e-6)
        ts = np.linspace(lo - 0.5 * width, hi + 0.25 * width, 21)
        for s in (2.0, 2.5, 3.0):
            if np.any(
                _plus_power_expectations(X, ts, s)
                > _plus_power_expectations(atom, ts, s) + slack
            ):
                return False
        for h in (0.1, 0.5, 1.0, 2.0, 4.0):
            if float(X.probs @ np.exp(h * X.support)) > float(
                atom.probs @ np.exp(h * atom.support)
            ) * (1 + 1e-12) + slack:
                return False
        return True
    raise ValueError(f"unknown family {family!r}")


# --- log-concavity of convolutions ----------------------------------------------


def _is_log_concave_seq(p, rel_tol=1e-12):
    p = np.asarray(p, dtype=np.float64)
    pos = np.nonzero(p > 0)[0]
    if pos.size == 0:
        return False
    if np.any(p[pos[0] : pos[-1] + 1] <= 0):
        return False  # interior zero breaks log-concavity
    q = p[pos[0] : pos[-1] + 1]
    return bool(np.all(q[1:-1] ** 2 >= q[:-2] * q[2:] * (1 - rel_tol)))


def convolution_log_concavity_check(p, q, rel_tol=1e-12):
    """Convolving log-concave integer sequences preserves log-concavity.

    Both inputs must already be log-concave (that is the lemma's hypothesis);
    the check passes when the convolution and the suffix-sum sequences are
    log-concave within the relative tolerance.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("sequences must be nonnegative")
    if not (_is_log_concave_seq(p, rel_tol) and _is_log_concave_seq(q, rel_tol)):
        raise ValueError("inputs must be log-concave sequences")
    conv = np.convolve(p, q)
    tails = np.cumsum(conv[::-1])[::-1]
    tails_p = np.cumsum(p[::-1])[::-1]
    return (
        _is_log_concave_seq(conv, rel_tol)
        and _is_log_concave_seq(tails, rel_tol)
        and _is_log_concave_seq(tails_p, rel_tol)
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


def monte_carlo_tail(sampler, trials, x, seed, chunk=100_000):
    """Empirical P{M_n >= x} with its binomial standard error.

    ``sampler(rng, size)`` must return ``size`` independent martingale sums;
    the run is deterministic given the seed.
    """
    trials = int(trials)
    if trials < 10**4:
        raise ValueError("need at least 1e4 trials")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        sums = sampler(rng, size)
        hits += int(np.count_nonzero(sums >= x))
        done += size
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return p_hat, se


def iid_grid_sampler(values, n, probs=None):
    """Sampler of sums of n iid draws from a finite grid (uniform by default)."""
    values = np.asarray(values, dtype=np.float64)
    n = int(n)

    def sampler(rng, size):
        if probs is None:
            idx = rng.integers(0, values.size, size=(size, n))
        else:
            idx = rng.choice(values.size, size=(size, n), p=probs)
        return values[idx].sum(axis=1)

    return sampler


# --- random instance generators ----------------------------------------------------


def _random_simplex_points(rng, lo, hi, max_points):
    k = int(rng.integers(2, max_points + 1))
    pts = np.sort(rng.uniform(lo, hi, k))
    # keep points apart so the support stays valid after centering
    keep = np.concatenate(([True], np.diff(pts) > 1e-6 * max(1.0, abs(lo), abs(hi))))
    pts = pts[keep]
    probs = rng.dirichlet(np.ones(pts.size))
    return pts, probs


def random_centered_dist_in_range(rng, a, b, max_points=7):
    """Random mean-zero law supported inside [a, b] (a < 0 < b).

    Points and flat-simplex probabilities are drawn, the mean is shifted out,
    and the support is shrunk back into the box, so the precondition holds
    exactly.
    """
    pts, probs = _random_simplex_points(rng, a, b, max_points)
    shifted = pts - float(probs @ pts)
    c = 1.0
    if shifted[-1] > 0:
        c = min(c, b / shifted[-1])
    if shifted[0] < 0:
        c = min(c, a / shifted[0])
    return DiscreteDist.from_probs(shifted * c, probs)


def random_centered_dist_bounded(rng, sigma2, b, max_points=7):
    """Random mean-zero law with support below b and second moment below sigma2."""
    pts, probs = _random_simplex_points(rng, -3.0 * b, b, max_points)
    shifted = pts - float(probs @ pts)
    c = 1.0
    if shifted[-1] > 0:
        c = min(c, b / shifted[-1])
    second = float(probs @ shifted**2)
    if second > 0:
        c = min(c, math.sqrt(sigma2 / second))
    return DiscreteDist.from_probs(shifted * c, probs)
