"""Named verification suites behind ``tailbounds verify --suite <name>``.

Each suite is deterministic under its seed, counts the individual checks it
ran, and collects full-parameter counterexample rows for anything that failed.
The acceptance tests run the same functions at the same scale.
"""

import functools
import itertools
import math
import time

from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DiscreteDist,
    StepSurvival,
    iid_sum_survival,
    poisson_log_survival,
    two_point_from_variance,
)
from .hull import (
    _on_hull,
    eval_hull,
    is_log_concave_discrete,
    linear_envelope_eval,
    log_concave_hull,
    log_eval_hull,
)
from .fracmoment import MARGIN_TOL, margin_sweep
from .bounds import (
    MartingaleConditions,
    comparison_atom,
    tail_bound_range,
    tail_bound_range_poisson,
    tail_bound_symmetric,
    tail_bound_symmetric_gaussian,
    tail_bound_variance,
    tail_bound_variance_poisson,
)
from .verify import (
    VerificationError,
    _domination_kernel,
    _path_tails,
    _random_centered_law,
    _random_points,
    _schur_kernel,
    _two_point_nodes,
    _two_point_paths,
    c1_search,
    convolution_log_concavity_check,
    hoeffding_optimality_sequence,
    hull_necessity_ratio,
    iid_grid_sampler,
    monte_carlo_tail,
    poisson_limit_check,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "monte_carlo_dominance_rows"]

C1_EXPECTED = 1.555884


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures

    def fail(self, **row):
        self.failures.append(row)


def _random_survival(rng):
    pts = _random_points(rng, 8, -3.0, 3.0, 1e-6)
    probs = rng.dirichlet(np.ones(pts.size))
    return DiscreteDist.from_probs(pts, probs).survival()


def _random_log_concave_seq(rng):
    k = int(rng.integers(2, 9))
    increments = np.sort(rng.normal(0.0, 1.5, k))[::-1]
    return np.exp(np.cumsum(increments))


def _random_log_concave_survival(rng):
    """Survival whose -log values are convex over the knots by construction."""
    knots = _random_points(rng, 8, -3.0, 3.0, 1e-6)
    slopes = np.cumsum(rng.uniform(0.05, 1.5, knots.size - 1))
    neg_log = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    return StepSurvival(knots, -neg_log)


def _truncated_poisson_survival(lam):
    k_max = int(lam + 12.0 * math.sqrt(lam) + 40.0)
    ks = np.arange(k_max + 1, dtype=np.float64)
    logv = poisson_log_survival(lam, ks)
    return StepSurvival(ks, logv)


def suite_lemma41(seed=0):
    """Hull sandwich, convexity, idempotence, and log-concavity facts.

    The hull dominates B on arbitrary survivals; the full chain
    B <= B0 <= B-diamond is a log-concave fact (it fails at dropped knots
    otherwise), so the envelope leg runs on log-concave instances only.
    """
    res = SuiteResult("lemma41")
    rng = np.random.default_rng(seed)

    for i in range(1000):
        S = _random_survival(rng)
        h = log_concave_hull(S)
        lo = float(S.knots[0]) - 1.0
        hi = float(S.knots[-1]) + 1.0
        xs = rng.uniform(lo, hi, 1000)
        B = S.eval(xs)
        B0 = eval_hull(h, xs)
        res.checks += 1
        if np.any(B > B0 + 1e-12):
            res.fail(case="hull_domination", instance=i, knots=S.knots.tolist())
        grid = np.linspace(float(S.knots[0]), float(S.knots[-1]), 101)
        neg_log = -log_eval_hull(h, grid)
        res.checks += 1
        if np.any(np.diff(neg_log, 2) < -1e-10):
            res.fail(case="convexity", instance=i)
        res.checks += 1
        h2 = log_concave_hull(StepSurvival(h.knots, -h.neg_log))
        if h2.knots.size != h.knots.size or np.any(
            np.abs(h2.neg_log - h.neg_log) > 1e-12
        ):
            res.fail(case="idempotence", instance=i)

    for i in range(1000):
        S = _random_log_concave_survival(rng)
        h = log_concave_hull(S)
        xs = rng.uniform(float(S.knots[0]) - 1.0, float(S.knots[-1]) + 1.0, 1000)
        B = S.eval(xs)
        B0 = eval_hull(h, xs)
        Bd = linear_envelope_eval(S, xs)
        res.checks += 1
        if np.any(B > B0 + 1e-12) or np.any(B0 > Bd + 1e-12):
            res.fail(case="sandwich", instance=i, knots=S.knots.tolist())
        res.checks += 1
        if h.knots.size != S.knots.size:
            res.fail(case="log_concave_knots_on_hull", instance=i)

    for n in range(1, 201):
        for p in (0.05, 0.3, 0.5, 0.7, 0.95):
            S = iid_sum_survival(two_point_from_variance(p - p * p, 1.0 - p), n)
            h = log_concave_hull(S)
            res.checks += 1
            if not _on_hull(S, h).all():
                res.fail(case="binomial_log_concavity", n=n, p=p)
            res.checks += 1
            xs = rng.uniform(float(S.knots[0]) - 1.0, float(S.knots[-1]) + 1.0, 200)
            if np.any(S.eval(xs) > eval_hull(h, xs) + 1e-12) or np.any(
                eval_hull(h, xs) > linear_envelope_eval(S, xs) + 1e-12
            ):
                res.fail(case="binomial_sandwich", n=n, p=p)

    for lam in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0):
        res.checks += 1
        if not is_log_concave_discrete(_truncated_poisson_survival(lam)):
            res.fail(case="poisson_log_concavity", lam=lam)

    # scaled-copy counterexample: atoms {0, a, 1, 1+a} for small p and a
    p, a = 0.01, 0.1
    S = DiscreteDist.from_probs(
        [0.0, a, 1.0, 1.0 + a],
        [(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p],
    ).survival()
    res.checks += 1
    if is_log_concave_discrete(S):
        res.fail(case="counterexample_should_fail", p=p, a=a)

    res.checks += 1
    if not convolution_log_concavity_check([0.5, 0.5], [0.5, 0.5]):
        res.fail(case="bernoulli_convolution")
    res.checks += 1
    if not convolution_log_concavity_check([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]):
        res.fail(case="flat_convolution")
    for i in range(1000):
        pseq = _random_log_concave_seq(rng)
        qseq = _random_log_concave_seq(rng)
        res.checks += 1
        if not convolution_log_concavity_check(pseq, qseq):
            res.fail(case="random_convolution", instance=i, p=pseq.tolist(), q=qseq.tolist())
    return res


def suite_lemma42(seed=0):
    """Fractional-moment inequality swept over binomial and random survivals."""
    res = SuiteResult("lemma42")
    rng = np.random.default_rng(seed)
    s_grid = (1.0, 2.0, 2.5, 3.0)
    cases = [
        (iid_sum_survival(two_point_from_variance(p - p * p, 1.0 - p), n), f"binomial n={n} p={p}")
        for n, p in itertools.product(range(1, 51), (0.1, 0.3, 0.5, 0.7))
    ]
    cases += [(_random_survival(rng), f"random {i}") for i in range(20)]
    worst = -math.inf
    for S, label in cases:
        xs, lhs, rhs = margin_sweep(S, s_grid)
        margins = lhs - rhs
        worst = max(worst, float(margins.max()))
        res.checks += margins.size
        for i, j in zip(*np.nonzero(margins > MARGIN_TOL)):
            res.fail(case=label, s=s_grid[i], x=float(xs[j]),
                     lhs=float(lhs[i, j]), rhs=float(rhs[i, j]))
    res.info["instances"] = len(cases)
    res.info["worst_margin"] = worst
    return res


def _domination_suite(name, family, seed=0):
    """Domination of random centered laws by the family's extremal atom.

    lemma43: convex domination by the range atom xi(a, b); lemma44: the moment
    family under theta(sigma2, b); lemma46: the symmetric atom theta(a^2, a)
    with a = max{sigma, b}. The laws are drawn as padded rows and checked in
    one kernel call.
    """
    res = SuiteResult(name)
    rng = np.random.default_rng(seed)
    convex = family == "convex"
    draws = []
    for _ in range(10_000):
        first = -float(rng.uniform(0.05, 2.0)) if convex else float(rng.uniform(0.01, 4.0))
        b = float(rng.uniform(0.05, 2.0))
        draws.append((first, b, _random_centered_law(rng, family, first, b)))
    first, b, rows = (np.array(column) for column in zip(*draws))
    res.checks += len(rows)
    for i in np.flatnonzero(~_domination_kernel(family, rows[:, 0], rows[:, 1], first, b, 1e-10)):
        support, probs = rows[i][:, rows[i, 1] > 0]
        res.fail(
            case=family, instance=int(i), support=support.tolist(), probs=probs.tolist(),
            **{"a" if convex else "sigma2": float(first[i]), "b": float(b[i])},
        )
    return res


def suite_lemma45(seed=0):
    """Schur-style spreading check for E(sum - t)_+^2."""
    res = SuiteResult("lemma45")
    rng = np.random.default_rng(seed)
    by_n = {}
    instances = 10_000
    for i in range(instances):
        n = int(rng.integers(2, 7))
        if i % 50 == 0:
            xs = np.full(n, float(rng.uniform(0.05, 2.0)))  # equality case
        else:
            xs = rng.uniform(0.0, 2.0, n)
        by_n.setdefault(n, []).append((i, xs, float(rng.uniform(-2.0 * n, n + 1.0))))
    res.checks += instances
    failed = []
    for draws in by_n.values():
        _, xs, t = zip(*draws)
        failed += itertools.compress(draws, ~_schur_kernel(np.array(xs), np.array(t), 1e-10))
    for i, xs, t in sorted(failed, key=lambda row: row[0]):
        res.fail(case="schur", instance=i, xs=xs.tolist(), t=t)
    return res


def suite_lemma47(seed=0):
    """Product-bound optimality along growing n."""
    res = SuiteResult("lemma47")
    n_list = [1, 10, 100, 1_000, 10_000, 100_000]
    for p, z in ((0.3, 0.5), (0.1, 0.4)):
        res.checks += 1
        try:
            gs, neg_f = hoeffding_optimality_sequence(p, z, n_list)
            res.info[f"gap_p{p}_z{z}"] = float(abs(gs[-1] - neg_f))
        except VerificationError as exc:
            res.fail(case="optimality", p=p, z=z, error=str(exc))
    return res


def suite_lemma48(seed=0):
    """Hull necessity: the raw-survival ratio blows up as sigma2 -> 0."""
    res = SuiteResult("lemma48")
    res.checks += 1
    if hull_necessity_ratio(1.0) != 2.0:
        res.fail(case="unit_ratio", value=hull_necessity_ratio(1.0))
    res.checks += 1
    if not hull_necessity_ratio(1e-6) > 1e6:
        res.fail(case="blowup", value=hull_necessity_ratio(1e-6))
    grid = np.geomspace(1e-6, 1e3, 40)
    ratios = [hull_necessity_ratio(s) for s in grid]
    res.checks += 1
    if np.any(np.diff(ratios) >= 0):
        res.fail(case="monotonicity")
    return res


def suite_c1(seed=0):
    """Reproduce the n = 1 worst constant by search."""
    res = SuiteResult("c1")
    estimate = c1_search()
    res.info["estimate"] = estimate
    res.info["expected"] = C1_EXPECTED
    res.checks += 1
    if abs(estimate - C1_EXPECTED) > 2e-3:
        res.fail(case="c1", estimate=estimate, expected=C1_EXPECTED)
    return res


def suite_dominance(seed=0, n=2):
    """Exhaustive small-tree dominance plus a Monte Carlo spot check.

    Random two-point-conditional trees under the range and variance
    conditions, 420 per cell at depth n and 210 below, are enumerated exactly
    and compared against the matching theorem bound at every comparison-sum
    knot and midpoint; 2e5 Monte Carlo trials follow.
    """
    if not 1 <= n <= 2:
        raise ValueError(f"dominance suite enumerates depths 1 and 2 only, got n={n}")
    res = SuiteResult("dominance")
    rng = np.random.default_rng(seed)
    variants = (
        ("range", "ps", (0.15, 0.35, 0.5, 0.65, 0.85),
         MartingaleConditions.range_condition, tail_bound_range),
        ("variance", "sigma2s", (0.1, 0.25, 0.5, 1.0, 2.0),
         functools.partial(MartingaleConditions.one_sided_variance, 1.0), tail_bound_variance),
    )
    trees = 0

    for depth in range(1, n + 1):
        per_cell = 420 if depth == n else 210
        for case, key, grid, make_cond, bound_fn in variants:
            for cell in itertools.product(grid, repeat=depth):
                cond = make_cond(np.array(cell))
                S = iid_sum_survival(comparison_atom(cond), depth)
                xs = np.sort(np.concatenate([S.knots, 0.5 * (S.knots[:-1] + S.knots[1:])]))
                bound = bound_fn(cond, xs).value
                # one row of node scales per tree, breadth-first
                scales = rng.uniform(0.02, 1.0, (per_cell, 2**depth - 1, 2))
                tails = _path_tails(*_two_point_paths(*_two_point_nodes(cond, scales)), xs)
                res.checks += tails.size
                trees += per_cell
                for t, j in zip(*np.nonzero(tails > bound + 1e-12)):
                    res.fail(
                        case=case, depth=depth, **{key: list(cell)}, x=float(xs[j]),
                        tail=float(tails[t, j]), bound=float(bound[j]),
                    )

    res.info["trees"] = trees
    for row in monte_carlo_dominance_rows(seed=seed, trials=200_000):
        res.checks += 1
        if not row["ok"]:
            res.fail(case="monte_carlo", **row)
    return res


def monte_carlo_dominance_rows(seed=0, trials=1_000_000):
    """Empirical tails of a grid-difference martingale against every bound.

    n = 100 differences are iid uniform on {-0.5, -0.25, 0, 0.25, 0.5}; at
    x = 2, 5 and 10 the estimate plus four standard errors must stay below
    each applicable bound.
    """
    n = 100
    grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    var = float(np.mean(grid**2))
    b = float(grid.max())
    sampler = iid_grid_sampler(grid, n)

    cond_var = MartingaleConditions.one_sided_variance(b, np.full(n, var))
    cond_rng = MartingaleConditions.range_condition(np.full(n, 0.5))
    cond_sym = MartingaleConditions.per_k(np.full(n, b), np.full(n, var))

    rows = []
    for x in (2.0, 5.0, 10.0):
        estimate, se = monte_carlo_tail(sampler, trials, x, seed=seed)
        upper = estimate + 4.0 * se
        bounds = {
            "variance": tail_bound_variance(cond_var, x).value,
            "variance_poisson": tail_bound_variance_poisson(cond_var, x).value,
            "range": tail_bound_range(cond_rng, x).value,
            "range_poisson": tail_bound_range_poisson(cond_rng, x).value,
            "symmetric": tail_bound_symmetric(cond_sym, x).value,
            "symmetric_gaussian": tail_bound_symmetric_gaussian(cond_sym, x).value,
        }
        for name, bound in bounds.items():
            rows.append(
                {
                    "x": float(x),
                    "bound_name": name,
                    "estimate": estimate,
                    "se": se,
                    "bound": bound,
                    "ok": upper <= bound,
                }
            )
    return rows


def suite_poisson_limit(seed=0):
    """Padded binomial tails converge to the Poisson tail."""
    res = SuiteResult("poisson-limit")
    m_list = [100, 1_000, 10_000]
    for lam in (0.5, 1.0, 5.0):
        for x in (0.0, 1.0, 3.0):
            res.checks += 1
            try:
                gaps = poisson_limit_check(10, lam, 1.0, m_list, x)
                res.info[f"gap_lam{lam}_x{x}"] = float(gaps[-1])
            except VerificationError as exc:
                res.fail(case="poisson_limit", lam=lam, x=x, error=str(exc))
    return res


_SUITES = {
    "lemma41": suite_lemma41,
    "lemma42": suite_lemma42,
    "lemma43": functools.partial(_domination_suite, "lemma43", "convex"),
    "lemma44": functools.partial(_domination_suite, "lemma44", "moment"),
    "lemma45": suite_lemma45,
    "lemma46": functools.partial(_domination_suite, "lemma46", "symmetric"),
    "lemma47": suite_lemma47,
    "lemma48": suite_lemma48,
    "c1": suite_c1,
    "dominance": suite_dominance,
    "poisson-limit": suite_poisson_limit,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name, seed=0, n=None):
    """Run one named suite (or ``all``); returns a list of SuiteResult.

    ``n`` is the dominance suite's depth (default 2). Under ``all`` only that
    suite gets it; a suite without a depth refuses it with ValueError.
    """
    suites = _SUITES if name == "all" else {name: _SUITES.get(name)}
    if None in suites.values():
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    depth = {} if n is None else {"n": n}
    if depth and "dominance" not in suites:
        raise ValueError(f"suite {name!r} takes no depth n")
    results = []
    for key, fn in suites.items():
        start = time.perf_counter()
        result = fn(seed=seed, **(depth if key == "dominance" else {}))
        result.info["elapsed_s"] = time.perf_counter() - start
        results.append(result)
    return results
