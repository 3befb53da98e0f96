"""The four workloads: seeded input rounds, the timed op, and its checks.

Every workload object has

* ``round(rng, r)``: the inputs of round ``r`` (made off the clock);
* ``op(inp, span)``: one user-level request through the public API, the only
  timed code; ``span`` is ``Tracer.span`` in traced runs, ``null_span``
  otherwise;
* ``check(inp, out)``: raises ``CheckFailed`` if an output is wrong (off the
  clock);
* ``replay(inp, out, span)``: traced runs only; library calls that split a
  composite op into its layers, timed as their own root span.

A round always holds the same kinds of op, so the share of ops that fail on
the known normalization fault is the same in every run.

Seeded confidence inputs have 0 < k < n: at a sample mean of 0,
``invert_for_confidence`` probes mu = 0 and its own range condition refuses
p = 1, so that valid input fails every time.

Seeded sizes stay at n <= 400. From n ~ 735 up, ``iid_sum_dist`` fails its
own 1e-12 normalization check at some (n, p) and not at others, so seeded
draws there would fail on some seeds only. The fault is instead kept as one
fixed n = 3000 op per round of ``bound-table`` and ``confidence``, which fails
every time.
"""

import contextlib
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

import oracle
from tailbounds import cli
from tailbounds.bounds import (
    RANGE_CONST,
    SYMMETRIC_CONST,
    VARIANCE_CONST,
    MartingaleConditions,
    comparison_atom,
    fractional_moment_bound,
    hoeffding_tail_range,
    hoeffding_tail_variance,
    invert_for_confidence,
    mgf_bound,
    tail_bound_range,
    tail_bound_range_poisson,
    tail_bound_symmetric,
    tail_bound_symmetric_gaussian,
    tail_bound_variance,
    tail_bound_variance_poisson,
)
from tailbounds.distributions import (
    DiscreteDist,
    StepSurvival,
    convolve,
    iid_sum_dist,
    iid_sum_survival,
    poisson_log_survival,
    two_point_from_variance,
)
from tailbounds.fracmoment import lhs_inf, lhs_inf_sweep, rhs_bound
from tailbounds.hull import (
    eval_hull,
    linear_envelope_eval,
    log_concave_hull,
    log_eval_hull,
    poisson_hull_log_eval,
)
from tailbounds.verify import (
    MartingaleTree,
    TreeNode,
    convex_domination_check,
    exact_tail_many,
    random_centered_dist_bounded,
    random_centered_dist_in_range,
    schur_check,
)

SEEDED_N = (100, 400)
FAULT_N = 3000
SEEDED_PER_ROUND = 6


class CheckFailed(AssertionError):
    """An output of tailbounds disagrees with its reference or its properties."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _close(a, b, rel=1e-9, abs_tol=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def log_uniform_strata(rng, lo, hi, k):
    """``k`` integers log-uniform on [lo, hi], one per equal log-width stratum, shuffled."""
    edges = np.linspace(math.log(lo), math.log(hi), k + 1)
    u = edges[:-1] + rng.uniform(size=k) * np.diff(edges)
    return [int(round(math.exp(v))) for v in rng.permutation(u)]


# --- bound-table --------------------------------------------------------------

THEOREM_CONST = {"1.1": VARIANCE_CONST, "1.2": RANGE_CONST, "1.3": SYMMETRIC_CONST}
TABLE_POINTS = 30
TAIL_TARGET = 1e-15


def theta_atom(s2, b):
    """``(v_lo, v_hi, p_hi)`` of theta(sigma2, b) from its definition."""
    return -s2 / b, b, s2 / (b * b + s2)


def comparison_atom_of(theorem, params):
    """``(v_lo, v_hi, p_hi)`` of the theorem's comparison atom, from its definition."""
    if theorem == "1.1":
        s2, b = params["sigma2"], params["b"]
    elif theorem == "1.2":
        p = params["p"]
        s2, b = p - p * p, 1.0 - p
    else:
        a = params["a"]
        s2, b = a * a, a
    return theta_atom(s2, b)


def chernoff_k(n, p, target=TAIL_TARGET):
    """Smallest k whose Chernoff bound exp(-n KL(k/n || p)) is <= target; n if none."""
    log_target = math.log(target)

    def log_bound(a):
        if a >= 1.0:
            return n * math.log(p)
        return -n * (a * math.log(a / p) + (1.0 - a) * math.log((1.0 - a) / (1.0 - p)))

    if log_bound(1.0) > log_target:
        return n
    lo, hi = p, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_bound(mid) > log_target:
            lo = mid
        else:
            hi = mid
    return min(n, math.ceil(hi * n))


@dataclass(frozen=True)
class BoundInput:
    theorem: str
    n: int
    params: dict
    x_max: float
    argv: tuple


def bound_input(theorem, n, params):
    v_lo, v_hi, p_hi = comparison_atom_of(theorem, params)
    k = chernoff_k(n, p_hi)
    x_max = n * v_lo + k * (v_hi - v_lo)
    argv = ["bound", "--theorem", theorem, "--n", str(n)]
    for key, value in params.items():
        argv += [f"--{key}", f"{value:.17g}"]
    argv += ["--x-min", "0", "--x-max", f"{x_max:.17g}", "--x-step", f"{x_max / (TABLE_POINTS - 1):.17g}"]
    return BoundInput(theorem, n, params, x_max, tuple(argv))


def _bound_conditions(inp):
    """The conditions object the CLI builds from scalar parameters."""
    n, prm = inp.n, inp.params
    if inp.theorem == "1.1":
        return MartingaleConditions.one_sided_variance(prm["b"], np.full(n, prm["sigma2"]))
    if inp.theorem == "1.2":
        return MartingaleConditions.range_condition(np.full(n, prm["p"]))
    return MartingaleConditions.symmetric(np.full(n, prm["a"]))


class BoundTable:
    name = "bound-table"

    def round(self, rng, r):
        ns = log_uniform_strata(rng, *SEEDED_N, SEEDED_PER_ROUND)
        inputs = []
        for i, n in enumerate(ns):
            theorem = ("1.1", "1.2", "1.3")[i % 3]
            if theorem == "1.1":
                params = {"sigma2": float(rng.uniform(0.05, 1.0)), "b": float(rng.uniform(0.5, 2.0))}
            elif theorem == "1.2":
                params = {"p": float(rng.uniform(0.05, 0.95))}
            else:
                params = {"a": float(rng.uniform(0.25, 2.0))}
            inputs.append(bound_input(theorem, n, params))
        inputs.append(bound_input("1.2", FAULT_N, {"p": 0.5}))
        return inputs

    def op(self, inp, span):
        out, err = io.StringIO(), io.StringIO()
        with span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(inp.argv))
        if rc != 0:
            raise ValueError(err.getvalue().strip() or f"exit code {rc}")
        return out.getvalue()

    def check(self, inp, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        _require(len(rows) >= TABLE_POINTS, f"{len(rows)} rows")
        n = inp.n
        v_lo, v_hi, p_hi = comparison_atom_of(inp.theorem, inp.params)
        const = THEOREM_CONST[inp.theorem]
        xs = [float(row["x"]) for row in rows]
        _require(xs[0] == 0.0 and _close(xs[-1], inp.x_max, 1e-12), "threshold grid")
        # knot index k solves x = n v_lo + k (v_hi - v_lo); at a knot (up to
        # rounding) either adjacent tail is accepted
        cands = []
        for x in xs:
            r = (x - n * v_lo) / (v_hi - v_lo)
            near = round(r)
            cands.append((near, near + 1) if abs(r - near) < 1e-6 else (math.ceil(r),))
        tails = oracle.binomial_upper_tails(n, p_hi, sorted({k for c in cands for k in c}))
        prev_hull = math.inf
        for row, x, ks in zip(rows, xs, cands):
            exact = float(row["exact"])
            ref = [tails[k] for k in ks]
            _require(any(_close(exact, t, 1e-8) for t in ref), f"exact {exact} vs binomial {ref} at x={x}")
            tail = min(ref)
            hull = float(row["hull_value"])
            _require(row["theorem"] == inp.theorem, "theorem column")
            _require(hull >= exact * (1 - 1e-9), f"hull {hull} below tail {exact} at x={x}")
            _require(hull <= float(row["envelope"]) * (1 + 1e-9), f"hull above envelope at x={x}")
            _require(hull <= prev_hull * (1 + 1e-12), f"hull increases at x={x}")
            prev_hull = hull
            if inp.theorem != "1.3":
                _require(float(row["hoeffding"]) >= tail * (1 - 1e-9), f"hoeffding below tail at x={x}")
            constant, raw = float(row["constant"]), float(row["raw"])
            _require(constant == const, "constant")
            _require(raw == constant * hull, f"raw != constant * hull at x={x}")
            _require(float(row["clamped"]) == min(1.0, raw), f"clamped at x={x}")
            coarse = float(row["coarse_raw"])
            _require(coarse == float(row["coarse_constant"]) * float(row["coarse_hull"]), "coarse_raw")
            _require(float(row["coarse_clamped"]) == min(1.0, coarse), "coarse_clamped")

    def replay(self, inp, text, span):
        xs = [float(line.split(",", 2)[1]) for line in text.splitlines()[1:]]
        theorem, n = inp.theorem, inp.n
        if theorem == "1.1":
            fns = (tail_bound_variance, tail_bound_variance_poisson)
        elif theorem == "1.2":
            fns = (tail_bound_range, tail_bound_range_poisson)
        else:
            fns = (tail_bound_symmetric, tail_bound_symmetric_gaussian)
        with span("replay"):
            with span("library"):
                with span("bounds.conditions"):
                    cond = _bound_conditions(inp)
                with span("bounds.comparison_atom"):
                    atom = comparison_atom(cond)
                with span("distributions.iid_sum_dist", atoms=n + 1):
                    d = iid_sum_dist(atom, n)
                with span("distributions.from_dist"):
                    S = StepSurvival.from_dist(d)
                with span("hull.log_concave_hull", knots=int(S.knots.size)) as sp:
                    h = log_concave_hull(S)
                sp.counts["on_hull"] = int(h.knots.size)
                for x in xs:
                    with span("distributions.step_eval"):
                        S.eval(x)
                    with span("hull.linear_envelope_eval"):
                        linear_envelope_eval(S, x)
                    with span("bounds.tail_bound"):
                        fns[0](cond, x, hull=h)
                    with span("bounds.coarsening"):
                        fns[1](cond, x)
                    if theorem == "1.1":
                        with span("bounds.hoeffding"):
                            hoeffding_tail_variance(n, cond.mean_sigma2, cond.b, x)
                    elif theorem == "1.2":
                        with span("bounds.hoeffding"):
                            hoeffding_tail_range(n, cond.mean_p, x)
            with span("probe"):
                # the calls the coarsening and tail_bound make internally
                if theorem == "1.1":
                    lam, scale = float(np.sum(cond.sigma2s)) / cond.b**2, cond.b
                elif theorem == "1.2":
                    p = cond.mean_p
                    lam, scale = p * n / (1.0 - p), 1.0 - p
                else:
                    lam = None
                for x in xs:
                    with span("hull.eval_hull"):
                        eval_hull(h, x)
                    if lam is not None:
                        y = lam + x / scale
                        with span("hull.poisson_hull_log_eval"):
                            poisson_hull_log_eval(lam, y)
                        with span("distributions.poisson_log_survival"):
                            poisson_log_survival(lam, math.floor(y))


# --- confidence ---------------------------------------------------------------

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class ConfidenceInput:
    n: int
    k: int
    delta: float


class Confidence:
    name = "confidence"

    def round(self, rng, r):
        ns = log_uniform_strata(rng, *SEEDED_N, SEEDED_PER_ROUND)
        deltas = rng.permutation(DELTAS)
        inputs = [
            ConfidenceInput(n, int(rng.integers(1, n)), float(delta)) for n, delta in zip(ns, deltas)
        ]
        inputs.append(ConfidenceInput(FAULT_N, FAULT_N // 2, 0.05))
        return inputs

    def op(self, inp, span):
        n = inp.n
        mean = inp.k / n
        with span("bounds.invert_for_confidence"):
            mu = invert_for_confidence(n, mean, inp.delta)
        achieved = None
        if mean < mu < 1.0:
            # the bound at the limit, as `tailbounds confidence` reports it
            with span("bounds.build_chain"):
                with span("bounds.comparison_atom"):
                    atom = comparison_atom(MartingaleConditions.range_condition(np.full(n, 1.0 - mu)))
                with span("distributions.iid_sum_dist", atoms=n + 1):
                    d = iid_sum_dist(atom, n)
                with span("distributions.from_dist"):
                    S = StepSurvival.from_dist(d)
                with span("hull.log_concave_hull", knots=int(S.knots.size)):
                    h = log_concave_hull(S)
                with span("hull.eval_hull"):
                    hv = eval_hull(h, n * (mu - mean))
            achieved = RANGE_CONST * hv
        return mu, achieved

    def check(self, inp, out):
        mu, achieved = out
        mean = inp.k / inp.n
        _require(mean <= mu <= 1.0, f"limit {mu} outside [{mean}, 1]")
        # mu >= the Clopper-Pearson upper limit  <=>  P_mu{Bin(n, mu) <= k} <= delta
        cdf = oracle.binomial_cdf_at_most(inp.n, mu, inp.k)
        _require(cdf <= inp.delta * (1 + 1e-9), f"limit {mu} below Clopper-Pearson (cdf {float(cdf)})")
        if achieved is not None:
            _require(achieved >= inp.delta * (1 - 1e-9), f"bound at limit {achieved} < delta")

    def replay(self, inp, out, span):
        pass


# --- moment -------------------------------------------------------------------

MOMENT_ORDERS = (1.0, 2.0, 2.5, 3.0)
MOMENT_THRESHOLDS = 24
IID_N = (5, 50)
SUM_M = tuple(range(2, 9))


@dataclass(frozen=True)
class MomentInput:
    specs: tuple  # per-step (sigma2, b) of the theta atoms
    iid: bool
    s: float


def moment_thresholds(S):
    """Up to MOMENT_THRESHOLDS knots and midpoints, evenly picked, and a middle midpoint."""
    knots = S.knots
    mids = 0.5 * (knots[:-1] + knots[1:])
    xs = np.sort(np.concatenate([knots[1:], mids]))
    idx = np.unique(np.linspace(0, xs.size - 1, MOMENT_THRESHOLDS).round().astype(int))
    return xs[idx], float(mids[mids.size // 2])


class Moment:
    name = "moment"

    def __init__(self):
        self._m_queue = []

    def _next_m(self, rng):
        # every len(SUM_M) non-iid sums use each size once
        if not self._m_queue:
            self._m_queue = [int(m) for m in rng.permutation(SUM_M)]
        return self._m_queue.pop()

    def round(self, rng, r):
        inputs = []
        ns = log_uniform_strata(rng, *IID_N, len(MOMENT_ORDERS))
        for n, s in zip(ns, rng.permutation(MOMENT_ORDERS)):
            spec = (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.25, 2.0)))
            inputs.append(MomentInput((spec,) * n, True, float(s)))
        for s in rng.permutation(MOMENT_ORDERS):
            m = self._next_m(rng)
            specs = tuple(
                (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.25, 2.0))) for _ in range(m)
            )
            inputs.append(MomentInput(specs, False, float(s)))
        return inputs

    def op(self, inp, span):
        specs = inp.specs
        if inp.iid:
            with span("distributions.iid_sum_dist", atoms=len(specs) + 1):
                T = iid_sum_dist(two_point_from_variance(*specs[0]), len(specs))
        else:
            T = DiscreteDist.from_two_point(two_point_from_variance(*specs[0]))
            for spec in specs[1:]:
                with span("distributions.convolve"):
                    T = convolve(T, DiscreteDist.from_two_point(two_point_from_variance(*spec)))
        with span("distributions.from_dist"):
            S = StepSurvival.from_dist(T)
        with span("hull.log_concave_hull", knots=int(S.knots.size)):
            h = log_concave_hull(S)
        xs, x_mid = moment_thresholds(S)
        with span("fracmoment.lhs_inf_sweep"):
            lhs = lhs_inf_sweep(S, inp.s, xs)
        rhs = []
        for x in xs:
            with span("fracmoment.rhs_bound"):
                rhs.append(rhs_bound(h, inp.s, float(x)))
        with span("bounds.fractional_moment_bound"):
            optimized, hull_form = fractional_moment_bound(T, max(inp.s, 2.0), x_mid)
        with span("bounds.mgf_bound"):
            mgf = mgf_bound(specs, x_mid)
        return {"S": S, "lhs": lhs, "rhs": np.array(rhs), "x_mid": x_mid,
                "optimized": optimized, "hull_form": hull_form, "mgf": mgf}

    def check(self, inp, out):
        x = out["x_mid"]
        if inp.iid:
            n = len(inp.specs)
            v_lo, v_hi, p_hi = theta_atom(*inp.specs[0])
            k = math.ceil((x - n * v_lo) / (v_hi - v_lo))
            tail = oracle.binomial_upper_tails(n, p_hi, [k])[k]
        else:
            tail = oracle.two_point_sum_tail([theta_atom(*spec) for spec in inp.specs], x)
        _require(np.all(out["lhs"] <= out["rhs"] + 1e-9), "moment lhs above rhs")
        _require(out["optimized"] >= tail * (1 - 1e-9), f"moment infimum {out['optimized']} below tail {tail}")
        _require(out["hull_form"] >= out["optimized"] - 1e-9, "hull form below infimum")
        _require(out["mgf"] >= tail * (1 - 1e-9), f"mgf bound {out['mgf']} below tail {tail}")
        _require(out["mgf"] <= 1.0, f"mgf bound {out['mgf']} above 1")

    def replay(self, inp, out, span):
        with span("replay"):
            with span("fracmoment.lhs_inf"):
                lhs_inf(out["S"], max(inp.s, 2.0), out["x_mid"])


# --- verify -------------------------------------------------------------------

DOM_P = (0.15, 0.35, 0.5, 0.65, 0.85)
DOM_S2 = (0.1, 0.25, 0.5, 1.0, 2.0)
LEMMA41_POINTS = 1000


def _theta_dist(x_k):
    if x_k == 0.0:
        return DiscreteDist.point_mass(0.0)
    return DiscreteDist.from_two_point(two_point_from_variance(x_k, 1.0))


def _range_node(p, su, sv):
    u = -p * su
    v = (1.0 - p) * sv
    q_hi = -u / (v - u)
    return (u, v), (1.0 - q_hi, q_hi)


def _variance_node(s2_cap, ss, sh):
    # b = 1, as in the dominance suite
    v_lo, v_hi, p_hi = theta_atom(s2_cap * ss, sh)
    return (v_lo, v_hi), (1.0 - p_hi, p_hi)


class Verify:
    """One verification round: a fresh instance for each lemma suite and dominance.

    Instances are drawn with the suites' own distributions; the dominance
    tree is a random depth-1 or depth-2 two-point tree in one suite cell.
    """

    name = "verify"

    def round(self, rng, r):
        inp = {}
        k = int(rng.integers(2, 9))
        pts = np.sort(rng.uniform(-3.0, 3.0, k))
        pts = pts[np.concatenate(([True], np.diff(pts) > 1e-6))]
        probs = rng.dirichlet(np.ones(pts.size))
        inp["lemma41"] = (pts, probs, rng.uniform(pts[0] - 1.0, pts[-1] + 1.0, LEMMA41_POINTS))
        a = -float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(0.05, 2.0))
        inp["lemma43"] = ("convex", random_centered_dist_in_range(rng, a, b), {"a": a, "b": b})
        for name, family in (("lemma44", "moment"), ("lemma46", "symmetric")):
            sigma2 = float(rng.uniform(0.01, 4.0))
            b = float(rng.uniform(0.05, 2.0))
            inp[name] = (family, random_centered_dist_bounded(rng, sigma2, b), {"sigma2": sigma2, "b": b})
        n = int(rng.integers(2, 7))
        xs = np.full(n, float(rng.uniform(0.05, 2.0))) if r % 50 == 0 else rng.uniform(0.0, 2.0, n)
        inp["lemma45"] = (xs, float(rng.uniform(-2.0 * n, n + 1.0)))
        depth = int(rng.integers(1, 3))
        if rng.uniform() < 0.5:
            cell = tuple(float(DOM_P[i]) for i in rng.integers(0, len(DOM_P), depth))
            variant = "range"
        else:
            cell = tuple(float(DOM_S2[i]) for i in rng.integers(0, len(DOM_S2), depth))
            variant = "variance"
        inp["dominance"] = (variant, cell, rng.uniform(0.02, 1.0, (2**depth - 1, 2)))
        return [inp]

    @staticmethod
    def tree_levels(variant, cell, scales):
        """Per-level node laws: ``[(vals, probs)]`` then ``[[child0], [child1]]``."""
        def node(level, i):
            su, sv = scales[i]
            if variant == "range":
                return _range_node(cell[level], su, sv)
            return _variance_node(cell[level], su, sv)

        levels = [node(0, 0)]
        if len(cell) == 2:
            levels.append([node(1, 1), node(1, 2)])
        return levels

    def op(self, inp, span):
        out = {}
        pts, probs, xs41 = inp["lemma41"]
        with span("hull.random_survival_round"):
            S = DiscreteDist.from_probs(pts, probs).survival()
            h = log_concave_hull(S)
            dominated = bool(np.all(S.eval(xs41) <= eval_hull(h, xs41) + 1e-12))
            grid = np.linspace(float(S.knots[0]), float(S.knots[-1]), 101)
            convex = bool(np.all(np.diff(-log_eval_hull(h, grid), 2) >= -1e-10))
            h2 = log_concave_hull(StepSurvival(h.knots, -h.neg_log))
            idempotent = h2.knots.size == h.knots.size and bool(
                np.all(np.abs(h2.neg_log - h.neg_log) <= 1e-12)
            )
        out["lemma41"] = (dominated, convex, idempotent)
        for name in ("lemma43", "lemma44", "lemma46"):
            family, X, params = inp[name]
            with span("verify.convex_domination_check"):
                out[name] = convex_domination_check(family, X, params)
        xs45, t = inp["lemma45"]
        with span("verify.schur_check"):
            out["lemma45"] = schur_check(xs45, t)
        T = _theta_dist(xs45[0])
        for x_k in xs45[1:]:
            with span("distributions.convolve"):
                T = convolve(T, _theta_dist(x_k))
        out["lemma45_T"] = float(T.probs @ np.clip(T.support - t, 0.0, None) ** 2)

        variant, cell, scales = inp["dominance"]
        levels = self.tree_levels(variant, cell, scales)
        with span("verify.tree_build"):
            if len(levels) == 1:
                root = TreeNode(*levels[0])
            else:
                kids = tuple(TreeNode(*lv) for lv in levels[1])
                root = TreeNode(*levels[0], children=kids)
            tree = MartingaleTree(root, depth=len(cell))
        if variant == "range":
            cond = MartingaleConditions.range_condition(np.array(cell))
            bound_fn = tail_bound_range
        else:
            cond = MartingaleConditions.one_sided_variance(1.0, np.array(cell))
            bound_fn = tail_bound_variance
        with span("bounds.comparison_hull"):
            Sc = iid_sum_survival(comparison_atom(cond), len(cell))
            hull = log_concave_hull(Sc)
        xs = np.sort(np.concatenate([Sc.knots, 0.5 * (Sc.knots[:-1] + Sc.knots[1:])]))
        bound = []
        for x in xs:
            with span("bounds.tail_bound"):
                bound.append(bound_fn(cond, x, hull=hull).value)
        with span("verify.exact_tail_many"):
            tails = exact_tail_many(tree, xs)
        out["dominance"] = (xs, tails, np.array(bound), levels)
        return out

    def check(self, inp, out):
        _require(all(out["lemma41"]), f"lemma41 domination/convexity/idempotence {out['lemma41']}")
        for name in ("lemma43", "lemma44", "lemma46"):
            _require(out[name], f"{name} domination failed")
        xs45, t = inp["lemma45"]
        paths_T = oracle.two_point_paths([(-x, 1.0, x / (1.0 + x)) for x in xs45])
        a = float(np.mean(xs45))
        n = len(xs45)
        q = a / (1.0 + a)
        paths_S = [(k - (n - k) * a, math.comb(n, k) * q**k * (1.0 - q) ** (n - k)) for k in range(n + 1)]
        e_T = oracle.plus_square(paths_T, t)
        e_S = oracle.plus_square(paths_S, t)
        _require(out["lemma45"] == (e_T <= e_S + 1e-10), "schur_check verdict differs from enumeration")
        _require(out["lemma45"], "lemma45 spreading check failed")
        _require(_close(out["lemma45_T"], e_T, 1e-9, 1e-12), f"convolved E(T-t)^2 {out['lemma45_T']} vs {e_T}")
        xs, tails, bound, levels = out["dominance"]
        leaves = oracle.leaf_paths(levels)
        for x, tail, b in zip(xs, tails, bound):
            ref = sum(prob for s, prob in leaves if s >= x)
            _require(_close(tail, ref, 1e-9, 1e-12), f"exact tail {tail} vs enumeration {ref} at x={x}")
            _require(tail <= b + 1e-12, f"tail {tail} above bound {b} at x={x}")

    def replay(self, inp, out, span):
        pass


WORKLOADS = {w.name: w for w in (BoundTable, Confidence, Moment, Verify)}
