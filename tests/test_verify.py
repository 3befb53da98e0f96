"""Tests for the exact-enumeration, search, and property-check machinery."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from tailbounds.distributions import (
    DiscreteDist,
    convolve,
    poisson_log_survival,
    two_point_from_range,
    two_point_from_variance,
)
from tailbounds.bounds import (
    VARIANCE_CONST,
    MartingaleConditions,
    exact_n1_range,
    exact_n1_variance,
    hoeffding_H,
)
from tailbounds import suites, verify
from tailbounds.suites import run_suite
from tailbounds.verify import (
    MartingaleTree,
    SearchReport,
    TreeNode,
    _domination_kernel,
    _path_tails,
    _random_centered_law,
    _two_point_nodes,
    _two_point_paths,
    c1_search,
    ceil_safe,
    convex_domination_check,
    convolution_log_concavity_check,
    exact_tail,
    exact_tail_many,
    hoeffding_optimality_sequence,
    hull_necessity_ratio,
    iid_grid_sampler,
    iid_tree,
    monte_carlo_tail,
    poisson_limit_check,
    random_centered_dist_bounded,
    random_centered_dist_in_range,
    schur_check,
    worst_case_search,
)


class TestTrees:
    def test_single_atom_tail(self):
        tree = iid_tree(two_point_from_variance(1.0, 1.0), 1)
        assert exact_tail(tree, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_depth2_fair_half(self):
        tree = iid_tree(two_point_from_range(-0.5, 0.5), 2)
        assert exact_tail(tree, 1.0) == pytest.approx(0.25, rel=1e-13)
        assert exact_tail(tree, -5.0) == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(
            exact_tail_many(tree, [-1.0, 0.0, 1.0]), [1.0, 0.75, 0.25], rtol=1e-13
        )

    def test_matches_convolution(self):
        # thresholds sit just below the knots: path sums and convolution knots
        # are different roundings of the same reals, so evaluating exactly at
        # a jump point is ambiguous at the last bit
        d = two_point_from_variance(0.37, 0.9)
        tree = iid_tree(d, 6)
        S = convolve(
            DiscreteDist.from_two_point(d),
            DiscreteDist.from_two_point(d),
        )
        for _ in range(4):
            S = convolve(S, DiscreteDist.from_two_point(d))
        surv = S.survival()
        xs = np.concatenate([surv.knots - 1e-9, 0.5 * (surv.knots[:-1] + surv.knots[1:])])
        np.testing.assert_allclose(exact_tail_many(tree, xs), surv.eval(xs), rtol=1e-11)

    def test_leaf_limit(self):
        with pytest.raises(ValueError):
            iid_tree(two_point_from_range(-1.0, 1.0), 21)  # 2^21 leaves

    def test_rejects_non_martingale_node(self):
        with pytest.raises(ValueError):
            TreeNode(np.array([-1.0, 1.0]), np.array([0.3, 0.7]))

    @pytest.mark.parametrize(
        "values, probs",
        [
            ([-1.0, 1.0], [0.5, math.nan]),
            ([-1.0, 1.0], [math.nan, math.nan]),
            ([-1.0, math.nan], [0.5, 0.5]),
            ([-math.inf, 1.0], [0.5, 0.5]),
        ],
    )
    def test_rejects_non_finite(self, values, probs):
        with pytest.raises(ValueError):
            TreeNode(np.array(values), np.array(probs))

    def test_one_threshold_gives_a_float(self):
        # one threshold used to come back as a one-element array
        tree = iid_tree(two_point_from_variance(0.37, 0.9), 5)
        xs = np.linspace(-2.0, 3.0, 17)
        scalars = [exact_tail_many(tree, float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array(scalars).tobytes() == exact_tail_many(tree, xs).tobytes()
        assert [exact_tail(tree, float(x)) for x in xs] == scalars

    def test_rejects_nan_threshold(self):
        tree = iid_tree(two_point_from_range(-0.5, 0.5), 2)
        with pytest.raises(ValueError, match="threshold x must not be NaN"):
            exact_tail_many(tree, [math.nan, 0.0])
        # infinite thresholds keep their meaning: every path, then none
        np.testing.assert_array_equal(exact_tail_many(tree, [-math.inf, math.inf]), [1.0, 0.0])

    def test_condition_tagging(self):
        cond = MartingaleConditions.range_condition([0.5, 0.5])
        good = iid_tree(two_point_from_range(-0.5, 0.5), 2, condition=cond)
        assert good.depth == 2
        with pytest.raises(ValueError):
            iid_tree(two_point_from_range(-0.8, 0.2), 2, condition=cond)

    def test_per_k_condition_is_checked(self):
        cond = MartingaleConditions.per_k([0.5], [0.01])
        with pytest.raises(ValueError, match="above b"):
            MartingaleTree(TreeNode([-5.0, 5.0], [0.5, 0.5]), depth=1, condition=cond)
        with pytest.raises(ValueError, match="variance"):
            MartingaleTree(TreeNode([-0.5, 0.5], [0.5, 0.5]), depth=1, condition=cond)
        assert MartingaleTree(TreeNode([-0.1, 0.1], [0.5, 0.5]), depth=1, condition=cond).depth == 1

    def test_symmetric_condition_is_checked(self):
        cond = MartingaleConditions.symmetric([0.5])
        with pytest.raises(ValueError, match="above cap"):
            MartingaleTree(TreeNode([-0.6, 0.6], [0.5, 0.5]), depth=1, condition=cond)
        assert MartingaleTree(TreeNode([-0.5, 0.5], [0.5, 0.5]), depth=1, condition=cond).depth == 1

    def test_rejects_children_that_are_not_nodes(self):
        with pytest.raises(ValueError, match="TreeNode"):
            TreeNode([-1.0, 1.0], [0.5, 0.5], children=(1, 2))

    @pytest.mark.parametrize("depth", [2.5, 1.0])
    def test_rejects_non_integer_depth(self, depth):
        with pytest.raises(ValueError, match="integer"):
            MartingaleTree(TreeNode([-1.0, 1.0], [0.5, 0.5]), depth=depth)

    @pytest.mark.parametrize("n", [1, 3])
    def test_condition_must_match_depth(self, n):
        # too short leaves the last steps uncapped; too long caps steps the tree lacks
        cond = MartingaleConditions.range_condition(np.full(n, 0.5))
        with pytest.raises(ValueError, match="depth"):
            iid_tree(two_point_from_range(-0.5, 0.5), 2, condition=cond)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_depth_must_match_tree(self, depth):
        root = TreeNode([-1.0, 1.0], [0.5, 0.5], children=(TreeNode([-1.0, 1.0], [0.5, 0.5]),) * 2)
        with pytest.raises(ValueError):
            MartingaleTree(root, depth=depth)


def _node_tree(cond, scales):
    """Reference tree from breadth-first node scales, built node by node."""

    def build(level, index):
        su, sv = scales[2**level - 1 + index]
        if cond.variant == "range":
            p = cond.ps[level]
            atom = two_point_from_range(-p * su, (1.0 - p) * sv)
        else:
            atom = two_point_from_variance(cond.sigma2s[level] * su, cond.b * sv)
        values = [atom.v_lo, atom.v_hi]
        probs = [1.0 - atom.p_hi, atom.p_hi]
        if level == cond.n - 1:
            return TreeNode(values, probs)
        return TreeNode(values, probs, children=(build(level + 1, 2 * index), build(level + 1, 2 * index + 1)))

    return MartingaleTree(build(0, 0), depth=cond.n, condition=cond)


class TestTwoPointEngine:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["range", "variance"])
    def test_matches_tree_nodes(self, depth, variant):
        rng = np.random.default_rng(depth)
        if variant == "range":
            cond = MartingaleConditions.range_condition(rng.uniform(0.1, 0.9, depth))
        else:
            cond = MartingaleConditions.one_sided_variance(1.3, rng.uniform(0.1, 2.0, depth))
        scales = rng.uniform(0.02, 1.0, (20, 2**depth - 1, 2))
        sums, logps = _two_point_paths(*_two_point_nodes(cond, scales))
        assert sums.shape == logps.shape == (20, 2**depth)
        for row, sc in enumerate(scales):
            tree = _node_tree(cond, sc)
            ref_sums = np.sort(tree._sums)
            np.testing.assert_array_equal(np.sort(sums[row]), ref_sums)
            # every path sum (>= ties), midpoints, and both sides of the support
            xs = np.concatenate(
                [ref_sums, 0.5 * (ref_sums[1:] + ref_sums[:-1]), [ref_sums[0] - 1.0, ref_sums[-1] + 1.0]]
            )
            tails = _path_tails(sums[row], logps[row], xs)
            np.testing.assert_allclose(tails, exact_tail_many(tree, xs), rtol=0, atol=1e-13)
            assert tails[-2] == pytest.approx(1.0, abs=1e-13)
            assert tails[-1] == 0.0
        batch = _path_tails(sums, logps, xs)
        np.testing.assert_array_equal(batch[-1], _path_tails(sums[-1], logps[-1], xs))

    def test_rejects_non_centered_node(self):
        values = np.array([[-1.0, 1.0]])
        with pytest.raises(ValueError, match="mean"):
            _two_point_paths(values, np.array([0.7]))
        with pytest.raises(ValueError, match="probabilities"):
            _two_point_paths(values, np.array([1.5]))
        with pytest.raises(ValueError, match="probabilities"):
            _two_point_paths(values, np.array([np.nan]))

    def test_exact_tail_many_matches_threshold_loop(self):
        # unsorted, repeated and infinite thresholds on a three-point iid tree
        d = DiscreteDist.from_probs([-1.0, 0.25, 2.0], [0.3, 0.6, 0.1])
        d = DiscreteDist(d.support - d.mean, d.logp)
        tree = iid_tree(d, 6)
        sums, logps = tree._sums, tree._logps
        rng = np.random.default_rng(4)
        xs = np.concatenate([rng.choice(sums, 30), rng.uniform(-8.0, 14.0, 30), [np.inf, -np.inf, 0.0, 0.0]])
        ref = [math.exp(np.logaddexp.reduce(logps[sums >= x])) if np.any(sums >= x) else 0.0 for x in xs]
        np.testing.assert_allclose(exact_tail_many(tree, xs), ref, rtol=1e-13, atol=1e-300)


def _paths_node_by_node(tree):
    """Reference path enumeration: every node visited, depth first, root first."""
    sums, logps = [], []
    stack = [(tree.root, 0.0, 0.0)]
    while stack:
        node, acc, logp = stack.pop()
        vals, logs = acc + node.values, logp + np.log(node.probs)
        if node.children is None:
            sums.append(vals)
            logps.append(logs)
        else:
            stack.extend(zip(node.children, vals, logs))
    return np.concatenate(sums), np.concatenate(logps)


def _random_three_point_tree(rng, depth):
    """Depth-``depth`` tree with a fresh centered three-point law at every node."""
    probs = rng.dirichlet(np.ones(3))
    values = rng.uniform(-1.0, 1.0, 3)
    values -= values @ probs
    if depth == 1:
        return TreeNode(values, probs)
    children = tuple(_random_three_point_tree(rng, depth - 1) for _ in range(3))
    return TreeNode(values, probs, children=children)


class TestPaths:
    @pytest.mark.parametrize("shared", [True, False])
    def test_same_pairs_as_node_by_node_walk(self, shared):
        if shared:
            tree = iid_tree(two_point_from_variance(0.37, 0.9), 12)
        else:
            tree = MartingaleTree(_random_three_point_tree(np.random.default_rng(8), 4), depth=4)
        sums, logps = tree._sums, tree._logps
        ref_sums, ref_logps = _paths_node_by_node(tree)
        # the multiset of (sum, log-prob) pairs is bitwise the same
        order, ref_order = np.lexsort((logps, sums)), np.lexsort((ref_logps, ref_sums))
        np.testing.assert_array_equal(sums[order], ref_sums[ref_order])
        np.testing.assert_array_equal(logps[order], ref_logps[ref_order])
        # tied sums may be added in another order, so tails agree to rounding
        xs = np.concatenate([np.unique(ref_sums), [ref_sums.min() - 1.0, ref_sums.max() + 1.0]])
        np.testing.assert_allclose(
            exact_tail_many(tree, xs), _path_tails(ref_sums, ref_logps, xs), rtol=0, atol=1e-13
        )


def _grid_laws(cond, k, h):
    """The zero step and every two-point grid law {-u h, v h} that step k admits."""

    def admissible(u, v):
        if cond.variant == "range":
            return v * h <= 1.0 - cond.ps[k] + 1e-12 and u * h <= cond.ps[k] + 1e-12
        return v * h <= cond.b + 1e-12 and u * v * h * h <= cond.sigma2s[k] + 1e-12

    laws = [([0.0], [1.0])]
    v = 1
    while admissible(1, v):
        u = 1
        while admissible(u, v):
            laws.append(([-u * h, v * h], [v / (u + v), u / (u + v)]))
            u += 1
        v += 1
    return laws


def _random_grid_node(rng, laws, k=0):
    """A random subtree from step k on, each node drawn from that step's ``laws``."""
    values, probs = laws[k][int(rng.integers(len(laws[k])))]
    kids = None
    if k + 1 < len(laws):
        kids = tuple(_random_grid_node(rng, laws, k + 1) for _ in values)
    return TreeNode(values, probs, children=kids)


class TestWorstCaseSearch:
    def test_n1_variance_attains_exact(self):
        cond = MartingaleConditions.one_sided_variance(1.0, [1.0])
        report = worst_case_search(cond, 1.0)
        assert report.best_tail == pytest.approx(0.5, abs=1e-9)
        assert report.ratio <= 1.0

    def test_n1_range_attains_exact(self):
        cond = MartingaleConditions.range_condition([0.5])
        report = worst_case_search(cond, 0.5)
        assert report.best_tail == pytest.approx(0.5, abs=1e-9)

    def test_n2_range_stays_below_bound(self):
        cond = MartingaleConditions.range_condition([0.5, 0.5])
        for x in (0.25, 0.5, 0.75, 1.0):
            report = worst_case_search(cond, x)
            assert report.ratio < 1.0

    # old_tail: the tail the earlier local search reported; the induction must match or beat it.
    # The ids are the names these cases had under that search: variant, caps, x, its seed/budget
    # keyword set, its evaluation count and its tail. Rows 6 to 8 repeat rows 0, 3 and 5, which it
    # ran again at a second seed; the induction takes no seed and must give the same answers.
    @pytest.mark.parametrize(
        "variant, caps, x, old_tail, best_tail, evaluations",
        [
            pytest.param("variance", [1.0], 1.0, 0.5, 0.5, 67199, id="variance-caps0-1.0-kwargs0-2608-0.5"),
            pytest.param("range", [0.5], 0.5, 0.5, 0.5, 8400, id="range-caps1-0.5-kwargs1-2608-0.5"),
            pytest.param(
                "range",
                [0.5, 0.5],
                0.25,
                0.6666660000006667,
                0.75,
                32800,
                id="range-caps2-0.25-kwargs2-4039-0.6666660000006667",
            ),
            pytest.param(
                "range",
                [0.5, 0.5],
                0.5,
                0.49999950000050003,
                0.5,
                32800,
                id="range-caps3-0.5-kwargs3-4039-0.49999950000050003",
            ),
            pytest.param(
                "range",
                [0.5, 0.5],
                0.75,
                0.33333322222225925,
                1 / 3,
                32800,
                id="range-caps4-0.75-kwargs4-4039-0.33333322222225925",
            ),
            pytest.param("range", [0.5, 0.5], 1.0, 0.25, 0.25, 32800, id="range-caps5-1.0-kwargs5-3519-0.25"),
            pytest.param("variance", [1.0], 1.0, 0.5, 0.5, 67199, id="variance-caps6-1.0-kwargs6-2608-0.5"),
            pytest.param(
                "range",
                [0.5, 0.5],
                0.5,
                0.49999950000050003,
                0.5,
                32800,
                id="range-caps7-0.5-kwargs7-6054-0.49999950000050003",
            ),
            pytest.param("range", [0.5, 0.5], 1.0, 0.25, 0.25, 32800, id="range-caps8-1.0-kwargs8-3519-0.25"),
            pytest.param(
                "variance",
                [0.5, 1.0, 0.3],
                0.9,
                0.591414572733837,
                0.6619713517743526,
                849662,
                id="variance-caps9-0.9-kwargs9-6055-0.591414572733837",
            ),
        ],
    )
    def test_pinned_evaluations_and_tails(self, variant, caps, x, old_tail, best_tail, evaluations):
        if variant == "range":
            cond = MartingaleConditions.range_condition(caps)
        else:
            cond = MartingaleConditions.one_sided_variance(1.0, caps)
        report = worst_case_search(cond, x)
        assert report.evaluations == evaluations
        assert report.best_tail == pytest.approx(best_tail, abs=1e-12)
        assert report.best_tail >= old_tail
        assert report.params == {"x": x, "grid_step": 1.0 / 40}

    def test_instances_a_local_search_misses(self):
        cond = MartingaleConditions.range_condition([0.5, 0.5])
        assert worst_case_search(cond, 0.35).best_tail == pytest.approx(0.65, abs=1e-12)
        # step to +0.35 w.p. 0.3 or to -0.15, then from -0.15 a fair +-0.5 step
        tree = MartingaleTree(
            TreeNode([-0.15, 0.35], [0.7, 0.3], (TreeNode([-0.5, 0.5], [0.5, 0.5]), TreeNode([0.0], [1.0]))),
            2,
            cond,
        )
        assert exact_tail(tree, 0.35) == pytest.approx(0.65, abs=1e-12)
        cond = MartingaleConditions.range_condition([0.3] * 3)
        assert worst_case_search(cond, 1.2).best_tail == pytest.approx(163 / 900, abs=1e-12)

    @pytest.mark.parametrize(
        "cond",
        [
            MartingaleConditions.range_condition([0.5]),
            MartingaleConditions.range_condition([0.5, 0.5]),
            MartingaleConditions.range_condition([0.25, 0.75]),
            MartingaleConditions.one_sided_variance(1.0, [0.5, 0.3]),
            MartingaleConditions.one_sided_variance(0.5, [0.1, 0.05]),
            # laws whose lower atom lies below the whole window
            MartingaleConditions.one_sided_variance(1.0, [2.0]),
            MartingaleConditions.one_sided_variance(1.0, [1.0, 0.3]),
        ],
        ids=["range-n1", "range-n2", "range-n2-mixed", "variance-n2", "variance-n2-b0.5", "deep-n1", "deep-n2"],
    )
    def test_equals_every_tree_of_grid_laws(self, monkeypatch, cond):
        # at G = 4 every depth <= 2 tree of admissible two-point grid laws is enumerable
        monkeypatch.setattr(verify, "_GRID", 4)
        h = (1.0 if cond.variant == "range" else cond.b) / 4
        xs = np.arange(-1.5, 4 * cond.n + 1.5, 0.5) * h
        best = np.zeros(xs.size)
        for values, probs in _grid_laws(cond, 0, h):
            if cond.n == 1:
                trees = [TreeNode(values, probs)]
            else:
                kid_laws = _grid_laws(cond, 1, h)
                trees = [
                    TreeNode(values, probs, tuple(TreeNode(*kid_laws[i]) for i in pick))
                    for pick in itertools.product(range(len(kid_laws)), repeat=len(values))
                ]
            for root in trees:
                best = np.maximum(best, exact_tail_many(MartingaleTree(root, cond.n, cond), xs))
        induced = [worst_case_search(cond, float(x)).best_tail for x in xs]
        np.testing.assert_allclose(induced, best, rtol=0, atol=1e-12)

    def test_random_grid_trees_stay_below(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                cond = MartingaleConditions.range_condition(rng.integers(1, 40, n) / 40)
                h = 1 / 40
            else:
                b = float(rng.uniform(0.5, 2.0))
                cond = MartingaleConditions.one_sided_variance(b, rng.uniform(0.0, 0.5, n) * b * b)
                h = b / 40
            laws = [_grid_laws(cond, k, h) for k in range(n)]
            tree = MartingaleTree(_random_grid_node(rng, laws), n, cond)
            for j in rng.integers(-2, 40 * n + 2, 4):
                x = float(j * h)
                assert exact_tail(tree, x) <= worst_case_search(cond, x).best_tail + 1e-12

    def test_n1_equals_the_exact_extremes_on_the_grid(self):
        # the extremal atom {-p, x} or {-sigma2/x, x} has both points on the grid
        for p in (0.25, 0.375, 0.5, 0.75):
            cond = MartingaleConditions.range_condition([p])
            for j in range(1, round(40 * (1 - p)) + 1):
                x = j / 40
                assert worst_case_search(cond, x).best_tail == pytest.approx(
                    exact_n1_range(-p, 1 - p, x), abs=1e-15
                )
        cond = MartingaleConditions.one_sided_variance(1.0, [1.0])
        for v in (1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 40):
            x = v / 40
            assert worst_case_search(cond, x).best_tail == pytest.approx(exact_n1_variance(1.0, 1.0, x), abs=1e-15)

    def test_zero_cap_step(self):
        # a zero variance cap or p = 0 pins that step's difference at 0
        cond = MartingaleConditions.one_sided_variance(1.0, [0.0, 1.0])
        assert worst_case_search(cond, 0.5).best_tail == pytest.approx(0.8, abs=1e-12)
        cond = MartingaleConditions.range_condition([0.0, 0.5])
        assert worst_case_search(cond, 0.5).best_tail == pytest.approx(0.5, abs=1e-12)

    def test_threshold_above_every_path(self):
        # the best tail and the bound are both 0 there: ratio 0, no violation
        for cond, x in (
            (MartingaleConditions.one_sided_variance(1.0, [1.0]), 1.07),
            (MartingaleConditions.range_condition([0.3]), 0.75),
        ):
            report = worst_case_search(cond, x)
            assert report.best_tail == 0.0
            assert report.bound_value == 0.0
            assert report.ratio == 0.0
            assert report.evaluations == 0
        assert SearchReport(1e-3, 0.0, {}, 1).ratio == math.inf

    def test_rejects_deep_trees(self):
        # depth is no limit by itself: trees of depth 4 to 8 run
        for n in range(4, 9):
            for cond in (
                MartingaleConditions.range_condition([0.5] * n),
                MartingaleConditions.one_sided_variance(1.0, [0.5] * n),
            ):
                report = worst_case_search(cond, 1.0)
                assert 0.0 < report.best_tail and report.ratio <= 1.0
        # a pass over the cell cap is refused before it runs
        with pytest.raises(ValueError, match="cells"):
            worst_case_search(MartingaleConditions.range_condition([0.5] * 200), 1.0)


class TestC1Search:
    def test_reproduces_published_constant(self):
        estimate = c1_search()
        assert abs(estimate - 1.555884) < 2e-3
        assert 1.55 <= estimate <= 1.56
        assert estimate < VARIANCE_CONST

    def test_matches_profile_maximum(self):
        assert c1_search() == pytest.approx(1.55588367083, abs=1e-9)

    def test_unit_ratio_point(self):
        # at sigma2 = 1, x = 1 both sides hit the atom: ratio exactly 1
        from tailbounds.verify import _c1_ratio

        assert _c1_ratio(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


class TestSchur:
    def test_equal_parameters_give_equality(self):
        xs = np.array([0.6, 0.6, 0.6])
        assert schur_check(xs, 0.4)

    def test_spread_strictly_below(self):
        # frozen 4-point oracle: E f(T2) = 0.5215311..., E f(S2) = 5/9
        def theta(xk):
            return [(-xk, 1.0 / (1.0 + xk)), (1.0, xk / (1.0 + xk))]

        pairs = {}
        for v1, p1 in theta(0.1):
            for v2, p2 in theta(0.9):
                pairs[v1 + v2] = pairs.get(v1 + v2, 0.0) + p1 * p2
        e_t = sum(p * max(v, 0.0) ** 2 for v, p in pairs.items())
        assert e_t == pytest.approx(0.521531100478469, rel=1e-12)
        assert e_t < 5.0 / 9.0
        assert schur_check(np.array([0.1, 0.9]), 0.0)

    def test_zero_parameters(self):
        assert schur_check(np.array([0.0, 0.0]), -0.5)
        assert schur_check(np.array([0.0, 1.0]), 0.2)

    def test_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            xs = rng.uniform(0.0, 2.0, n)
            t = float(rng.uniform(-2.0 * n, n + 1.0))
            assert schur_check(xs, t)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schur_check(np.array([-0.1, 0.5]), 0.0)
        with pytest.raises(ValueError):
            schur_check(np.ones(9), 0.0)

    @pytest.mark.parametrize(
        "xs, t",
        [
            ([], 0.0),
            ([[0.5, 0.5]], 0.0),
            ([0.5, math.nan], 0.0),
            ([0.5, math.inf], 0.0),
            ([0.5, 0.5], math.nan),
            ([0.5, 0.5], math.inf),
        ],
    )
    def test_rejects_empty_or_non_finite_input(self, xs, t):
        with pytest.raises(ValueError):
            schur_check(np.array(xs), t)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_verdict_matches_path_enumeration(self, n):
        # independent oracle: a plain loop over all 2^n up/down choices, with
        # the slack set just above and just below e_T - e_S so both verdicts occur
        def e_plus_sq(ps, t):
            total = 0.0
            for ups in itertools.product((False, True), repeat=n):
                prob, s = 1.0, 0.0
                for up, x in zip(ups, ps):
                    prob *= x / (1.0 + x) if up else 1.0 / (1.0 + x)
                    s += 1.0 if up else -x
                total += prob * max(s - t, 0.0) ** 2
            return total

        rng = np.random.default_rng(100 + n)
        draws = [rng.uniform(0.0, 2.0, n) for _ in range(3)]
        draws[1][rng.uniform(size=n) < 0.5] = 0.0
        draws += [np.zeros(n), np.full(n, 0.7)]
        for xs in draws:
            for t in (-2.0 * n, -0.5, 0.0, 0.3, 1.0, float(rng.uniform(-n, n))):
                e_T = e_plus_sq(xs, t)
                e_S = e_plus_sq(np.full(n, np.mean(xs)), t)
                for s in (e_T - e_S + 1e-9 * max(1.0, e_S), e_T - e_S - 1e-9 * max(1.0, e_S)):
                    assert schur_check(xs, t, slack=s) == (e_T <= e_S + s)


class TestConvexDomination:
    def test_atom_dominates_itself(self):
        atom = DiscreteDist.from_two_point(two_point_from_range(-0.5, 0.5))
        assert convex_domination_check("convex", atom, {"a": -0.5, "b": 0.5})

    def test_uniform_three_point_example(self):
        X = DiscreteDist.from_probs([-0.5, 0.0, 0.5], [1 / 3, 1 / 3, 1 / 3])
        # hinge at the origin: E(X)_+ = 1/6 against the atom's 1/4
        assert float(X.probs @ np.clip(X.support, 0, None)) == pytest.approx(1 / 6, rel=1e-14)
        assert convex_domination_check("convex", X, {"a": -0.5, "b": 0.5})

    def test_moment_and_symmetric_families(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            sigma2 = float(rng.uniform(0.05, 2.0))
            b = float(rng.uniform(0.1, 1.5))
            X = random_centered_dist_bounded(rng, sigma2, b)
            assert convex_domination_check("moment", X, {"sigma2": sigma2, "b": b})
            assert convex_domination_check("symmetric", X, {"sigma2": sigma2, "b": b})

    @pytest.mark.parametrize("family", ["convex", "moment", "symmetric"])
    def test_verdict_matches_reference(self, family):
        # independent oracle: each test function's expectation summed point by
        # point against the atom built as a DiscreteDist, with the slack set
        # just above and just below the largest excess so both verdicts occur
        def expect(d, f):
            return math.fsum(p * f(z) for z, p in zip(d.support.tolist(), d.probs.tolist()))

        rng = np.random.default_rng({"convex": 41, "moment": 42, "symmetric": 43}[family])
        for _ in range(60):
            b = float(rng.uniform(0.05, 2.0))
            if family == "convex":
                a = -float(rng.uniform(0.05, 2.0))
                X, params = random_centered_dist_in_range(rng, a, b), {"a": a, "b": b}
                atom = two_point_from_range(a, b)
                ts = np.linspace(a - 0.5 * (b - a), b + 0.25 * (b - a), 41)
                rows = [(lambda z, t=t: max(z - t, 0.0), 1.0) for t in ts]
            else:
                sigma2 = float(rng.uniform(0.01, 4.0))
                X, params = random_centered_dist_bounded(rng, sigma2, b), {"sigma2": sigma2, "b": b}
                h = b if family == "moment" else max(math.sqrt(sigma2), b)
                atom = two_point_from_variance(sigma2 if family == "moment" else h * h, h)
                lo, hi = min(X.support[0], atom.v_lo), max(X.support[-1], atom.v_hi)
                width = max(hi - lo, 1e-6)
                ts = np.linspace(lo - 0.5 * width, hi + 0.25 * width, 21)
                powers = [(lambda z, t=t, s=s: max(z - t, 0.0) ** s) for s in (2.0, 2.5, 3.0) for t in ts]
                exps = [(lambda z, h=h: math.exp(h * z)) for h in (0.1, 0.5, 1.0, 2.0, 4.0)]
                rows = [(f, 1.0) for f in powers] + [(f, 1.0 + 1e-12) for f in exps]
            A = DiscreteDist.from_two_point(atom)
            excess = max(expect(X, f) - expect(A, f) * factor for f, factor in rows)
            delta = 1e-9 * max(1.0, max(expect(A, f) for f, _ in rows))
            assert convex_domination_check(family, X, params, slack=excess + delta)
            assert not convex_domination_check(family, X, params, slack=excess - delta)

    def test_batch_flags_exactly_the_failing_rows(self):
        # a mean of 5e-13 is inside the 1e-12 centering tolerance but lifts the
        # hinges left of the support 5e-13 above the atom's, beyond the slack
        rng = np.random.default_rng(17)
        a, b, rows = np.zeros(40), np.zeros(40), np.zeros((40, 2, 7))
        for i in range(40):
            a[i], b[i] = -float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5))
            rows[i] = _random_centered_law(rng, "convex", a[i], b[i])
            if i % 3 == 0:
                rows[i, 0] += 5e-13 * (rows[i, 1] > 0)
        support, probs = rows[:, 0], rows[:, 1]
        verdicts = _domination_kernel("convex", support, probs, a, b, 1e-13)
        np.testing.assert_array_equal(verdicts, np.arange(40) % 3 != 0)
        singles = [
            convex_domination_check("convex", DiscreteDist.from_probs(*row), {"a": a_i, "b": b_i}, slack=1e-13)
            for row, a_i, b_i in zip(rows, a, b)
        ]
        np.testing.assert_array_equal(verdicts, singles)
        assert all(_domination_kernel("convex", support, probs, a, b, 1e-10))

    def test_kernel_refuses_a_row_that_is_not_a_law(self):
        # suite rows reach the kernel without passing through DiscreteDist
        support = np.array([[-0.5, 0.5, 0.0]])
        for probs in ([0.5, 0.5 + 1e-9, 0.0], [0.6, 0.6, -0.2]):
            with pytest.raises(ValueError, match="sum to 1"):
                _domination_kernel("convex", support, np.array([probs]), np.array([-1.0]), np.array([1.0]), 0.0)

    def test_precondition_violations_raise(self):
        X = DiscreteDist.from_probs([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            convex_domination_check("convex", X, {"a": -0.5, "b": 0.5})
        with pytest.raises(ValueError):
            convex_domination_check("moment", X, {"sigma2": 0.5, "b": 1.0})
        shifted = DiscreteDist.from_probs([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            convex_domination_check("convex", shifted, {"a": -1.0, "b": 1.0})


class TestConvolutionLogConcavity:
    def test_bernoulli_pair(self):
        assert convolution_log_concavity_check([0.7, 0.3], [0.7, 0.3])

    def test_flat_sequences(self):
        # (1,1,1) * (1,1,1) = (1,2,3,2,1), log-concave
        assert convolution_log_concavity_check([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            np.convolve([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]), [1, 2, 3, 2, 1]
        )

    def test_rejects_non_log_concave_input(self):
        with pytest.raises(ValueError):
            convolution_log_concavity_check([1.0, 0.1, 1.0], [1.0, 1.0])

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k1, k2 = rng.integers(2, 8, 2)
            p = np.exp(np.cumsum(np.sort(rng.normal(0, 1.2, int(k1)))[::-1]))
            q = np.exp(np.cumsum(np.sort(rng.normal(0, 1.2, int(k2)))[::-1]))
            assert convolution_log_concavity_check(p, q)


class TestHoeffdingOptimality:
    def test_rate_matches_kernel(self):
        p, z = 0.3, 0.5
        f = z * math.log(z / p) + (1 - z) * math.log((1 - z) / (1 - p))
        assert f == pytest.approx(0.08717669357238891, rel=1e-12)
        assert math.exp(-f) == pytest.approx(hoeffding_H(z, p), rel=1e-13)
        assert math.exp(-f) == pytest.approx(0.916515138991168, rel=1e-12)

    def test_sequence_run(self):
        gs, neg_f = hoeffding_optimality_sequence(0.3, 0.5, [1, 10, 100, 1000, 10_000, 100_000])
        assert gs[0] == pytest.approx(math.log(0.3), rel=1e-12)  # single trial
        assert np.all(gs <= neg_f + 1e-12)
        assert abs(gs[-1] - neg_f) < 1e-2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hoeffding_optimality_sequence(0.5, 0.3, [10])


class TestHullNecessity:
    def test_values(self):
        assert hull_necessity_ratio(1.0) == 2.0
        assert hull_necessity_ratio(1e-6) == pytest.approx(1e6 + 1.0, rel=1e-12)
        assert hull_necessity_ratio(1e-6) > 1e6

    def test_decreasing(self):
        grid = np.geomspace(1e-6, 1e4, 50)
        vals = [hull_necessity_ratio(float(s)) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPoissonLimit:
    def test_gap_sequence(self):
        gaps = poisson_limit_check(10, 1.0, 1.0, [100, 1000, 10_000], 1.0)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-3
        # frozen from the exact binomial/poisson tails
        assert gaps[0] == pytest.approx(0.0033317478208, rel=1e-6)

    def test_target_is_poisson_tail(self):
        from tailbounds.distributions import poisson_survival

        lam, x = 1.0, 1.0
        target = poisson_survival(lam, ceil_safe(lam + x))
        assert target == pytest.approx(float(stats.poisson.sf(1, 1.0)), rel=1e-12)


class TestMonteCarlo:
    def test_degenerate_zero_martingale(self):
        sampler = lambda rng, size: np.zeros(size)
        estimate, se = monte_carlo_tail(sampler, 10_000, 0.5, seed=1)
        assert estimate == 0.0 and se == 0.0

    def test_fair_coin_sum_includes_zero_atom(self):
        sampler = iid_grid_sampler(np.array([-1.0, 1.0]), 100)
        estimate, se = monte_carlo_tail(sampler, 100_000, 0.0, seed=42)
        exact = float(stats.binom.sf(49, 100, 0.5))
        assert exact == pytest.approx(0.5397946186935895, rel=1e-12)
        assert abs(estimate - exact) < 4.0 * se

    def test_deterministic_under_seed(self):
        sampler = iid_grid_sampler(np.array([-0.5, 0.0, 0.5]), 20)
        a = monte_carlo_tail(sampler, 20_000, 1.0, seed=9)
        b = monte_carlo_tail(sampler, 20_000, 1.0, seed=9)
        assert a == b

    def test_rejects_few_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_tail(lambda rng, size: np.zeros(size), 100, 0.0, seed=1)

    def test_rejects_nan_threshold(self):
        sampler = iid_grid_sampler(np.array([-1.0, 1.0]), 4)
        with pytest.raises(ValueError, match="NaN"):
            monte_carlo_tail(sampler, 10**4, math.nan, 0)


class TestRandomGenerators:
    def test_range_preconditions_hold(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            a = -float(rng.uniform(0.05, 2.0))
            b = float(rng.uniform(0.05, 2.0))
            X = random_centered_dist_in_range(rng, a, b)
            assert abs(X.mean) < 1e-12 * max(1.0, -a, b)
            assert X.support[0] >= a - 1e-12 and X.support[-1] <= b + 1e-12

    def test_bounded_preconditions_hold(self):
        rng = np.random.default_rng(35)
        for _ in range(500):
            sigma2 = float(rng.uniform(0.01, 4.0))
            b = float(rng.uniform(0.05, 2.0))
            X = random_centered_dist_bounded(rng, sigma2, b)
            assert abs(X.mean) < 1e-12
            assert X.support[-1] <= b + 1e-12
            assert float(X.probs @ X.support**2) <= sigma2 * (1 + 1e-12)


    @pytest.mark.parametrize("name, family", [("lemma43", "convex"), ("lemma44", "moment"), ("lemma46", "symmetric")])
    def test_suite_rows_meet_the_family_preconditions(self, name, family, monkeypatch):
        # the suite's rows reach the kernel without passing through DiscreteDist
        seen = []

        def kernel(*args):
            seen.append(args)
            return _domination_kernel(*args)

        monkeypatch.setattr(suites, "_domination_kernel", kernel)
        run_suite(name, seed=0)
        ((kernel_family, support, probs, first, b, _),) = seen
        assert kernel_family == family and support.shape == probs.shape == (10_000, 7)
        for first_i, b_i, row in zip(first, b, np.stack([support, probs], axis=1)):
            X = DiscreteDist.from_probs(*row)
            assert abs(X.mean) <= 1e-12 * max(1.0, np.abs(X.support).max())
            assert X.support[-1] <= b_i + 1e-12
            if family == "convex":
                assert X.support[0] >= first_i - 1e-12
            else:
                assert float(X.probs @ X.support**2) <= first_i * (1 + 1e-12)

    @pytest.mark.parametrize(
        "draw, params, digest",
        [
            (random_centered_dist_in_range, (-0.7, 1.3),
             "7a113a820da4eb9c33da671aba6f201d626495ab194734e64f33e9f687b19772"),
            (random_centered_dist_bounded, (0.8, 1.1),
             "d529a0a5ea4f0d6811f81150c5e7154f96c6edecc433f95d2ef22dcac006a9aa"),
        ],
    )
    def test_draw_stream_pinned(self, draw, params, digest):
        # the suite instances and the benchmark inputs are drawn from this stream
        rng = np.random.default_rng(2024)
        h = hashlib.sha256()
        for _ in range(1000):
            X = draw(rng, *params)
            h.update(X.support.tobytes())
            h.update(X.probs.tobytes())
        assert h.hexdigest() == digest


class TestCeilSafe:
    def test_float_noise(self):
        assert ceil_safe(0.4 * 100_000) == 40_000
        assert ceil_safe(2.0) == 2
        assert ceil_safe(2.0000000001) == 2  # within the slack
        assert ceil_safe(2.1) == 3


class TestRunSuite:
    def test_dominance_counts_pinned(self):
        (res,) = run_suite("dominance", seed=0)
        assert res.checks == 111_318
        assert res.info["trees"] == 23_100
        assert res.failures == []

    # seed-0 check counts, plus the info values that pin a suite's grid
    PINNED = {
        "lemma41": (8_010, {}),
        "lemma42": (41_592, {"instances": 220, "worst_margin": -1.7182818284590113e-50}),
        "lemma43": (10_000, {}),
        "lemma44": (10_000, {}),
        "lemma45": (10_000, {}),
        "lemma46": (10_000, {}),
        "lemma47": (2, {}),
        "lemma48": (3, {}),
        "c1": (1, {}),
        "poisson-limit": (9, {}),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_property_suite_counts_pinned(self, name):
        (res,) = run_suite(name, seed=0)
        checks, info = self.PINNED[name]
        assert res.checks == checks
        # rel 1e-12 leaves room for a last-bit difference in exp between machines
        assert {k: res.info[k] for k in info} == pytest.approx(info, rel=1e-12)
        assert res.failures == []

    def test_lemma41_poisson_survivals_read_the_scalar_tails(self):
        # one array call per lambda; the suite's verdicts rest on these values
        for lam in (0.25, 5.0, 40.0):
            S = suites._truncated_poisson_survival(lam)
            scalars = [poisson_log_survival(lam, int(k)) for k in S.knots]
            assert S.log_values.tobytes() == np.array(scalars).tobytes(), lam

    def test_rejects_unknown_keyword(self):
        with pytest.raises(TypeError):
            run_suite("lemma48", bogus=1)
        with pytest.raises(TypeError):
            run_suite("all", bogus=1)
        # the suite grids and sizes are fixed
        for name, key in (("lemma42", "n_max"), ("lemma42", "p_grid"), ("lemma42", "s_grid"),
                          ("dominance", "trees_per_cell"), ("dominance", "mc_trials"),
                          ("lemma43", "instances"), ("lemma45", "instances")):
            with pytest.raises(TypeError):
                run_suite(name, **{key: 1})
