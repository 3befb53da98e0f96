"""Tail bounds for martingales with bounded differences.

The library builds exact two-point atoms and their sums, takes log-concave
hulls of discrete survival functions, evaluates the explicit bound families
that dominate martingale tails by Bernoulli-sum tails, and verifies every
extremal claim by brute force at desk scale.
"""

from .distributions import (
    DiscreteDist,
    StepSurvival,
    TwoPointDist,
    binomial_log_survival,
    convolve,
    gaussian_survival,
    iid_sum_dist,
    iid_sum_survival,
    poisson_log_survival,
    poisson_survival,
    two_point_from_range,
    two_point_from_variance,
)
from .hull import (
    LogLinearHull,
    binomial_hull_log_eval,
    eval_hull,
    is_log_concave_discrete,
    linear_envelope_eval,
    log_concave_hull,
    log_eval_hull,
    poisson_hull_eval,
    poisson_hull_log_eval,
)
from .fracmoment import (
    lhs_inf,
    lhs_inf_sweep,
    margin_sweep,
    moment_constant,
    rhs_bound,
    step_integral_moment,
)
from .bounds import (
    RANGE_CONST,
    RANGE_POISSON_CONST,
    SYMMETRIC_CONST,
    VARIANCE_CONST,
    BoundResult,
    MartingaleConditions,
    comparison_atom,
    comparison_hull,
    exact_n1_range,
    exact_n1_variance,
    fractional_moment_bound,
    gaussian_tail_upper,
    hoeffding_H,
    hoeffding_log_H,
    hoeffding_tail_range,
    hoeffding_tail_variance,
    invert_for_confidence,
    mgf_bound,
    paulauskas_g,
    poisson_tail_rough,
    tail_bound_range,
    tail_bound_range_poisson,
    tail_bound_symmetric,
    tail_bound_symmetric_gaussian,
    tail_bound_variance,
    tail_bound_variance_poisson,
)
from .verify import (
    MartingaleTree,
    SearchReport,
    TreeNode,
    VerificationError,
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
from .suites import SUITE_NAMES, SuiteResult, monte_carlo_dominance_rows, run_suite

__version__ = "0.1.0"
