"""Worst cases by backward induction, the n = 1 constant, and the two limit regimes.

Three questions a skeptic would ask, answered by computation:

* how much slack do the constants have at n = 1? (the worst ratio is
  1.555884, against the theorem's e^2/2 = 3.69);
* can the raw survival replace its hull? (no: the ratio blows up);
* do the Poisson and Gaussian coarsenings really arise as limits? (pad the
  martingale with zero steps and watch the gap close).
"""

import numpy as np

from tailbounds import (
    MartingaleConditions,
    VARIANCE_CONST,
    c1_search,
    exact_n1_variance,
    hull_necessity_ratio,
    poisson_limit_check,
    tail_bound_variance,
    tail_bound_variance_poisson,
    worst_case_search,
)

print("=== the n = 1 worst constant ===")
estimate = c1_search()
print(f"sup over sigma2 and x of [exact n=1 tail] / [hull factor] = {estimate:.6f}")
print(f"(the variance bound's constant is {VARIANCE_CONST:.6f}; the best possible")
print(" constant for any n is known to be at least 2, so the room left is small)")

print("\n=== worst cases over grid martingales, by backward induction ===")
cond = MartingaleConditions.one_sided_variance(1.0, [1.0])
report = worst_case_search(cond, 1.0)
print(f"n=1, variance condition, x=1: best tail {report.best_tail:.6f} "
      f"(exact extremal {exact_n1_variance(1.0, 1.0, 1.0):.6f}), "
      f"bound {report.bound_value:.4f}, ratio {report.ratio:.4f}")
cond2 = MartingaleConditions.range_condition([0.5, 0.5])
for x in (0.5, 1.0):
    rep = worst_case_search(cond2, x)
    print(f"n=2, range condition, x={x}: best tail {rep.best_tail:.6f}, "
          f"ratio to bound {rep.ratio:.4f} (< 1)")

print("\n=== why the hull is necessary ===")
for s2 in (1.0, 1e-2, 1e-6):
    print(f"sigma2={s2:<8}: P{{X>=0}}/P{{eps>=0}} can reach {hull_necessity_ratio(s2):.3e}")

print("\n=== the Poisson limit, watched directly ===")
gaps = poisson_limit_check(10, 1.0, 1.0, [100, 1000, 10_000], 1.0)
for m, gap in zip((100, 1000, 10_000), gaps):
    print(f"padding m={m:>6}: |binomial - poisson| = {gap:.3e}")

print("\n=== exploratory: is the finite-n bound always below its Poisson limit? ===")
cond = MartingaleConditions.one_sided_variance(1.0, np.full(5, 0.5))
worst = -np.inf
for x in np.linspace(-2.5, 5.0, 31):
    fine = tail_bound_variance(cond, float(x)).value
    coarse = tail_bound_variance_poisson(cond, float(x)).value
    worst = max(worst, fine - coarse)
print(f"max (finite-n bound - poisson coarsening) over the sweep: {worst:.3e}")
print("(not a claimed theorem; the coarsening exists to cover n = infinity)")
