"""
Exit times from shrinking projections and the hidden dimension
==============================================================

Continued-fraction denominators k_n of theta give reduced angles
v_n = ||k_n theta|| -> 0, and for each one a projection of trace v_n.  The
flow leaves such a projection at a mean time gamma_n that scales like
c_1 v_n^2, and the coefficients of the expansion encode geometric
invariants: an effective dimension d and a mean-curvature invariant H, as
if the algebra were a Riemannian submanifold probed by Brownian motion.

Pathwise, the operator-valued exit problem reduces exactly to a scalar
interval exit for the circle-valued average of the path.  One sampler below
checks both survival rules on the same paths, step by step.
"""

import math

from ncqbm.exit_times import (ExitFamily, classical_circle_benchmark,
                              extract_invariants, paper_series_check,
                              run_exit_asymptotics, run_survival_comparison)

family = ExitFamily.golden(6)
print("level  k_n   v_n")
for level in family.levels:
    print(f"  {level.index}    {level.k:>3}  {level.v:.9f}")

# Both survival rules on one simulated level: they give identical exit steps
# on every path, so the reduction is exact, not approximate.  The two
# estimators then differ by exactly the operator's truncated tail.
comparison = run_survival_comparison(family, index=2, n_paths=2000, seed=5)
print(f"indicators equal   : {comparison.indicators_equal} "
      f"(max step difference {comparison.max_step_difference})")
exact_gamma = family.levels[2].half_width ** 2 / comparison.reduced.sigma2
print(f"gamma reduced      : {comparison.reduced.gamma:.6e}")
print(f"gamma operator     : {comparison.operator.gamma:.6e} "
      f"(tail {comparison.operator.tail:.2e})")
print(f"exact a^2/sigma^2  : {exact_gamma:.6e}")

# The full sweep: Monte Carlo gamma per level, a weighted power-law fit,
# then the invariants.  2000 paths per level keeps this demo quick; the
# package default (10^4) tightens the constants.
report = run_exit_asymptotics(family, n_paths=2000, seed=1)
print(f"log-log slope      : {report.fit.slope:.4f}  (order n0={report.fit.n0})")
print(f"c1                 : {report.fit.c1:.6f}  vs 1/32 = {1/32:.6f}")
# d is driven by the leading coefficient and is already stable here; H sits
# in the subleading one, so at this path count it only has the right scale.
print(f"dimension d        : {report.invariants.d:.4f}")
print(f"curvature H        : {report.invariants.h:.4f}  (noisy: subleading)")

# At the analytically known coefficients the extraction is exact.
exact = extract_invariants(1, 2.0 ** -5, 2.0 ** -11 / 3.0)
print(f"analytic reference : d = {exact.d}, H = {exact.h:.12f} "
      f"(1/(2 sqrt 2) = {1/(2*math.sqrt(2)):.12f})")

# The profile series behind those constants: the quadratic coefficient is
# 1/32 on the nose; the quartic term cancels to zero, and the reference
# value 1/6144 is reported beside it rather than asserted.
series = paper_series_check()
print(f"series c2          : {series.c2:.10f} (matches 1/32: {series.c2_matches})")
print(f"series c4          : {series.c4:.3e} (reference {series.reference_c4:.6e})")

# Classical sanity check: exit times from caps of the unit circle recover
# dimension 2 and curvature 1 through the same fitting pipeline.
bench = classical_circle_benchmark()
print(f"circle benchmark   : d = {bench.d:.4f}, H^2 = {bench.h_squared:.4f}")
