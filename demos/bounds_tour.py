"""A tour of the upper-bound machinery on two-distance codes.

Every bound is computed in exact arithmetic; printed values are integers
obtained by flooring at the very last step the LP's integer vertex or a
rational closed form.
"""
from twodist import TwoDistParams, best_upper_bound, d2_bound, dd_refine, lp_optimum
from twodist.bounds import gray_rankin_bound, sphere_bound

# The full linear programming bound restricted to two distances: a
# two-variable LP solved exactly in integer arithmetic.  Its optimal
# vertex (A_d, A_e) comes back as integers (X, Y, det), so the bound is
# 1 + (X + Y) // det.  These cells are classics of the trade: the second
# one certifies that 154 binary words of length 18 with distances {2, 4}
# are the most possible.
for q, n, d, delta in [(2, 11, 2, 2), (2, 18, 2, 2), (3, 10, 3, 3)]:
    x, y, det = lp_optimum(TwoDistParams(q, n, d, delta))
    print(f"lp bound   A_{q}({n}, {{{d},{d+delta}}}) <= {1 + (x + y) // det}")

# The degree-2 closed form is much cheaper than the LP and often equals
# it.  When its rational value is an integer and its linear coefficient
# is strictly positive, an attaining code would be an orthogonal array of
# strength 2, and solving for its distance distribution can refute the
# bound: the refinement below shaves 20 to 19.
params = TwoDistParams(2, 12, 6, 4)
d2 = d2_bound(params)
print(f"\ndegree-2   A_2(12, {{6,10}}) <= {d2.value} (exact {d2.exact}, strict={d2.strict})")
print(f"refined    A_2(12, {{6,10}}) <= {dd_refine(params)}")

# Codes whose distance ratio d/(d+delta) = r/s is "spread out" embed into
# spherical two-distance sets, capping the size at 2(q-1)n + 1.
for q, n, d, delta in [(2, 11, 4, 2), (3, 9, 1, 3)]:
    sb = sphere_bound(TwoDistParams(q, n, d, delta))
    print(f"\nspherical  A_{q}({n}, {{{d},{d+delta}}}) <= {sb.value}  (ratio {sb.r}/{sb.s})")

# The Gray-Rankin bound applies to antipodal codes only (words grouped
# into translate classes at full distance n) and is met with equality by
# the difference-matrix codes, certifying their optimality.
print(f"\nGray-Rankin antipodal cap at (q=2, n=8, d=4): {gray_rankin_bound(2, 8, 4)}")

# The aggregator runs everything applicable and reports the best value
# with per-method provenance.
report = best_upper_bound(TwoDistParams(2, 12, 6, 4))
print("\naggregated report for (2, 12, {6, 10}):")
for entry in report.entries:
    shown = entry.value if entry.value is not None else "-"
    print(f"   {entry.method:<8} {shown} {('(' + entry.note + ')') if entry.note else ''}")
print(f"   best     {report.best}  via {','.join(report.status.methods)}")
