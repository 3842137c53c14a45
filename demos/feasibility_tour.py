"""Ruling parameter sets in or out before any search is attempted.

The screens are necessary conditions: a failure proves no linear
two-weight code with those parameters exists, while passing everything
only means "not refuted".
"""
from twodist import TwoDistParams
from twodist.feasibility import (
    LinearParams,
    check_oa2_quadratic,
    complementary_params,
    delsarte_form,
    gcd_screen,
    macwilliams_mu,
    special_values,
    srg_analysis,
    two_distance_realizable,
)

# A parameter set that survives everything - because the code exists
# (the [9, 4, {4, 6}] binary code built in constructions_tour).
lp = LinearParams(q=2, k=4, n=9, w1=4, w2=6, s=1)
print(f"screening [n={lp.n}, k={lp.k}, weights ({lp.w1}, {lp.w2})] over GF({lp.q}):")
print("  weight shape     :", delsarte_form(lp.q, lp.w1, lp.w2))
print("  multiplicities   :", macwilliams_mu(lp))
srg = srg_analysis(lp)
print(f"  graph parameters : {srg.params}, eigen multiplicities ({srg.e1}, {srg.e2}),"
      f" feasible={srg.feasible}")
print("  gcd/valuations   :", [(v.s, v.verdict) for v in gcd_screen(lp).per_s])
print("  complementary    :", complementary_params(lp))
quad = check_oa2_quadratic(lp.q, lp.size, lp.n, lp.w1, lp.w2)
print(f"  quadratic screen : residual {quad.residual} (roots {quad.roots})")

# Shifting one weight by one breaks two screens at once: the weight gap
# no longer divides the smaller weight, and the graph parameter counting
# identity fails even though the multiplicities look integral.
bad = LinearParams(q=2, k=4, n=9, w1=4, w2=5, s=1)
print(f"\nscreening the neighbouring weights ({bad.w1}, {bad.w2}):")
print("  weight shape     :", delsarte_form(bad.q, bad.w1, bad.w2))
srg = srg_analysis(bad)
print(f"  graph parameters : {srg.params}, integral={srg.multiplicities_integral},"
      f" counting identity={srg.counting_identity_ok} -> feasible={srg.feasible}")

# Non-existence can also be decided outright for unrestricted codes: a
# code showing two distances always contains a three-word witness, and
# witness existence is plain arithmetic in the weights and overlaps.
for q, n, d, delta in [(2, 12, 8, 2), (2, 16, 10, 2), (2, 9, 3, 4)]:
    params = TwoDistParams(q, n, d, delta)
    sv = special_values(params)
    ruled_out = sv is not None and sv.kind == "not_well_defined"
    reason = sv.note if ruled_out else "witness arithmetic"
    verdict = two_distance_realizable(params) and not ruled_out
    print(f"\n  distances {{{d},{d+delta}}} in length {n} over q={q}: "
          f"{'realizable' if verdict else 'impossible'} [{reason}]")

# Exact values known in closed form, no computation needed.
print("\nexact: A_2(15, {3, 6}) =", special_values(TwoDistParams(2, 15, 3, 3)).lo)
print("exact: A_3(8, {1, 3})  =", special_values(TwoDistParams(3, 8, 1, 2)).lo)
