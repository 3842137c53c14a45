"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All bound comparisons are exact (tolerance zero).
"""
import math
import time

import numpy as np

from twodist.bounds import (
    d2_bound,
    dd_refine,
    gray_rankin_bound,
    lp_optimum,
    sphere_bound,
)
from twodist.constructions import (
    complementary_code,
    dm_code,
    su1_code,
    su2_code,
)
from twodist.core import Code, TwoDistParams, is_antipodal, strength, verify_two_distance
from twodist.feasibility import (
    LinearParams,
    check_oa2_quadratic,
    delsarte_form,
    gcd_screen,
    macwilliams_mu,
    special_values,
    srg_analysis,
    two_distance_realizable,
)
from twodist.search import SearchConfig, exhaustive_maximum, random_greedy
from twodist.tables import compute_cell

from test_feasibility import srg_empirical


def P(q, n, d, delta):
    return TwoDistParams(q, n, d, delta)


def lp_bound(params):
    return math.floor(lp_optimum(params)[0])


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS — {text}")


def test_criterion_01_lp_reproduction():
    cases = [
        (P(2, 11, 2, 2), 56),
        (P(2, 18, 2, 2), 154),
        (P(3, 7, 3, 3), 27),
        (P(3, 10, 3, 3), 81),
        (P(2, 13, 6, 6), 24),
    ]
    for params, want in cases:
        start = time.monotonic()
        assert lp_bound(params) == want, params
        assert time.monotonic() - start < 1.0
    _report(1, "lp_bound matches all five reference values in < 1 s per cell")


def test_criterion_02_d2_reproduction():
    cases = [
        (P(2, 9, 4, 2), 16),
        (P(2, 8, 4, 4), 16),
        (P(4, 7, 4, 2), 64),
        (P(3, 11, 6, 3), 243),
        (P(2, 12, 6, 4), 20),
    ]
    for params, want in cases:
        start = time.monotonic()
        result = d2_bound(params)
        assert result is not None and result.value == want, params
        assert time.monotonic() - start < 0.010
    _report(2, "d2_bound matches all five reference values in < 10 ms per cell")


def test_criterion_03_dd_refinements():
    cases = [
        (P(2, 12, 6, 4), 20, 19),
        (P(2, 20, 10, 4), 28, 27),
        (P(2, 16, 8, 6), 28, 27),
    ]
    for params, start, want in cases:
        assert d2_bound(params).value == start
        assert dd_refine(params) == want, params
    _report(3, "dd_refine yields 19, 27, 27 from degree-2 inputs 20, 28, 28")


def test_criterion_04_sphere_bound():
    cases = [
        (P(2, 11, 4, 2), 23),
        (P(2, 13, 6, 4), 27),
        (P(3, 9, 1, 3), 37),
        (P(4, 8, 2, 5), 49),
    ]
    for params, want in cases:
        sb = sphere_bound(params)
        assert sb.value == 2 * (params.q - 1) * params.n + 1 == want
    assert sphere_bound(P(3, 9, 3, 3)).value is None
    _report(4, "sphere bound exact on all sampled cells, inapplicable on (3,9,{3,6})")


def test_criterion_05_gray_rankin_certification():
    assert gray_rankin_bound(2, 8, 4) == 16 == dm_code(2, 1, 2).size
    assert gray_rankin_bound(4, 8, 6) == 32 == dm_code(2, 2, 1).size
    _report(5, "Gray-Rankin values 16 and 32 match the difference-matrix code sizes")


def test_criterion_06_constructions_verify():
    start = time.monotonic()

    code = dm_code(2, 1, 2)
    assert (code.n, code.size) == (8, 16)
    assert verify_two_distance(code, P(2, 8, 4, 4)).ok
    assert is_antipodal(code)

    code = dm_code(3, 1, 1)
    assert (code.n, code.size) == (9, 27)
    assert verify_two_distance(code, P(3, 9, 6, 3)).ok

    g = su2_code(2, 2, 3)
    assert (g.n, g.k) == (9, 4)
    assert g.weight_distribution() == {4: 9, 6: 6}
    assert verify_two_distance(g.span(), P(2, 9, 4, 2)).ok

    g1 = su1_code(2, 4, 2, 1, 1)
    assert (g1.n, g1.k) == (12, 4)
    assert g1.weight_distribution() == {6: 12, 8: 3}

    comp = complementary_code(g)  # every point s = 1 times beside g: the simplex, equidistant at 8
    joint_rows = np.hstack([g.rows, comp.rows])
    from twodist.constructions import GeneratorMatrix

    joint = GeneratorMatrix(2, joint_rows)
    assert set(joint.weight_distribution()) == {8}

    assert time.monotonic() - start < 5.0
    _report(6, "dm, su2, su1 and complementary constructions verify by enumeration")


def test_criterion_07_feasibility_soundness():
    cases = [
        (dm_code(2, 1, 2), LinearParams(2, 4, 8, 4, 8, s=1)),
        (dm_code(3, 1, 1), LinearParams(3, 3, 9, 6, 9, s=1)),
        (su2_code(2, 2, 3).span(), LinearParams(2, 4, 9, 4, 6, s=1)),
        (su1_code(2, 4, 2, 1, 1).span(), LinearParams(2, 4, 12, 6, 8, s=1)),
    ]
    for code, lp in cases:
        if not isinstance(code, Code):
            code = code.span()
        assert delsarte_form(lp.q, lp.w1, lp.w2) is not None, lp
        mw = macwilliams_mu(lp)
        assert mw.status in ("ok", "degenerate"), lp
        assert srg_analysis(lp).feasible, lp
        assert gcd_screen(lp).any_admissible, lp
        if strength(code) >= 2 and lp.size > lp.q**2:
            qc = check_oa2_quadratic(lp.q, lp.size, lp.n, lp.w1, lp.w2)
            assert qc.residual == 0, lp
    _report(7, "all screens pass on every constructed code; quadratic residuals are 0")


def test_criterion_08_srg_empirical():
    code = su2_code(2, 2, 3).span()
    emp = srg_empirical(code, 4)
    assert emp.strongly_regular
    assert emp.params == (16, 9, 4, 6)
    assert sorted(m for _, m in emp.multiplicities) == [6, 9]
    ana = srg_analysis(LinearParams(2, 4, 9, 4, 6))
    assert emp.params == ana.params
    assert sorted((ana.e1, ana.e2)) == [6, 9]
    _report(8, "distance-4 graph on su2(2,2,3) is SRG(16,9,4,6) with multiplicities {9,6}")


def test_criterion_09_oracle_exactness():
    start = time.monotonic()
    assert exhaustive_maximum(P(2, 4, 2, 2)) == 8
    assert time.monotonic() - start < 60

    start = time.monotonic()
    assert exhaustive_maximum(P(2, 5, 2, 2)) == 16
    assert time.monotonic() - start < 60

    start = time.monotonic()
    value = exhaustive_maximum(P(2, 7, 2, 2))
    assert time.monotonic() - start < 60
    assert 22 <= value <= 26
    assert value <= lp_bound(P(2, 7, 2, 2))
    _report(9, f"oracle gives 8, 16 and resolves A_2(7,{{2,4}}) = {value} within [22,26]")


def test_criterion_10_search_reproduction():
    targets = [
        (P(2, 8, 4, 4), 16),
        (P(3, 9, 6, 3), 27),
        (P(2, 10, 4, 2), 16),
    ]
    for params, want in targets:
        start = time.monotonic()
        result = random_greedy(
            params, SearchConfig(seed=1, restarts=100_000, stop_at=want)
        )
        assert result.size >= want and result.report.ok, params
        assert time.monotonic() - start < 60
    _report(10, "random greedy reaches 16, 27, 16 with seed 1 within 60 s")


def test_criterion_11_exact_small_values():
    for n in range(4, 11):
        sv = special_values(P(3, n, 1, 2))
        assert sv is not None and sv.kind == "exact" and sv.lo == 6
    assert special_values(P(2, 9, 3, 4)).kind == "not_well_defined"
    assert special_values(P(2, 10, 3, 7)).kind == "not_well_defined"
    sv = special_values(P(2, 15, 3, 3))
    assert sv.kind == "exact" and sv.lo == 1 + 15 // 3
    _report(11, "exact values 6 and 1+floor(n/d) plus both impossibility cases")


# --- criterion 12: full table regeneration ---------------------------------

# reference upper bounds for the q=2, delta=2 grid, transcribed cell by
# cell from the best published values this suite reproduces.  value/tag
# entries must be matched method for method; "--" means no code with both
# distances exists; "ext" marks purely external values (skipped without an
# external table).
REFERENCE_Q2_D2 = {
    (7, 2): (26, "lp"),
    (8, 2): (36, "lp"), (8, 4): (12, "d2"), (8, 6): "--",
    (9, 2): (40, "lp"), (9, 4): (16, "d2"), (9, 6): "--",
    (10, 2): (56, "lp"), (10, 4): (16, "d2"), (10, 8): "--",
    (11, 2): (56, "lp"), (11, 4): (23, "sc"), (11, 6): (12, "d2"), (11, 8): "--",
    (12, 2): (77, "lp"), (12, 4): (25, "sc"), (12, 6): (16, "d2"), (12, 8): "--", (12, 10): "--",
    (13, 2): (87, "lp"), (13, 4): (40, "lp"), (13, 6): (19, "d2"), (13, 8): "ext", (13, 10): "--",
    (14, 2): (100, "lp"), (14, 4): (51, "lp"), (14, 6): (19, "d2"), (14, 8): "ext", (14, 10): "--",
    (15, 2): (120, "lp"), (15, 4): (68, "lp"), (15, 6): (31, "sc"), (15, 8): (16, "d2"), (15, 10): "--",
    (16, 2): (126, "lp"), (16, 4): (75, "lp"), (16, 6): (33, "sc"), (16, 8): (20, "d2"),
    (17, 2): (154, "lp"), (17, 4): (91, "lp"), (17, 6): (35, "sc"), (17, 8): (22, "d2"), (17, 10): (6, "lp"),
    (18, 2): (154, "lp"), (18, 4): (116, "lp"), (18, 6): (37, "sc"), (18, 8): (22, "d2"), (18, 10): (10, "lp"),
    (19, 2): (189, "lp"), (19, 4): (123, "lp"), (19, 6): (39, "sc"), (19, 8): (35, "lp"), (19, 10): (20, "d2"),
    (20, 2): (200, "lp"), (20, 4): (151, "lp"), (20, 6): (41, "sc"), (20, 8): (41, "sc"), (20, 10): (24, "d2"),
}

# three reference cells are contradicted by exact computation; each is
# re-proven below with an explicit code or the exhaustive oracle
ERRATA_Q2_D2 = {(7, 4), (10, 6), (16, 10)}


def test_criterion_12_table_regeneration():
    start = time.monotonic()
    for (n, d), want in sorted(REFERENCE_Q2_D2.items()):
        params = P(2, n, d, 2)
        cell = compute_cell(params)
        if want == "--":
            assert cell.status == "not_well_defined", (n, d)
            continue
        if want == "ext":
            continue
        value, tag = want
        assert cell.status != "not_well_defined", (n, d)
        methods = dict(cell.methods)
        assert methods.get(tag) == value, (n, d, want, methods)
        assert cell.upper.value == value and tag in cell.upper.tag, (n, d, cell)
        # lower bounds never contradict the reference upper bounds
        assert cell.lower.value <= value, (n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"table took {elapsed:.1f}s"

    # errata: reference "--" at (7,4) and (16,10), reference "3" at (10,6)
    witness = Code(2, 7, ((0,) * 7,
                          tuple(int(c) for c in "1111000"),
                          tuple(int(c) for c in "0001111")))
    assert verify_two_distance(witness, P(2, 7, 4, 2)).ok
    assert exhaustive_maximum(P(2, 7, 4, 2)) == 8

    four = Code(2, 10, ((0,) * 10,
                        tuple(int(c) for c in "1111111100"),
                        tuple(int(c) for c in "1111000011"),
                        tuple(int(c) for c in "0000111111")))
    assert verify_two_distance(four, P(2, 10, 6, 2)).ok
    assert exhaustive_maximum(P(2, 10, 6, 2)) == 6 == lp_bound(P(2, 10, 6, 2))

    pair = Code(2, 16, ((0,) * 16,
                        tuple(int(c) for c in "1111111111000000"),
                        tuple(int(c) for c in "1111000000111111")))
    assert verify_two_distance(pair, P(2, 16, 10, 2)).ok
    assert two_distance_realizable(P(2, 16, 10, 2))

    _report(
        12,
        f"q=2 delta=2 table regenerated method-for-method in {elapsed:.1f}s "
        f"({len(ERRATA_Q2_D2)} reference cells corrected with explicit proofs)",
    )
