import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from test_constructions import column_multiplicity
from test_core import CATALOG_BUILDS, construct

from twodist.constructions import (
    arc_code,
    complementary_code,
    dm_code,
    from_multiplicities,
    projective_points,
    su1_code,
    su2_code,
    two_distance_lower_bounds,
)
from twodist.core import TwoDistParams, strength
from twodist.feasibility import (
    LinearParams,
    ScreenLine,
    check_oa2_quadratic,
    complementary_params,
    delsarte_form,
    gcd_screen,
    linear_screens,
    macwilliams_mu,
    p_adic_valuation,
    special_values,
    srg_analysis,
    two_distance_realizable,
)
from twodist.fields import GF


# the projective (s = 1) two-weight codes among the catalog builds
PROJECTIVE_BUILDS = tuple(
    b for b in CATALOG_BUILDS
    if b[0] in ("su2_code", "arc_code", "complementary_code")
    or b[:2] == ("seed_code", "mds2")
    or b[0] == "su1_code" and b[4:] == (1, 1, "remove")
)


def P(q, n, d, delta):
    return TwoDistParams(q, n, d, delta)


@dataclass(frozen=True)
class SrgEmpirical:
    """Measured parameters of the distance-w1 graph on an actual code."""

    params: tuple[int, int, int, int]
    strongly_regular: bool
    multiplicities: tuple[tuple[Fraction, int], ...]  # (eigenvalue, multiplicity)


def srg_empirical(code, w1: int) -> SrgEmpirical:
    """Reference for `srg_analysis`: build the distance-w1 graph and measure it.

    The eigenvalue multiplicities are kernel dimensions of A - rho*I over
    the rationals, for the two eigenvalues that degree and the two
    common-neighbour counts give.  Everything is exact.
    """
    words = np.array(code.words)
    size = len(words)
    adj = ((words[:, None, :] != words[None, :, :]).sum(axis=2) == w1).astype(np.int64)
    degrees = set(adj.sum(axis=1).tolist())
    if len(degrees) != 1:
        return SrgEmpirical((size, -1, -1, -1), False, ())
    k = degrees.pop()
    common = adj @ adj
    upper = np.triu_indices(size, 1)
    adjacent = adj[upper] == 1
    lam_set = set(common[upper][adjacent].tolist())
    mu_set = set(common[upper][~adjacent].tolist())
    if len(lam_set) > 1 or len(mu_set) > 1:
        return SrgEmpirical((size, k, -1, -1), False, ())
    lam = lam_set.pop() if lam_set else 0
    mu = mu_set.pop() if mu_set else 0
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(max(disc, 0))
    mults = []
    if root * root == disc:
        for rho in (Fraction(lam - mu + root, 2), Fraction(lam - mu - root, 2)):
            mults.append((rho, _kernel_dimension(adj.tolist(), rho)))
    return SrgEmpirical((size, k, lam, mu), True, tuple(mults))


def srg_multiplicities(lp) -> tuple[Fraction, Fraction]:
    """Reference for `srg_analysis`'s (e1, e2): the eigenvalue-ratio formula.

    With the graph's (N, K, lam, mu) and r = (2K + (N-1)(lam-mu)) / (q delta),
    the multiplicities of the eigenvalues (lam - mu +- q delta) / 2 are
    (N - 1 -+ r) / 2.
    """
    q, k, n, w1, w2 = lp.q, lp.k, lp.n, lp.w1, lp.w2
    big_n, big_k = q**k, n * (q - 1)
    lam = big_k * (big_k + 3) - q * (w1 + w2) * (big_k + 1) + q * q * w1 * w2
    mu = big_k * (big_k + 1) - big_k * q * (w1 + w2) + q * q * w1 * w2
    ratio = Fraction(2 * big_k + (big_n - 1) * (lam - mu), q * (w2 - w1))
    return Fraction(big_n - 1 - ratio, 2), Fraction(big_n - 1 + ratio, 2)


def _kernel_dimension(adj, rho: Fraction) -> int:
    size = len(adj)
    mat = [[Fraction(adj[i][j]) - (rho if i == j else 0) for j in range(size)] for i in range(size)]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(size):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == size:
            break
    return size - rank


class TestQuadratic:
    def test_su1_parameters_consistent(self):
        r = check_oa2_quadratic(2, 16, 12, 6, 8)
        assert r.residual == 0
        assert r.roots == (Fraction(12), Fraction(10))
        assert r.roots_positive_integers and r.roots is not None

    def test_full_weight_closed_form(self):
        r = check_oa2_quadratic(2, 16, 8, 4, 8)
        assert r.residual == 0

    def test_inconsistent_parameters(self):
        r = check_oa2_quadratic(2, 8, 5, 2, 4)
        assert r.residual == -4

    def test_residual_is_scaled_second_moment_residual(self):
        # every projective set with q^k > q^2, k = 3..5 and n <= 20: wherever both run,
        # the quadratic fails exactly when the second moment (the SRG counting test) does
        checked = 0
        for q, k in itertools.product((2, 3, 4, 5, 7, 8, 9), range(3, 6)):
            scale = Fraction(-q * q, q**k - q * q)
            for n in range(1, min(21, (q**k - 1) // (q - 1) + 1)):
                for w1, w2 in itertools.combinations(range(1, n + 1), 2):
                    mw = macwilliams_mu(LinearParams(q, k, n, w1, w2, s=1))
                    qc = check_oa2_quadratic(q, q**k, n, w1, w2)
                    assert qc.residual == scale * mw.second_moment_residual, (q, k, n, w1, w2)
                    checked += 1
        assert checked == 24_920

    def test_requires_divisible_size(self):
        with pytest.raises(ValueError):
            check_oa2_quadratic(2, 6, 5, 2, 4)
        with pytest.raises(ValueError):
            check_oa2_quadratic(3, 9, 5, 2, 4)


@pytest.mark.parametrize("build,message", [
    (lambda: LinearParams(6, 2, 4, 2, 3), "q=6 is not a prime power"),
    (lambda: LinearParams(2, 0, 4, 2, 3), "k and n must be positive"),
    (lambda: LinearParams(2, 3, 4, 2, 2), "need 0 < w1 < w2 <= n"),
    (lambda: LinearParams(2, 3, 4, 2, 3, s=0), "s must be positive"),
    (lambda: LinearParams(2, 2, 4, 2, 3, s=1), "n exceeds s*(q^k-1)/(q-1)"),
    (lambda: srg_analysis(LinearParams(2, 1, 2, 1, 2)), "srg_analysis needs k >= 2"),
    (lambda: srg_analysis(LinearParams(2, 3, 5, 2, 4, s=2)),
     "srg_analysis applies to projective parameters (s = 1)"),
    (lambda: gcd_screen(LinearParams(2, 1, 2, 1, 2)), "gcd screen needs k >= 2"),
    (lambda: delsarte_form(6, 1, 2), "q=6 is not a prime power"),
    (lambda: delsarte_form(2, 3, 3), "need 0 < w1 < w2"),
    (lambda: check_oa2_quadratic(2, 8, 5, 3, 3), "need 0 < w1 < w2 <= n"),
])
def test_input_guard_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestDelsarteForm:
    def test_examples(self):
        assert delsarte_form(2, 6, 8) == delsarte_form(2, 6, 8)
        f = delsarte_form(2, 6, 8)
        assert (f.p, f.u, f.h) == (2, 1, 3)
        f = delsarte_form(2, 4, 6)
        assert (f.u, f.h) == (1, 2)

    def test_infeasible(self):
        assert delsarte_form(2, 3, 7) is None
        assert delsarte_form(3, 2, 7) is None

    def test_gap_divides_weight(self):
        assert delsarte_form(2, 3, 5) is None  # gap 2 does not divide 3


class TestMacWilliams:
    def test_su2_parameters(self):
        r = macwilliams_mu(LinearParams(2, 4, 9, 4, 6))
        assert r.status == "ok" and (r.mu1, r.mu2) == (9, 6)
        assert r.second_moment_residual == 0

    def test_su1_parameters(self):
        r = macwilliams_mu(LinearParams(2, 4, 12, 6, 8))
        assert r.status == "ok" and (r.mu1, r.mu2) == (12, 3)

    def test_infeasible(self):
        r = macwilliams_mu(LinearParams(2, 3, 6, 2, 5))
        assert r.status == "infeasible"

    def test_degenerate_equidistant(self):
        # [15, 4] with weights {8, 10}: the count at 10 solves to zero
        r = macwilliams_mu(LinearParams(2, 4, 15, 8, 10))
        assert r.status == "degenerate" and r.mu2 == 0

    def test_matches_actual_weight_counts(self):
        for g, lp in [
            (su2_code(2, 2, 3), LinearParams(2, 4, 9, 4, 6)),
            (su1_code(2, 4, 2, 1, 1), LinearParams(2, 4, 12, 6, 8)),
            (arc_code(4), LinearParams(4, 3, 6, 4, 6)),
        ]:
            wd = g.weight_distribution()
            r = macwilliams_mu(lp)
            assert wd == {lp.w1: r.mu1, lp.w2: r.mu2}


class TestSrg:
    def test_su1_parameters(self):
        s = srg_analysis(LinearParams(2, 4, 12, 6, 8))
        assert s.params == (16, 12, 8, 12)
        assert sorted((s.e1, s.e2)) == [3, 12]
        assert s.feasible

    def test_su2_parameters(self):
        s = srg_analysis(LinearParams(2, 4, 9, 4, 6))
        assert s.params == (16, 9, 4, 6)
        # (A_4, A_6) of the [9, 4, {4, 6}]_2 code
        assert (s.e1, s.e2) == (9, 6) == srg_multiplicities(LinearParams(2, 4, 9, 4, 6))
        assert s.feasible

    @pytest.mark.parametrize("build", PROJECTIVE_BUILDS, ids=lambda b: "-".join(map(str, b)))
    def test_weight_form_is_the_span_weight_counts(self, build):
        g = construct(build)
        counts = g.weight_distribution()
        w1, w2 = sorted(counts)
        s = srg_analysis(LinearParams(g.q, g.k, g.n, w1, w2, s=1))
        assert (s.e1, s.e2) == (counts[w1], counts[w2])
        assert s.feasible

    def test_counting_identity_refutes(self):
        # integral multiplicities, but the edge-count identity fails
        s = srg_analysis(LinearParams(2, 4, 9, 4, 5))
        assert s.multiplicities_integral
        assert not s.counting_identity_ok
        assert not s.feasible

    def test_discriminant_identity(self):
        for lp in [
            LinearParams(2, 4, 9, 4, 6),
            LinearParams(3, 3, 9, 6, 9),
            LinearParams(4, 3, 6, 4, 6),
        ]:
            s = srg_analysis(lp)
            assert (s.lam - s.mu) ** 2 + 4 * (s.degree - s.mu) == (lp.q * lp.delta) ** 2
            assert (s.e1, s.e2) == srg_multiplicities(lp)

    def test_identities_over_sweep(self):
        # every accepted input of q in {2,3,4,5,7,8,9}, k = 2..4, n < 25
        checked = 0
        for q, k in itertools.product((2, 3, 4, 5, 7, 8, 9), range(2, 5)):
            for n in range(1, min(25, (q**k - 1) // (q - 1) + 1)):
                for w1, w2 in itertools.combinations(range(1, n + 1), 2):
                    lp = LinearParams(q, k, n, w1, w2, s=1)
                    try:
                        s = srg_analysis(lp)
                    except ValueError:
                        continue
                    checked += 1
                    mw = macwilliams_mu(lp)
                    assert (s.e1, s.e2) == (mw.mu1, mw.mu2) == srg_multiplicities(lp)
                    assert s.multiplicities_integral == (mw.status != "infeasible")
                    # the reference: K(K - lam - 1) = (N - K - 1) mu read from lam and mu
                    big_n, big_k = s.n_vertices, s.degree
                    counting = big_k * (big_k - s.lam - 1) - (big_n - big_k - 1) * s.mu
                    assert counting == q * q * mw.second_moment_residual
                    assert s.counting_identity_ok == (counting == 0)
                    residual_zero = mw.second_moment_residual == 0
                    assert (s.lam - s.mu) ** 2 + 4 * (s.degree - s.mu) == (q * lp.delta) ** 2
                    if q**k > q * q:
                        assert (check_oa2_quadratic(q, q**k, n, w1, w2).residual == 0) == residual_zero, lp
        assert checked == 18_815

    def test_negative_parameters_raise(self):
        with pytest.raises(ValueError, match="cannot form"):
            srg_analysis(LinearParams(3, 3, 7, 3, 6))

    def test_empirical_graph_matches_when_identified(self):
        # the distance-w1 graph on codewords has degree mu1; it realizes the
        # derived parameters exactly when mu1 = n(q-1)
        cases = [
            (su2_code(2, 2, 3), LinearParams(2, 4, 9, 4, 6)),
            (su1_code(2, 4, 2, 1, 1), LinearParams(2, 4, 12, 6, 8)),
        ]
        for g, lp in cases:
            assert macwilliams_mu(lp).mu1 == lp.n * (lp.q - 1)
            emp = srg_empirical(g.span(), lp.w1)
            ana = srg_analysis(lp)
            assert emp.strongly_regular
            assert emp.params == ana.params
            assert sorted(m for _, m in emp.multiplicities) == sorted((ana.e1, ana.e2))

    def test_empirical_graph_on_translate_family_is_multipartite(self):
        # antipodal difference-matrix codes: groups of translates are the
        # parts of a complete multipartite distance-w1 graph
        emp = srg_empirical(dm_code(3, 1, 1), 6)
        assert emp.strongly_regular
        assert emp.params == (27, 24, 21, 24)


class TestGcdScreen:
    def test_su2_passes(self):
        screen = gcd_screen(LinearParams(2, 4, 9, 4, 6, s=1))
        (v,) = screen.per_s
        assert v.verdict == "pass"
        assert v.d_c == 2 and v.n_c == 6

    def test_projective_failure(self):
        # d = 5, delta = 2 in dimension 4: valuations cannot align
        screen = gcd_screen(LinearParams(2, 4, 8, 5, 7, s=1))
        (v,) = screen.per_s
        assert v.verdict == "fail"
        assert any(c.clause == "i" and c.passed is False for c in v.clauses)

    def test_two_dimensional_abstains(self):
        screen = gcd_screen(LinearParams(3, 2, 6, 3, 5, s=3))
        (v,) = screen.per_s
        assert v.verdict == "abstain"

    def test_unknown_s_reports_all_candidates(self):
        screen = gcd_screen(LinearParams(2, 4, 9, 4, 6))
        assert len(screen.per_s) >= 2
        assert screen.any_admissible

    def test_su1_with_zero_complementary_distance(self):
        screen = gcd_screen(LinearParams(2, 4, 12, 6, 8, s=1))
        (v,) = screen.per_s
        assert v.verdict == "pass" and v.d_c == 0

    def test_clause_i_needs_delta_above_one(self):
        # the punctured simplex [14, 4, {7, 8}]_2, whose complement is one point
        (v,) = gcd_screen(LinearParams(2, 4, 14, 7, 8, s=1)).per_s
        assert v.verdict == "pass" and (v.n_c, v.d_c) == (1, 0)
        applies = [(c.clause, c.passed is not None) for c in v.clauses]
        assert applies == [("i", False), ("iii", True)]

    def test_clause_i_skips_a_degenerate_complement(self):
        # su1 [12, 4, {6, 8}]_2 has d_c = 0: only gcd(q, d) = gcd(q, delta) is checked
        (v,) = gcd_screen(LinearParams(2, 4, 12, 6, 8, s=1)).per_s
        (clause,) = [c for c in v.clauses if c.clause == "i"]
        assert clause.passed and "d_c" not in clause.detail

    def test_repeated_columns_abstain_in_every_dimension(self):
        # [17, 3, {8, 12}]_2 with m = (1, 1, 3, 1, 3, 3, 5) exists at s = 5
        (v,) = gcd_screen(LinearParams(2, 3, 17, 8, 12, s=5)).per_s
        assert v.verdict == "abstain"
        screen = gcd_screen(LinearParams(2, 3, 17, 8, 12))
        assert [v.s for v in screen.per_s] == list(range(3, 10))
        assert {v.verdict for v in screen.per_s} == {"abstain"}

    def test_no_candidate_is_not_admissible(self):
        screen = gcd_screen(LinearParams(2, 2, 3, 1, 3, s=1))
        assert screen.per_s == () and not screen.any_admissible


class TestComplementary:
    def test_su2(self):
        (c,) = complementary_params(LinearParams(2, 4, 9, 4, 6, s=1))
        assert (c.n_c, c.d_c) == (6, 2) and not c.degenerate

    def test_su1_degenerate(self):
        (c,) = complementary_params(LinearParams(2, 4, 12, 6, 8, s=1))
        assert (c.n_c, c.d_c) == (3, 0) and c.degenerate

    def test_pencil(self):
        (c,) = complementary_params(LinearParams(3, 2, 6, 3, 5, s=3))
        assert c.d_c == 4  # delta * (q - 1)

    def test_no_valid_s_raises(self):
        assert complementary_params(LinearParams(2, 2, 3, 1, 3, s=1)) == ()

    def test_candidates_fit_the_parameters(self):
        # [12, 2, {6, 12}]_2 is two points six times each: s = 6 = n - w1 is the only fit
        (c,) = complementary_params(LinearParams(2, 2, 12, 6, 12))
        assert (c.s, c.n_c, c.d_c) == (6, 6, 0)
        # a given s above n - w1 does not fit
        assert complementary_params(LinearParams(2, 4, 8, 5, 7, s=4)) == ()


class TestSpecialValues:
    def test_both_odd(self):
        sv = special_values(P(2, 9, 3, 4))
        assert (sv.kind, sv.note) == ("not_well_defined", "both distances odd")

    def test_odd_d_smaller_than_delta(self):
        sv = special_values(P(2, 10, 3, 7))
        assert (sv.kind, sv.note) == ("not_well_defined", "odd d smaller than delta")

    def test_full_length(self):
        sv = special_values(P(2, 10, 6, 4))
        assert (sv.kind, sv.note) == ("not_well_defined", "full-length distance with n != 2d")

    def test_near_full_length(self):
        sv = special_values(P(2, 9, 6, 2))
        assert (sv.kind, sv.note) == ("not_well_defined", "distance n-1 with 2d > n+1")

    def test_odd_distance_pair_value(self):
        sv = special_values(P(2, 15, 3, 3))
        assert sv.kind == "exact" and sv.lo == 6

    def test_boundary_flag(self):
        sv = special_values(P(2, 7, 3, 3))
        assert sv.lo == 4

    def test_binary_clauses_agree_with_the_witness_test(self):
        # a clause that fired on a realizable cell would print "--" where codes exist
        fired = 0
        for n in range(2, 41):
            for d, e in itertools.combinations(range(1, n + 1), 2):
                params = P(2, n, d, e - d)
                sv = special_values(params)
                if sv is not None and sv.kind == "not_well_defined":
                    fired += 1
                    assert not two_distance_realizable(params), params
        assert fired == 4850

    def test_ternary_distances_one_three(self):
        for n in range(4, 11):
            sv = special_values(P(3, n, 1, 2))
            assert sv.kind == "exact" and sv.lo == 6

    def test_conjectured_lower_bounds(self):
        # the conjectured optimal sizes come from the catalog, not from special values
        for params, size, family in [(P(3, 8, 2, 2), 29, "weight2"), (P(2, 9, 2, 4), 9, "bin-2-2d")]:
            assert special_values(params) is None
            top = two_distance_lower_bounds(params)[0]
            assert (top.size, top.family) == (size, family)


class TestRealizable:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((2, 7, 4, 2), True),
            ((2, 12, 8, 2), False),
            ((2, 14, 10, 2), False),
            ((2, 16, 10, 2), True),
            ((2, 19, 10, 2), True),
            ((2, 18, 11, 5), False),
            ((3, 5, 1, 2), True),
            ((4, 7, 4, 2), True),
        ],
    )
    def test_cases(self, args, expected):
        assert two_distance_realizable(P(*args)) == expected

    def test_never_contradicts_impossibility_clauses(self):
        for n in range(3, 16):
            for d in range(1, n):
                for delta in range(1, n - d + 1):
                    params = P(2, n, d, delta)
                    sv = special_values(params)
                    if sv is not None and sv.kind == "not_well_defined":
                        assert not two_distance_realizable(params), params


class TestValuation:
    def test_values(self):
        assert p_adic_valuation(2, 12) == 2
        assert p_adic_valuation(3, 9) == 2
        assert p_adic_valuation(2, 7) == 0
        assert p_adic_valuation(2, 0) is None


class TestScreensOnConstructions:
    """No screen may reject the parameters of an exhibited code."""

    CASES = [
        # (generator-or-code, LinearParams, strength-2 expected)
        (su2_code(2, 2, 3), LinearParams(2, 4, 9, 4, 6, s=1)),
        (su1_code(2, 4, 2, 1, 1), LinearParams(2, 4, 12, 6, 8, s=1)),
        (su1_code(3, 3, 2, 1, 1), LinearParams(3, 3, 9, 6, 9, s=1)),
        (arc_code(4), LinearParams(4, 3, 6, 4, 6, s=1)),
        (complementary_code(arc_code(4)), LinearParams(4, 3, 15, 10, 12, s=1)),
    ]

    def test_all_screens_pass(self):
        for g, lp in self.CASES:
            assert column_multiplicity(g) == lp.s
            assert delsarte_form(lp.q, lp.w1, lp.w2) is not None
            assert macwilliams_mu(lp).status in ("ok", "degenerate")
            srg = srg_analysis(lp)
            assert srg.feasible
            screen = gcd_screen(lp)
            assert screen.any_admissible

    def test_quadratic_zero_on_strength2_codes(self):
        for g, lp in self.CASES:
            code = g.span()
            if strength(code) >= 2 and lp.size > lp.q**2:
                r = check_oa2_quadratic(lp.q, lp.size, lp.n, lp.w1, lp.w2)
                assert r.residual == 0, (lp, r.residual)


def screens_by_name(result):
    return {(line.screen, line.verdict) for line in result.lines}


class TestLinearScreens:
    @pytest.mark.parametrize("params", [
        (2, 4, 14, 7, 8, 1),  # punctured simplex, clause (i) at delta = 1
        (2, 3, 17, 8, 12, 5),  # m = (1, 1, 3, 1, 3, 3, 5), clause (iv)
        (2, 2, 12, 6, 12, None),  # two points six times each, s = 6
        (2, 3, 17, 8, 12, None),  # s = 3 failed clause (iv), s = 4 passed
    ])
    def test_existing_codes_are_not_refuted(self, params):
        result = linear_screens(LinearParams(*params))
        assert not result.refuted
        assert not {v for _, v in screens_by_name(result)} & {"fail", "exclude"}

    @pytest.mark.parametrize("params", [(2, 3, 6, 2, 5, None), (2, 4, 8, 5, 7, 1)])
    def test_refuted(self, params):
        result = linear_screens(LinearParams(*params))
        assert result.refuted
        assert ("macwilliams-mu", "fail") in screens_by_name(result)

    def test_failure_at_one_candidate_excludes_it(self):
        # [5, 3, {2, 4}]_2 exists with s = 2; as a projective code it fails two screens
        result = linear_screens(LinearParams(2, 3, 5, 2, 4))
        assert not result.refuted
        lines = screens_by_name(result)
        assert {("srg-integrality", "exclude"), ("oa2-quadratic", "exclude")} <= lines
        assert ("gcd-valuation", "abstain") in lines
        at_one = linear_screens(LinearParams(2, 3, 5, 2, 4, s=1))
        assert at_one.refuted
        assert {("srg-integrality", "fail"), ("oa2-quadratic", "fail")} <= screens_by_name(at_one)

    def test_no_candidate_refutes(self):
        result = linear_screens(LinearParams(2, 4, 8, 5, 7, s=4))
        assert result.refuted
        assert [(line.screen, line.verdict) for line in result.lines] == [
            ("delsarte-form", "skip"),
            ("macwilliams-mu", "fail"),
            ("srg-integrality", "skip"),
            ("gcd-valuation", "skip"),
            ("oa2-quadratic", "skip"),
            ("complementary-params", "fail"),
        ]

    def test_abstaining_candidates_share_one_line(self):
        # [17, 3, {8, 12}]_2 fits s = 3..9, and the gcd screen abstains at each
        gcd = [line for line in linear_screens(LinearParams(2, 3, 17, 8, 12)).lines
               if line.screen == "gcd-valuation"]
        assert gcd == [ScreenLine(
            "gcd-valuation", "abstain", "s=3..9 (abstain) n/a: k = 3 with repeated columns"
        )]
        at_five = linear_screens(LinearParams(2, 3, 17, 8, 12, s=5)).lines
        assert ScreenLine(
            "gcd-valuation", "abstain",
            "s=5 d_c=8 n_c=18 (abstain) n/a: k = 3 with repeated columns",
        ) in at_five

    def test_given_s1_that_does_not_fit(self):
        # n_c = 7 - 6 >= 0 but d_c = 4 - 6 < 0
        result = linear_screens(LinearParams(2, 3, 6, 2, 6, s=1))
        assert result.refuted
        skipped = {line.screen: line.detail for line in result.lines if line.verdict == "skip"}
        for screen in ("delsarte-form", "srg-integrality", "oa2-quadratic"):
            assert skipped[screen] == "s=1 does not fit"

    def test_one_dimension(self):
        result = linear_screens(LinearParams(3, 1, 3, 1, 2))
        lines = screens_by_name(result)
        assert {("srg-integrality", "skip"), ("gcd-valuation", "skip")} <= lines


# the audit: every linear code whose point multiplicities stay within a
# bound, for (q, k, bound); q = 4, k = 3 is 2^21 vectors
AUDIT_RANGES = ((2, 2, 8), (3, 2, 6), (4, 2, 5), (5, 2, 4), (2, 3, 5), (3, 3, 1), (2, 4, 1), (4, 3, 1))


def hyperplane_incidence(q, k):
    """points of PG(k-1, q), and inc[u, p]: point p lies on the hyperplane u^perp."""
    field = GF(q)
    points = projective_points(q, k)
    dot = np.zeros((len(points), len(points)), dtype=np.intp)
    for i in range(k):
        dot = field.add[dot, field.mul[points[:, None, i], points[None, :, i]]]
    return points, dot == 0


def two_weight_multiplicities(q, k, top, chunk=1 << 16):
    """{(n, w1, w2, s): m} over every m in {0..top}^points with exactly two nonzero weights.

    The word with message u has weight n minus the columns on u^perp, and
    scalar multiples of u share it, so there is one weight per hyperplane.
    Both weights positive means no nonzero word vanishes: the generator has
    full rank.  s is max(m); the first m found is kept per key.
    """
    points, inc = hyperplane_incidence(q, k)
    base = top + 1
    place = base ** np.arange(len(points))
    inc_t = inc.T.astype(np.float32)  # exact: sums stay far below 2^24
    found = {}
    for lo in range(0, base ** len(points), chunk):
        m = (np.arange(lo, min(lo + chunk, base ** len(points)))[:, None] // place) % base
        n = m.sum(axis=1)
        w = n[:, None] - (m.astype(np.float32) @ inc_t).astype(np.intp)
        w1, w2 = w.min(axis=1), w.max(axis=1)
        two = (w1 > 0) & (w2 > w1) & ((w == w1[:, None]) | (w == w2[:, None])).all(axis=1)
        for row, key in zip(m[two], zip(n[two].tolist(), w1[two].tolist(), w2[two].tolist())):
            found.setdefault((*key, int(row.max())), row)
    return points, found


def test_screens_refute_no_code_over_point_multiplicities():
    keys = 0
    for q, k, top in AUDIT_RANGES:
        points, found = two_weight_multiplicities(q, k, top)
        keys += len(found)
        for i, ((n, w1, w2, s), m) in enumerate(found.items()):
            if i % 10 == 0:  # the weights are the span's
                g = from_multiplicities(q, points, m)
                assert g.rank() == k and set(g.weight_distribution()) == {w1, w2}
            for given in (s, None):
                result = linear_screens(LinearParams(q, k, n, w1, w2, s=given))
                assert not result.refuted, (q, k, n, w1, w2, given, result.lines)
    assert keys == 313
