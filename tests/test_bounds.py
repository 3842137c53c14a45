import itertools
import math
import random
from fractions import Fraction

import pytest

from twodist.bounds import (
    ExternalBoundsError,
    _lp_meet,
    _lp_solve,
    best_upper_bound,
    d2_bound,
    dd_refine,
    gray_rankin_bound,
    lp_optimum,
    plotkin_bound,
    read_external_bounds,
    sphere_bound,
)
from twodist.core import TwoDistParams
from twodist.krawtchouk import kraw_eval, kraw_rows


def P(q, n, d, delta):
    return TwoDistParams(q, n, d, delta)


def lp_bound(params):
    return math.floor(lp_optimum(params)[0])


def reference_rows(params):
    """LP rows from separate kraw_eval calls, plus the two axes."""
    n, q, d, e = params.n, params.q, params.d, params.d2
    rows = [(1, 0, 0), (0, 1, 0)]
    for i in range(1, n + 1):
        rows.append((kraw_eval(n, q, i, d), kraw_eval(n, q, i, e), kraw_eval(n, q, i, 0)))
    return rows


def reference_is_unbounded(rows):
    """Recession-direction test over Fractions; only random rows need it, the LP's are bounded."""
    lo, hi = Fraction(0), None
    family_dead = False
    for a, b, _ in rows[2:]:
        if b > 0:
            lo = max(lo, Fraction(-a, b))
        elif b < 0:
            bound = Fraction(-a, b)
            hi = bound if hi is None else min(hi, bound)
        elif a < 0:
            family_dead = True
            break
    if not family_dead and (hi is None or lo <= hi):
        return True
    return all(b >= 0 for a, b, _ in rows[2:])


def reference_lp(rows):
    """Fraction vertex enumeration of a bounded region: every pair of rows, strict improvement."""
    best = Fraction(1)
    best_pt = (Fraction(0), Fraction(0))
    m = len(rows)
    for i in range(m):
        a1, b1, c1 = rows[i]
        for j in range(i + 1, m):
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = Fraction(-c1 * b2 + c2 * b1, det)
            y = Fraction(-a1 * c2 + a2 * c1, det)
            if x < 0 or y < 0:
                continue
            if all(a * x + b * y + c >= 0 for a, b, c in rows):
                obj = 1 + x + y
                if obj > best:
                    best, best_pt = obj, (x, y)
    return best, best_pt


def reference_strength2_distribution(params):
    """(A_d, A_e) solving M_1 = M_2 = 0 by Cramer's rule on Krawtchouk rows 1 and 2."""
    n, q, d, e = params.n, params.q, params.d, params.d2
    (a1, b1, c1), (a2, b2, c2) = (
        (kraw_eval(n, q, i, d), kraw_eval(n, q, i, e), kraw_eval(n, q, i, 0)) for i in (1, 2)
    )
    det = a1 * b2 - a2 * b1
    assert det != 0, params
    return Fraction(c2 * b1 - c1 * b2, det), Fraction(a2 * c1 - a1 * c2, det)


def reference_walk(rows):
    """The boundary walk over rows given with their two axes, every stop found by one scan."""
    x, y, det, r = 0, 0, 1, 1
    while True:
        ar, br, _ = rows[r]
        # the least slack / rate so far starts at 1 / 0, above every finite ratio
        stops, stop_slack, stop_rate = [], 1, 0
        for k, (a, b, c) in enumerate(rows):
            rate = b * ar - a * br
            if rate <= 0:
                continue
            slack = a * x + b * y + c * det
            if slack * stop_rate < stop_slack * rate:
                stops, stop_slack, stop_rate = [k], slack, rate
            elif slack * stop_rate == stop_slack * rate:
                stops.append(k)
        x, y, det = _lp_meet(rows[r], rows[stops[0]])
        r = next(
            k for k in stops
            if all(rows[j][0] * rows[k][1] - rows[j][1] * rows[k][0] >= 0 for j in stops)
        )
        if rows[r][1] < rows[r][0]:
            return Fraction(det + x + y, det), (Fraction(x, det), Fraction(y, det))


def assert_optimal(rows, result):
    """`result` has reference_lp's optimum and a feasible vertex attaining it."""
    opt, (x, y) = result
    assert opt == reference_lp(rows)[0], rows
    assert all(a * x + b * y + c >= 0 for a, b, c in rows), rows
    assert opt == 1 + x + y


# every table cell of q in {2,3,4,5,7,8,9}, delta 1..6, n <= 39
SWEEP = [
    P(q, n, d, delta)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for delta in range(1, 7)
    for n in range(delta + 1, 40)
    for d in range(1, n - delta + 1)
]


# a sample of every (d, delta) for q in {16, 27, 125, 1024} and n <= 64, beyond the tables' q <= 9
LARGE_Q = [
    P(q, n, d, e - d)
    for q in (16, 27, 125, 1024)
    for n in range(2, 65)
    for d, e in itertools.combinations(range(1, n + 1), 2)
][::101]

def random_rows(rng):
    """Small-integer rows with c > 0: many ties, parallel and concurrent lines."""
    bound = rng.randint(1, 4)
    rows = [(1, 0, 0), (0, 1, 0)]
    for _ in range(rng.randint(1, 8)):
        a = rng.randint(-bound, bound)
        b = rng.choice([a, a, rng.randint(-bound, bound)])  # b = a: an edge of equal objective
        rows.append((a, b, rng.randint(1, 2 * bound)))
    if rng.random() < 0.3:
        rows.insert(rng.randrange(2, len(rows) + 1), rng.choice(rows[2:]))
    return rows


class TestLpBound:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (P(2, 11, 2, 2), 56),
            (P(2, 18, 2, 2), 154),
            (P(3, 7, 3, 3), 27),
            (P(3, 10, 3, 3), 81),
            (P(2, 13, 6, 6), 24),
        ],
    )
    def test_reference_values(self, params, expected):
        assert lp_bound(params) == expected

    def test_tiny_space_is_tight(self):
        # distances {1, 2} in length 2: the whole space qualifies
        assert lp_bound(P(2, 2, 1, 1)) == 4

    def test_certificate_is_feasible_vertex(self):
        params = P(2, 9, 4, 2)
        opt, (a_d, a_e) = lp_optimum(params)
        assert a_d >= 0 and a_e >= 0
        assert opt == 1 + a_d + a_e

    def test_matches_reference_on_short_lengths(self):
        for params in SWEEP:
            if params.n <= 16:
                assert_optimal(reference_rows(params), lp_optimum(params))

    def test_matches_reference_on_sweep_sample(self):
        for params in SWEEP[::50]:
            rows = reference_rows(params)
            assert_optimal(rows, lp_optimum(params))

    def test_pruned_rows_walk_like_all_rows(self):
        # dropping the rows with a, b >= 0 and finding the first edge while reading
        # the rows change neither the optimum nor the vertex of the walk over all rows
        for params in SWEEP:
            n, q, d, e = params.n, params.q, params.d, params.d2
            rows = [(1, 0, 0), (0, 1, 0), *kraw_rows(n, q, d, e)]
            assert lp_optimum(params) == reference_walk(rows), params

    def test_large_alphabets_walk_like_all_rows(self):
        for i, params in enumerate(LARGE_Q):
            n, q, d, e = params.n, params.q, params.d, params.d2
            rows = [(1, 0, 0), (0, 1, 0), *kraw_rows(n, q, d, e)]
            result = lp_optimum(params)
            assert result == reference_walk(rows), params
            if i % 40 == 0:  # the vertex enumeration costs about 15 ms a cell at n near 64
                assert_optimal(rows, result)

    def test_matches_reference_on_degenerate_rows(self):
        rng = random.Random(7)
        bounded = 0
        for _ in range(3000):
            rows = random_rows(rng)
            if not reference_is_unbounded(rows):
                bounded += 1
                result = _lp_solve(rows[2:])
                assert result == reference_walk(rows), rows
                assert_optimal(rows, result)
        assert 2000 < bounded < 3000


class TestPlotkin:
    def test_applicable(self):
        assert plotkin_bound(P(2, 7, 4, 1)) == 8
        assert plotkin_bound(P(2, 7, 4, 3)) == 8
        assert plotkin_bound(P(3, 4, 3, 1)) == 9

    def test_boundary_not_applicable(self):
        assert plotkin_bound(P(2, 8, 4, 4)) is None


class TestD2:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (P(2, 9, 4, 2), 16),
            (P(2, 8, 4, 4), 16),
            (P(4, 7, 4, 2), 64),
            (P(3, 11, 6, 3), 243),
            (P(2, 12, 6, 4), 20),
        ],
    )
    def test_reference_values(self, params, expected):
        result = d2_bound(params)
        assert result is not None and result.value == expected

    def test_not_applicable_when_linear_coefficient_negative(self):
        assert d2_bound(P(2, 11, 2, 2)) is None

    def test_strictness_flag(self):
        assert d2_bound(P(2, 9, 4, 2)).strict
        # equality case of the linear-coefficient condition
        assert not d2_bound(P(2, 10, 4, 2)).strict
        assert not d2_bound(P(4, 7, 4, 2)).strict

    def test_exact_fraction_recorded(self):
        r = d2_bound(P(2, 17, 8, 2))
        assert r.value == 22 and r.exact == Fraction(160, 7)
        assert not r.attains_integer


class TestDdRefine:
    @pytest.mark.parametrize(
        "params,start,expected",
        [
            (P(2, 12, 6, 4), 20, 19),
            (P(2, 20, 10, 4), 28, 27),
            (P(2, 16, 8, 6), 28, 27),
        ],
    )
    def test_refutations(self, params, start, expected):
        assert dd_refine(params) == expected

    @pytest.mark.parametrize(
        "params,start",
        [
            (P(2, 8, 4, 2), 12),
            (P(2, 9, 4, 2), 16),
            (P(2, 19, 10, 2), 20),
            (P(2, 20, 10, 2), 24),
        ],
    )
    def test_non_refutations(self, params, start):
        assert dd_refine(params) == start

    @pytest.mark.parametrize(
        "params,start,point",
        [
            (P(2, 12, 7, 3), 10, (10, -1)),  # a negative coordinate
            (P(2, 10, 5, 3), 16, (Fraction(40, 3), Fraction(5, 3))),  # a fractional one
        ],
    )
    def test_refutation_kinds(self, params, start, point):
        assert reference_strength2_distribution(params) == point
        assert dd_refine(params) == start - 1

    def test_matches_two_moment_solve_on_sweep(self):
        # every cell with a strict, integer d2 value N for q = 2..9 and n <= 40
        cells = 0
        for q, n in itertools.product(range(2, 10), range(2, 41)):
            for d, e in itertools.combinations(range(1, n + 1), 2):
                params = P(q, n, d, e - d)
                d2 = d2_bound(params)
                if d2 is None or not d2.strict or not d2.attains_integer:
                    continue
                cells += 1
                a_d, a_e = reference_strength2_distribution(params)
                assert a_d + a_e == d2.value - 1, params
                fits = min(a_d, a_e) >= 0 and a_d.denominator == a_e.denominator == 1
                assert dd_refine(params) == d2.value - (not fits), params
        assert cells == 2367

    @pytest.mark.parametrize(
        "params",
        [
            P(2, 10, 4, 2),  # boundary case, not strict
            P(2, 17, 8, 2),  # d2 = 160/7, not an integer
            P(2, 11, 2, 2),  # d2 does not apply
        ],
    )
    def test_none_without_strict_integer_d2(self, params):
        assert dd_refine(params) is None


class TestGrayRankin:
    def test_reference_values(self):
        assert gray_rankin_bound(2, 8, 4) == 16
        assert gray_rankin_bound(4, 8, 6) == 32

    def test_not_applicable(self):
        assert gray_rankin_bound(2, 10, 2) is None

    def test_integer_floor_matches_fraction_floor(self):
        applicable = 0
        for q, n in itertools.product(range(2, 10), range(1, 41)):
            for d in range(1, n + 1):
                denom = n - ((q - 1) * n - q * d) ** 2
                if denom <= 0:
                    assert gray_rankin_bound(q, n, d) is None
                    continue
                applicable += 1
                num = q * (q * d - (q - 2) * n) * (n - d)
                assert gray_rankin_bound(q, n, d) == math.floor(Fraction(q * num, denom)), (q, n, d)
        assert applicable == 604

    def test_one_symbol_alphabet_refused(self):
        with pytest.raises(ValueError, match="q>=2, n>=1, d>=1 required"):
            gray_rankin_bound(1, 5, 2)


class TestSphere:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (P(2, 11, 4, 2), 23),
            (P(2, 13, 6, 4), 27),
            (P(3, 9, 1, 3), 37),
            (P(4, 8, 2, 5), 49),
        ],
    )
    def test_reference_values(self, params, expected):
        sb = sphere_bound(params)
        assert sb.value == expected

    def test_not_applicable_small_ratio(self):
        sb = sphere_bound(P(3, 9, 3, 3))
        assert sb.value is None and (sb.r, sb.s) == (1, 2)

    def test_ratio_in_lowest_terms(self):
        sb = sphere_bound(P(2, 11, 4, 2))
        assert (sb.r, sb.s) == (2, 3)

    def test_threshold_switch(self):
        # d/(d+delta) = 2/3 applies only while (2r+1)^2 > 2(q-1)n
        assert sphere_bound(P(2, 12, 4, 2)).value is not None
        assert sphere_bound(P(2, 13, 4, 2)).value is None


class TestAggregator:
    def test_dd_wins(self):
        report = best_upper_bound(P(2, 12, 6, 4))
        assert report.best == 19 and report.status.methods == ("dd",)

    def test_lp_wins(self):
        report = best_upper_bound(P(2, 13, 6, 6))
        assert report.best == 24 and "lp" in report.status.methods

    def test_not_well_defined(self):
        report = best_upper_bound(P(2, 9, 3, 4))
        assert report.status.kind == "not_well_defined"

    def test_exact_short_circuit(self):
        report = best_upper_bound(P(3, 5, 1, 2))
        assert report.status.kind == "exact" and report.best == 6

    def test_gray_rankin_not_aggregated(self):
        # at (2, 8, {4, 8}) the antipodal-only value equals the general one,
        # but the gr entry must never define `best` on its own
        report = best_upper_bound(P(2, 8, 4, 4))
        assert "gr" not in report.status.methods
        assert [e.value for e in report.entries if e.method == "gr"] == [16]

    def test_external_bound_used(self):
        ext = read_external_bounds("q,n,d,bound\n2,13,8,4\n")
        report = best_upper_bound(P(2, 13, 8, 2), external=ext)
        assert report.best == 4 and report.status.methods == ("ext",)

    def test_lp_never_above_d2_or_plotkin(self):
        for n in range(6, 17):
            for d in range(1, n - 1):
                for delta in (1, 2, 3):
                    if d + delta > n:
                        continue
                    params = P(2, n, d, delta)
                    lp = lp_bound(params)
                    d2 = d2_bound(params)
                    if d2 is not None:
                        assert lp <= d2.value
                    pk = plotkin_bound(params)
                    if pk is not None:
                        assert lp <= pk


class TestExternalBounds:
    def test_parse(self):
        ext = read_external_bounds("q,n,d,bound\n2,13,8,4\n3,8,6,9\n")
        assert ext.get((2, 13, 8)) == 4
        assert ext.get((3, 8, 6)) == 9
        assert ext.get((2, 9, 4)) is None

    def test_rejects_bad_header(self):
        with pytest.raises(ExternalBoundsError, match="line 1"):
            read_external_bounds("q,n,bound\n")

    def test_rejects_bad_row_with_line_number(self):
        with pytest.raises(ExternalBoundsError, match="line 3"):
            read_external_bounds("q,n,d,bound\n2,13,8,4\n2,x,8,4\n")

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ExternalBoundsError, match="line 2"):
            read_external_bounds("q,n,d,bound\n2,13,8\n")

    def test_skips_blank_lines(self):
        ext = read_external_bounds("q,n,d,bound\n\n2,13,8,4\n   \n3,8,6,9\n\n")
        assert ext == {(2, 13, 8): 4, (3, 8, 6): 9}

    def test_rejects_zero_bound_with_line_number(self):
        with pytest.raises(ExternalBoundsError, match="^line 4: values out of range$"):
            read_external_bounds("q,n,d,bound\n2,13,8,4\n\n2,9,4,0\n")

    @pytest.mark.parametrize("rows", ["2,12,6,18\n2,12,6,30\n", "2,12,6,30\n2,12,6,18\n"])
    def test_rejects_repeated_key_with_line_number(self, rows):
        # with the last row winning, row order would decide the bound
        with pytest.raises(ExternalBoundsError, match=r"^line 3: repeated \(q, n, d\) = \(2, 12, 6\)$"):
            read_external_bounds("q,n,d,bound\n" + rows)
