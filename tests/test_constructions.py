import itertools
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import CATALOG_BUILDS, construct

from twodist import constructions
from twodist.constructions import (
    CatalogEntry,
    GeneratorMatrix,
    _span,
    arc_code,
    complementary_code,
    difference_matrix,
    dm_code,
    equidistant_lower_bound,
    from_multiplicities,
    pencil_code,
    point_multiplicities,
    projective_points,
    seed_code,
    small_family_code,
    su1_code,
    su2_code,
    two_distance_lower_bounds,
)
from twodist.core import Code, TwoDistParams, distance_distribution, is_antipodal, verify_two_distance
from twodist.fields import GF, prime_power


def weights(g):
    return g.weight_distribution()


class TestGeneratorMatrix:
    def test_span_size_and_rank(self):
        g = seed_code("simplex", 2, 3)
        assert g.rank() == 3
        assert g.span().size == 8

    def test_rank_deficient_span_rejected(self):
        g = GeneratorMatrix(2, ((1, 0), (1, 0)))
        assert g.rank() == 1
        with pytest.raises(ValueError):
            g.span()

    def test_projective_points_count(self):
        assert len(projective_points(2, 4)) == 15
        assert len(projective_points(3, 3)) == 13
        assert len(projective_points(4, 2)) == 5

    def test_projective_points_refuses_oversized_space(self):
        with pytest.raises(ValueError, match="exceeds"):
            projective_points(2, 21)
        with pytest.raises(ValueError, match="exceeds"):
            seed_code("simplex", 2, 40)

    def test_rows_are_one_read_only_array(self):
        source = np.array([[1, 0, 2], [0, 1, 1]])
        g = GeneratorMatrix(3, source)
        assert g.rows.shape == (2, 3) and g.rows.dtype == np.uint8
        assert not g.rows.flags.writeable
        with pytest.raises(ValueError):
            g.rows[0, 0] = 2
        source[0, 0] = 0  # the caller's array is copied, not frozen
        assert g.rows[0, 0] == 1
        assert GeneratorMatrix(257, ((256, 1),)).rows.dtype == np.uint16

    @pytest.mark.parametrize("q,rows,message", [
        (6, (), "q=6 is not a prime power"),
        (2, (), "empty generator matrix"),
        (2, ((),), "empty generator matrix"),
        (2, ((), (1,)), "empty generator matrix"),
        (2, ((1, 0), (1,)), "ragged generator matrix"),
        (2, ((1, 5), (1,)), "ragged generator matrix"),
        (2, ((1, 2), (1, 0)), "entries must lie in 0..q-1"),
        (2, ((1, -1), (0, 1)), "entries must lie in 0..q-1"),
    ])
    def test_validation_messages_keep_their_precedence(self, q, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeneratorMatrix(q, rows)

    @pytest.mark.parametrize("rows", [((0.5, 1), (1, 0)), np.ones((2, 2)), (("0", "1"),)])
    def test_non_integer_entries_rejected(self, rows):
        with pytest.raises(ValueError, match="entries must be integers"):
            GeneratorMatrix(2, rows)

    @pytest.mark.parametrize("q,k", [(q, k) for q in (2, 3, 4, 5, 7, 8, 9) for k in (1, 2, 3, 4)])
    def test_projective_points_match_reference(self, q, k):
        points = projective_points(q, k)
        assert points.dtype == np.min_scalar_type(q - 1)
        assert tuple(map(tuple, points.tolist())) == reference_projective_points(q, k)


# references: the tuple loops that the point-multiplicity vector replaces


def reference_projective_points(q, k):
    """Canonical representatives (first nonzero entry 1), lexicographic."""
    vectors = itertools.product(range(q), repeat=k)
    return tuple(v for v in vectors if next((s for s in v if s), None) == 1)


def reference_normalize_column(q, col):
    """Scale a nonzero column so its first nonzero entry is 1."""
    field = GF(q)
    nz = next((s for s in col if s), None)
    if nz is None:
        raise ValueError("zero column cannot be normalized")
    inv = field.inv[nz]
    return tuple(int(field.mul[inv, s]) for s in col)


def reference_point_counts(g):
    return Counter(reference_normalize_column(g.q, c) for c in zip(*g.rows.tolist()))


def column_multiplicity(g):
    """Maximal number of columns that are scalar multiples of one column (any q^k)."""
    return max(reference_point_counts(g).values())


@st.composite
def full_rank_generators(draw):
    """Full-rank generators with repeated and rescaled columns, in random column order."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    k = draw(st.integers(1, 4))
    nonzero = st.lists(st.integers(0, q - 1), min_size=k, max_size=k).filter(any)
    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    cols += draw(st.lists(nonzero, max_size=8))
    for _ in range(draw(st.integers(0, 4))):  # a multiple of an earlier column
        col, c = draw(st.sampled_from(cols)), draw(st.integers(1, q - 1))
        cols.append(tuple(int(GF(q).mul[c, x]) for x in col))
    cols = draw(st.permutations(cols))
    return GeneratorMatrix(q, tuple(zip(*cols)))


@given(full_rank_generators())
@settings(max_examples=200, deadline=None)
def test_point_multiplicities_match_reference(g):
    points = projective_points(g.q, g.k)
    m = point_multiplicities(g)
    counts = reference_point_counts(g)
    assert m.tolist() == [counts[p] for p in map(tuple, points.tolist())]
    assert m.max() == column_multiplicity(g)
    # the same column multiset, written in point order
    again = from_multiplicities(g.q, points, m)
    assert list(zip(*again.rows.tolist())) == sorted(counts.elements())


class TestPointMultiplicities:
    def test_zero_column_is_refused(self):
        g = GeneratorMatrix(3, ((1, 0, 2), (0, 0, 1)))
        for fn in (point_multiplicities, complementary_code):
            with pytest.raises(ValueError, match="zero column cannot be normalized"):
                fn(g)

    def test_column_multiplicity_beyond_the_enumeration_limit(self):
        # q^k = 2^21: the multiplicity counts the columns, not the points
        k = 21
        identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        g = GeneratorMatrix(2, tuple(row + row[:1] + (1,) for row in identity))
        assert column_multiplicity(g) == 2
        with pytest.raises(ValueError, match="exceeds"):
            point_multiplicities(g)


# references: the per-message loop that the table-driven span replaces, and
# the entry-by-entry Gauss-Jordan elimination that the whole-row rank replaces


def reference_messages(g):
    """All q^k messages; index i maps to the base-q digits of i, low first."""
    q, k = g.q, g.k
    for i in range(q**k):
        yield tuple((i // q**j) % q for j in range(k))


def reference_codeword(g, message):
    field = GF(g.q)
    word = [0] * g.n
    for coeff, row in zip(message, g.rows.tolist()):
        if coeff:
            for i, x in enumerate(row):
                if x:
                    word[i] = int(field.add[word[i], field.mul[coeff, x]])
    return tuple(word)


def reference_rank(g):
    field = GF(g.q)
    mat = g.rows.tolist()
    rank = 0
    for col in range(g.n):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = field.inv[mat[rank][col]]
        mat[rank] = [int(field.mul[inv, x]) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [int(field.add[x, field.neg[field.mul[c, y]]]) for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def reference_weight_distribution(g):
    out = Counter()
    for m in reference_messages(g):
        if any(m):
            out[sum(1 for s in reference_codeword(g, m) if s)] += 1
    return dict(out)


def assert_span_matches_reference(g):
    words = tuple(reference_codeword(g, m) for m in reference_messages(g))
    assert g.rank() == reference_rank(g)
    assert (g.rank() == g.k) == (len(set(words)) == len(words))
    if len(set(words)) == len(words):
        assert g.span().words == words
    else:
        with pytest.raises(ValueError, match="rank deficient"):
            g.span()
    # same counts, listed in the same order
    assert list(g.weight_distribution().items()) == list(reference_weight_distribution(g).items())


LINEAR_BUILDS = tuple(b for b in CATALOG_BUILDS if b[0] not in ("dm_code", "small_family_code"))


@pytest.mark.parametrize("build", LINEAR_BUILDS, ids=lambda b: "-".join(map(str, b)))
def test_catalog_spans_match_reference(build):
    assert_span_matches_reference(construct(build))


@st.composite
def generator_matrices(draw):
    """Random matrices over small fields; about a quarter repeat a row (rank deficient)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4 if q <= 3 else 3))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if k >= 2 and draw(st.integers(0, 3)) == 0:
        rows[-1] = rows[0]
    return GeneratorMatrix(q, tuple(map(tuple, rows)))


@given(generator_matrices())
@settings(max_examples=150, deadline=None)
def test_random_spans_match_reference(g):
    assert_span_matches_reference(g)


@pytest.mark.parametrize("q", [127, 131, 251, 256, 257, 243])
def test_spans_over_wide_fields_match_reference(q):
    # each kind of array addition: 131 and 251 widen their sums past uint8
    rng = np.random.default_rng(q)
    g = GeneratorMatrix(q, rng.integers(0, q, (2, 3)))
    words = _span(g)
    assert words.dtype == np.min_scalar_type(q - 1)
    reference = [reference_codeword(g, m) for m in reference_messages(g)]
    assert words.tolist() == list(map(list, reference))


def test_point_table_is_built_once_and_read_only():
    points = projective_points(3, 4)
    assert projective_points(3, 4) is points
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 2


def test_building_twice_gives_the_same_spans():
    # no builder writes into the shared point table
    first = [construct(b).span().array.copy() for b in LINEAR_BUILDS]
    second = [construct(b).span().array for b in LINEAR_BUILDS]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(first, second))
    for q, k in {(3, 4), (2, 6), (9, 2), (4, 3)}:
        assert tuple(map(tuple, projective_points(q, k).tolist())) == reference_projective_points(q, k)


@pytest.mark.parametrize("rows,message", [
    (np.zeros((2, 2, 2), dtype=int), "entries must be integers"),
    (np.zeros((0, 3), dtype=int), "empty generator matrix"),
    (np.zeros((3, 0), dtype=int), "empty generator matrix"),
    (np.array([[1, 2]], dtype=np.uint64), "entries must lie in 0..q-1"),
    ([[1, 0], [0, None]], "entries must be integers"),
    ([[1, 2**70]], "entries must be integers"),
    ([1, 0, 1], "generator matrix must be 2-D"),
    (np.arange(3), "generator matrix must be 2-D"),
    (7, "generator matrix must be 2-D"),
    ([np.array(1), np.array(0)], "generator matrix must be 2-D"),  # 0-d rows have no len()
    ({(1, 0)}, "generator matrix must be 2-D"),
    ((((1,), (1, 2)),), "entries must be integers"),  # ragged one level down
])
def test_arrays_that_fail_the_one_test_get_the_scan_message(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GeneratorMatrix(2, rows)


@pytest.mark.parametrize("rows", [np.array([[True, False]]), np.array([[1, 0]], dtype=np.uint64),
                                  [[np.int64(1), 0]], ((1, 0), (0, 1))])
def test_valid_rows_of_any_integer_kind(rows):
    g = GeneratorMatrix(2, rows)
    assert g.rows.dtype == np.uint8 and g.rows.tolist() == np.asarray(rows, dtype=int).tolist()


def concatenate(outer, inner):
    """Replace each outer symbol i by the i-th inner codeword."""
    words = tuple(tuple(s for sym in w for s in inner.words[sym]) for w in outer.words)
    return Code(inner.q, outer.n * inner.n, words)


class TestConcatenate:
    def test_mds_with_simplex(self):
        outer = seed_code("mds2", 4, 3).span()
        inner = seed_code("simplex", 2, 2).span()
        code = concatenate(outer, inner)
        assert (code.q, code.n, code.size) == (2, 9, 16)
        report = verify_two_distance(code, TwoDistParams(2, 9, 4, 2))
        assert report.ok
        # agrees with the generator-level construction as a set of words
        assert set(code.words) == set(su2_code(2, 2, 3).span().words)

    def test_equidistant_outer(self):
        outer = seed_code("mds2", 4, 5).span()
        inner = seed_code("simplex", 2, 2).span()
        code = concatenate(outer, inner)
        assert (code.n, code.size) == (15, 16)
        assert distance_distribution(code).support() == (8,)


DM_ARGS = [b[1:] for b in CATALOG_BUILDS if b[0] == "dm_code"] + [(2, 1, 0), (2, 1, 5)]


class TestDifferenceMatrix:
    @pytest.mark.parametrize("p,ell,h", [(2, 1, 1), *DM_ARGS])
    def test_valid_by_definition(self, p, ell, h):
        entries = difference_matrix(p, ell, h)
        assert len(entries) == p ** (ell + h)
        assert reference_is_difference_matrix(entries, p, ell)

    def test_smallest_case(self):
        entries = difference_matrix(2, 1, 0)
        assert len(entries) == 2 and reference_is_difference_matrix(entries, 2, 1)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            difference_matrix(4, 1, 1)

    def test_broken_matrix_detected(self):
        assert not reference_is_difference_matrix(np.zeros((2, 2), dtype=np.intp), 2, 1)

    def test_product_row_that_is_no_permutation_refused(self, monkeypatch):
        # the premise that difference_matrix's proof rests on, broken in one nonzero row
        mul = GF(4).mul.copy()
        mul[2, 3] = mul[2, 2]
        monkeypatch.setattr(constructions, "GF", lambda q: SimpleNamespace(q=q, mul=mul))
        with pytest.raises(AssertionError, match="not a permutation"):
            difference_matrix(2, 1, 1)

    def test_entries_are_one_read_only_integer_array(self):
        entries = difference_matrix(2, 1, 1)
        assert entries.shape == (4, 4) and entries.dtype == np.intp
        assert not entries.flags.writeable


# the Python loops that the table lookups of difference_matrix and dm_code
# replace, and the difference property checked by its definition


def reference_is_difference_matrix(entries, p, ell):
    """Each difference of two distinct rows takes every value of GF(p^ell) equally often."""
    field, q = GF(p**ell), p**ell
    rows = entries.tolist()
    mu = len(rows) // q
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            diff = Counter(int(field.add[a, field.neg[b]]) for a, b in zip(rows[i], rows[j]))
            if len(diff) != q or any(v != mu for v in diff.values()):
                return False
    return True


def reference_dm_code(p, ell, h):
    """(entries, words) of the difference matrix D(p^ell, p^h) and its code."""
    big, q = GF(p ** (ell + h)), p**ell
    size = p ** (ell + h)
    entries = tuple(tuple(int(big.mul[x, y]) % q for y in range(size)) for x in range(size))
    field = GF(q)
    words = tuple(tuple(int(field.add[s, c]) for s in row) for row in entries for c in range(q))
    return entries, words


@pytest.mark.parametrize("p,ell,h", DM_ARGS)
def test_dm_code_matches_reference(p, ell, h):
    entries, words = reference_dm_code(p, ell, h)
    assert tuple(map(tuple, difference_matrix(p, ell, h).tolist())) == entries
    assert dm_code(p, ell, h).words == words


class TestDmCode:
    @pytest.mark.parametrize(
        "p,ell,h,expect",
        [
            (2, 1, 2, (2, 8, 16, (4, 8))),
            (3, 1, 1, (3, 9, 27, (6, 9))),
            (2, 2, 1, (4, 8, 32, (6, 8))),
        ],
    )
    def test_parameters(self, p, ell, h, expect):
        code = dm_code(p, ell, h)
        q, n, size, dists = expect
        assert (code.q, code.n, code.size) == (q, n, size)
        assert distance_distribution(code).support() == dists
        assert is_antipodal(code)

    def test_meets_antipodal_bound_with_equality(self):
        from twodist.bounds import gray_rankin_bound

        for (p, ell, h) in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)]:
            code = dm_code(p, ell, h)
            d = min(distance_distribution(code).support())
            assert gray_rankin_bound(code.q, code.n, d) == code.size


class TestSeeds:
    def test_simplex(self):
        g = seed_code("simplex", 2, 3)
        assert (g.k, g.n) == (3, 7)
        assert weights(g) == {4: 7}
        g = seed_code("simplex", 3, 2)
        assert weights(g) == {3: 8}

    def test_mds2(self):
        g = seed_code("mds2", 4, 3)
        assert weights(g) == {2: 9, 3: 6}

    def test_mds2_full_is_equidistant(self):
        g = seed_code("mds2", 3, 4)
        assert weights(g) == {3: 8}

    def test_range_checks(self):
        with pytest.raises(ValueError):
            seed_code("mds2", 3, 5)
        with pytest.raises(ValueError):
            seed_code("hexagon", 3, 2)


class TestSu1:
    def test_removal_reference(self):
        g = su1_code(2, 4, 2, 1, 1)
        assert (g.k, g.n) == (4, 12)
        assert weights(g) == {6: 12, 8: 3}

    def test_union_reference(self):
        g = su1_code(2, 4, 2, 1, 1, mode="union")
        assert (g.k, g.n) == (4, 18)
        assert weights(g) == {8: 3, 10: 12}

    def test_ternary(self):
        g = su1_code(3, 3, 2, 1, 1)
        assert (g.k, g.n) == (3, 9)
        assert set(weights(g)) == {6, 9}

    def test_formula_matches_enumeration(self):
        for (q, m, r, s, h) in [(2, 3, 2, 1, 1), (2, 4, 3, 1, 1), (3, 3, 2, 2, 1), (2, 4, 2, 2, 2)]:
            g = su1_code(q, m, r, s, h)
            n = (s * (q**m - 1) - h * (q**r - 1)) // (q - 1)
            d = s * q ** (m - 1) - h * q ** (r - 1)
            delta = h * q ** (r - 1)
            assert g.n == n
            assert set(weights(g)) == {d, d + delta}

    def test_griesmer_optimal_when_h_small(self):
        def griesmer_bound(q, k, d):
            """Minimal length of a linear [n, k, d]_q code by the Griesmer sum."""
            return sum(-(-d // q**i) for i in range(k))

        for (q, m, r, s, h) in [(2, 4, 2, 1, 1), (2, 3, 2, 1, 1), (3, 3, 2, 2, 2)]:
            if h <= q - 1:
                g = su1_code(q, m, r, s, h)
                d = s * q ** (m - 1) - h * q ** (r - 1)
                assert g.n == griesmer_bound(q, m, d)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            su1_code(2, 3, 3, 1, 1)  # r must stay below m
        with pytest.raises(ValueError):
            su1_code(2, 4, 2, 1, 2)  # removal needs h <= s
        with pytest.raises(ValueError):
            su1_code(2, 4, 2, 1, 2, mode="union")  # union needs h coprime to q


class TestSu2:
    def test_reference(self):
        g = su2_code(2, 2, 3)
        assert (g.k, g.n) == (4, 9)
        assert g.rank() == 4
        assert weights(g) == {4: 9, 6: 6}

    def test_full_point_count_degenerates(self):
        # r = q+1 uses every outer point, so the result is equidistant
        g = su2_code(2, 2, 5)
        assert weights(g) == {8: 15}

    def test_formula_matches_enumeration(self):
        for (p, m, r) in [(2, 2, 2), (2, 2, 4), (5, 1, 3), (2, 3, 2)]:
            g = su2_code(p, m, r)
            n = r * (p**m - 1) // (p - 1)
            d = (r - 1) * p ** (m - 1)
            assert g.n == n and g.k == 2 * m
            assert set(weights(g)) == {d, d + p ** (m - 1)}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            su2_code(3, 1, 2)  # p^m = 3 < 4
        with pytest.raises(ValueError):
            su2_code(4, 2, 3)  # p must be prime


class TestArc:
    def test_q4(self):
        g = arc_code(4)
        assert (g.k, g.n) == (3, 6)
        assert set(weights(g)) == {4, 6}
        assert g.span().size == 64

    def test_q8(self):
        g = arc_code(8)
        assert (g.k, g.n) == (3, 10)
        assert set(weights(g)) == {8, 10}

    def test_odd_characteristic_rejected(self):
        with pytest.raises(ValueError):
            arc_code(3)


class TestPencil:
    @pytest.mark.parametrize(
        "q,delta,expect_weights",
        [(3, 2, {3, 5}), (2, 1, {2, 3}), (4, 3, {4, 7})],
    )
    def test_reference(self, q, delta, expect_weights):
        g = pencil_code(q, delta)
        assert g.n == q + 1 + delta and g.k == 2
        assert set(weights(g)) == expect_weights

    def test_column_multiplicity_is_delta_plus_one(self):
        g = pencil_code(3, 2)
        assert column_multiplicity(g) == 3


class TestSmallFamilies:
    def test_weight2(self):
        code = small_family_code("weight2", 6)
        assert code.size == 16
        assert distance_distribution(code).support() == (2, 4)

    def test_weight2_other_alphabet(self):
        code = small_family_code("weight2", 6, q=4)
        assert code.q == 4 and code.size == 16
        assert distance_distribution(code).support() == (2, 4)

    def test_disjoint(self):
        code = small_family_code("disjoint", 15, d=3)
        assert code.size == 6
        assert distance_distribution(code).support() == (3, 6)

    def test_ternary13(self):
        code = small_family_code("ternary13", 5)
        assert code.size == 6
        assert distance_distribution(code).support() == (1, 3)

    def test_block_family(self):
        code = small_family_code("bin-2-2d", 10, delta=4)
        assert code.size == 10
        assert distance_distribution(code).support() == (2, 6)

    def test_block_family_boundary_gains_a_word(self):
        code = small_family_code("bin-2-2d", 6, delta=3)
        assert code.size == 7
        assert distance_distribution(code).support() == (2, 5)


# each constructor's refusals, in the order it checks them: where two checks
# fail at once, the first one's message is the one raised
@pytest.mark.parametrize("build,args,message", [
    (difference_matrix, (4, 1, 1), "p=4 must be prime"),
    (difference_matrix, (2, 0, 1), "need ell >= 1 and h >= 0"),
    (difference_matrix, (2, 1, -1), "need ell >= 1 and h >= 0"),
    (seed_code, ("simplex", 6, 2), "q=6 is not a prime power"),
    (seed_code, ("simplex", 2, 0), "simplex needs m >= 1"),
    (seed_code, ("mds2", 3, 1), "mds2 needs 2 <= r <= q+1"),
    (seed_code, ("mds2", 3, 5), "mds2 needs 2 <= r <= q+1"),
    (seed_code, ("hexagon", 3, 2), "unknown seed kind 'hexagon'"),
    (su1_code, (6, 4, 2, 1, 1), "q=6 is not a prime power"),
    (su1_code, (2, 4, 1, 1, 1), "need 2 <= r <= m-1"),
    (su1_code, (2, 4, 4, 0, 1), "need 2 <= r <= m-1"),
    (su1_code, (2, 4, 2, 0, 1), "need s >= 1 and h >= 1"),
    (su1_code, (2, 4, 2, 1, 0), "need s >= 1 and h >= 1"),
    (su1_code, (2, 4, 2, 1, 2), "removal mode needs h <= s"),
    (su1_code, (2, 4, 2, 1, 2, "union"), "union mode needs h coprime to q"),
    (su1_code, (2, 4, 2, 1, 1, "merge"), "unknown mode 'merge'"),
    (su2_code, (4, 2, 3), "p=4 must be prime"),
    (su2_code, (3, 1, 2), "needs p^m >= 4"),
    (su2_code, (2, 2, 1), "needs 2 <= r <= q+1"),
    (su2_code, (2, 2, 6), "needs 2 <= r <= q+1"),
    (pencil_code, (6, 1), "q=6 is not a prime power"),
    (pencil_code, (3, 0), "delta must be positive"),
    (small_family_code, ("weight2", 3, 1), "weight2 family needs n >= 4"),
    (small_family_code, ("weight2", 4, 1), "alphabet must have at least two symbols"),
    (small_family_code, ("bin-2-2d", 2), "bin-2-2d needs delta >= 3"),
    (small_family_code, ("bin-2-2d", 2, 2, None, 2), "bin-2-2d needs delta >= 3"),
    (small_family_code, ("bin-2-2d", 6, 2, None, 4), "bin-2-2d needs n >= delta + 3"),
    (small_family_code, ("disjoint", 1), "disjoint family needs d >= 1"),
    (small_family_code, ("disjoint", 1, 2, 0), "disjoint family needs d >= 1"),
    (small_family_code, ("disjoint", 5, 2, 3), "disjoint family needs n >= 2d"),
    (small_family_code, ("ternary13", 3), "ternary13 needs n >= 4"),
    (small_family_code, ("octads", 24), "unknown family 'octads'"),
])
def test_constructor_refusals(build, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*args)


class TestComplementary:
    def test_su2_complement(self):
        comp = complementary_code(su2_code(2, 2, 3))
        assert comp.n == 6
        assert weights(comp) == {2: 6, 4: 9}

    def test_su1_complement_degenerate(self):
        comp = complementary_code(su1_code(2, 4, 2, 1, 1))
        assert comp.n == 3
        assert weights(comp) == {0: 3, 2: 12}

    def test_joint_equidistance_checked(self):
        # every complement the catalog builds and the screens test: beside its
        # base, each point is s columns, s copies of the simplex code
        bases = [b[1] for b in CATALOG_BUILDS if b[0] == "complementary_code"] + [("arc_code", 4)]
        for base in bases:
            g = construct(base)
            s = int(point_multiplicities(g).max())
            joint = GeneratorMatrix(g.q, np.hstack([g.rows, complementary_code(g).rows]))
            assert weights(joint) == {s * g.q ** (g.k - 1): g.q**g.k - 1}, base

    def test_simplex_has_empty_complement(self):
        with pytest.raises(ValueError, match="empty"):
            complementary_code(seed_code("simplex", 2, 3))

    def test_involution_on_column_multisets(self):
        g = su2_code(2, 2, 3)
        comp = complementary_code(g)
        # complement twice with the same s restores the original multiset
        again = complementary_code(comp)
        assert point_multiplicities(again).tolist() == point_multiplicities(g).tolist()

    def test_rank_deficient_input_rejected(self):
        with pytest.raises(ValueError, match="full rank"):
            complementary_code(GeneratorMatrix(2, ((1, 0), (1, 0))))


class TestVerifyAllFamilies:
    """Every emitted two-distance family passes the central predicate."""

    def test_families(self):
        cases = [
            (dm_code(2, 1, 2), (2, 8, 4, 4)),
            (dm_code(3, 1, 1), (3, 9, 6, 3)),
            (su2_code(2, 2, 3).span(), (2, 9, 4, 2)),
            (su1_code(2, 4, 2, 1, 1).span(), (2, 12, 6, 2)),
            (arc_code(4).span(), (4, 6, 4, 2)),
            (pencil_code(3, 2).span(), (3, 6, 3, 2)),
            (small_family_code("weight2", 7), (2, 7, 2, 2)),
        ]
        for code, (q, n, d, delta) in cases:
            report = verify_two_distance(code, TwoDistParams(q, n, d, delta))
            assert report.ok, (q, n, d, delta, report.observed)


class TestCatalog:
    def test_exact_match_found(self):
        entries = two_distance_lower_bounds(TwoDistParams(2, 9, 4, 2))
        assert entries[0].size == 16 and entries[0].family == "su2"

    def test_padding_allowed(self):
        entries = two_distance_lower_bounds(TwoDistParams(2, 10, 4, 2))
        assert entries[0].size == 16

    def test_weight2_sizes_match_count(self):
        for n in (7, 11, 18):
            entries = two_distance_lower_bounds(TwoDistParams(2, n, 2, 2))
            assert entries[0].size == n * (n - 1) // 2 + 1

    def test_degenerate_su2_not_reported(self):
        # distances {8, 10} at length 15: the only su2 candidate is equidistant
        entries = two_distance_lower_bounds(TwoDistParams(2, 15, 8, 2))
        assert all(e.family != "su2" for e in entries)

    def test_su2_large_alphabet_member(self):
        entries = two_distance_lower_bounds(TwoDistParams(2, 14, 4, 4))
        assert entries[0] == CatalogEntry(64, "su2")

    def test_catalog_entries_are_realizable_codes(self):
        # spot-verify that the top entry of a few cells is an actual code
        checks = [
            ((2, 9, 4, 2), su2_code(2, 2, 3).span()),
            ((2, 8, 4, 4), dm_code(2, 1, 2)),
            ((3, 9, 6, 3), dm_code(3, 1, 1)),
        ]
        for (q, n, d, delta), code in checks:
            top = two_distance_lower_bounds(TwoDistParams(q, n, d, delta))[0]
            assert top.size == code.size
            assert verify_two_distance(code, TwoDistParams(q, code.n, d, delta)).ok

    def test_equidistant_catalog(self):
        e = equidistant_lower_bound(2, 15, 8)
        assert e.size == 16  # the [15,4,8] simplex / difference-matrix code
        e = equidistant_lower_bound(2, 14, 8)
        assert e.size == 8 and e.family == "simplex"
        e = equidistant_lower_bound(3, 8, 6)
        assert e.size == 9
        assert equidistant_lower_bound(2, 3, 5) is None
        assert equidistant_lower_bound(6, 10, 2) is None  # no field of order 6


def reference_su1_entries(params):
    """The su1 part of the catalog scanned over every m with q^m <= 2^20."""
    q, n, d, delta = params.q, params.n, params.d, params.delta
    p = prime_power(q)[0]
    entries = []
    for m in range(3, 22):
        if q**m > 1 << 20:
            break
        for r in range(2, m):
            base = q ** (r - 1)
            if delta % base:
                continue
            h = delta // base
            top = q ** (m - 1)
            if (d + delta) % top == 0:
                s = (d + delta) // top
                if 1 <= h <= s:
                    nat = (s * (q**m - 1) - h * (q**r - 1)) // (q - 1)
                    if 0 < nat <= n:
                        entries.append(CatalogEntry(q**m, "su1"))
            if d % top == 0 and h % p:
                s = d // top
                if s >= 1:
                    nat = (s * (q**m - 1) + h * (q**r - 1)) // (q - 1)
                    if nat <= n:
                        entries.append(CatalogEntry(q**m, "su1"))
    return tuple(sorted(entries, key=lambda e: -e.size))


def test_su1_scan_stopping_at_d_plus_delta_matches_reference():
    # every (d, delta) at seven lengths up to 58, so su1 matches up to q^m = 64 occur
    matched = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(4, 65, 9):
            for d in range(1, n):
                for delta in range(1, n - d + 1):
                    params = TwoDistParams(q, n, d, delta)
                    ref = reference_su1_entries(params)
                    got = tuple(e for e in two_distance_lower_bounds(params) if e.family == "su1")
                    assert got == tuple(dict.fromkeys(ref)), params
                    matched += bool(ref)
    assert matched == 403
