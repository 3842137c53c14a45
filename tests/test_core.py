import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodist import constructions
from twodist.constructions import GeneratorMatrix, dm_code, seed_code
from twodist.core import (
    BLOCK_PAIRS,
    GATHER_ELEMENTS,
    BoundStatus,
    Code,
    CodeFormatError,
    TwoDistParams,
    _half_popcounts,
    _pack_words,
    _popcounts,
    _read_canonical,
    _symbol_code,
    _symbol_tables,
    _unpack_words,
    distance_distribution,
    is_antipodal,
    moments,
    read_code,
    strength,
    verify_two_distance,
    write_code,
)
from twodist.krawtchouk import kraw_eval


# references: the pure-Python pair loop, column-subset strength, pairwise
# antipodality, the pair-sum moments and the per-coordinate packer that the
# distance kernel, Delsarte's theorem, the sum over occurring distances and
# the one-gather packer replace


def hamming(x, y):
    return sum(a != b for a, b in zip(x, y))


def translate(code, word):
    """Subtract a fixed word coordinate-wise mod q (distance preserving)."""
    moved = tuple(tuple((a - b) % code.q for a, b in zip(w, word)) for w in code.words)
    return Code(code.q, code.n, moved)


def reference_counts(code):
    cnt = [0] * (code.n + 1)
    cnt[0] = code.size
    words = code.words
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            cnt[hamming(words[i], words[j])] += 2
    return tuple(cnt)


def reference_strength(code):
    n, q, size = code.n, code.q, code.size
    t = 0
    while t < n:
        t_next = t + 1
        if size % (q**t_next):
            break
        lam = size // (q**t_next)
        ok = True
        for cols in itertools.combinations(range(n), t_next):
            seen = {}
            for w in code.words:
                key = tuple(w[c] for c in cols)
                seen[key] = seen.get(key, 0) + 1
            if len(seen) != q**t_next or any(v != lam for v in seen.values()):
                ok = False
                break
        if not ok:
            break
        t = t_next
    return t


def reference_antipodal(code):
    if code.size % code.q:
        return False
    words = code.words
    groups = {}
    for w in words:
        far = frozenset(v for v in words if v == w or hamming(v, w) == code.n)
        if len(far) != code.q:
            return False
        groups[w] = far
    for w, g in groups.items():
        for v in g:
            if groups[v] != g:
                return False
    return True


def reference_moments(code):
    """[M_0, ..., M_n] with M_i the sum over ordered pairs (x, y) of K_i(d(x, y)) / r_i."""
    n, q = code.n, code.q
    dists = [hamming(x, y) for x in code.words for y in code.words]
    columns = {z: [kraw_eval(n, q, i, z) for i in range(n + 1)] for z in set(dists)}  # K_i(z)
    totals = [0] * (n + 1)
    for z in dists:
        totals = list(map(int.__add__, totals, columns[z]))
    return [Fraction(t, (q - 1) ** i * math.comb(n, i)) for i, t in enumerate(totals)]


def reference_pack(words, q):
    """`_pack_words` one coordinate at a time: a table lookup and an OR per limb it touches."""
    code = _symbol_code(q)
    w = code.shape[1]
    size, n = words.shape
    limbs = -(-n * w // 64)
    packed = np.zeros((limbs, size), dtype=np.uint64)
    for i in range(n):
        first = 64 * limbs - n * w + w * i  # the coordinate's first bit
        offset = first % 64
        bits = np.zeros((q, 64 * -(-(offset + w) // 64)), dtype=np.uint8)
        bits[:, offset : offset + w] = code
        tables = np.packbits(bits, axis=1).view(">u8").T.astype(np.uint64)
        for k, table in enumerate(tables):
            packed[first // 64 + k] |= table.take(words[:, i])
    return packed


def assert_matches_reference(code):
    assert code.distance_counts == reference_counts(code)
    assert strength(code) == reference_strength(code)
    assert is_antipodal(code) == reference_antipodal(code)
    assert [moments(code, i) for i in range(code.n + 1)] == reference_moments(code)


def bits(*strings):
    return tuple(tuple(int(c) for c in s) for s in strings)


def even_weight_code(n):
    words = tuple(w for w in itertools.product((0, 1), repeat=n) if sum(w) % 2 == 0)
    return Code(2, n, words)


TERNARY6 = Code(3, 4, bits("0000", "1000", "2110", "2120", "2201", "2202"))


class TestCodeValidation:
    def test_rejects_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Code(2, 2, ((0, 2),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Code(2, 2, ((0, 1), (0, 1)))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Code(2, 2, ((0, 1, 0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Code(2, 2, ())

    @pytest.mark.parametrize("q,words", [(1025, ((0,), (1,))), (2**65, ((0,), (5,)))])
    def test_rejects_alphabet_above_limit(self, q, words):
        # refused before the 2^m x (2^m - 1) symbol bits of the distance kernel are built
        with pytest.raises(ValueError, match=rf"alphabet size {q} is above the supported maximum"):
            Code(q, 1, words)

    def test_largest_alphabet_accepted(self):
        assert Code(1024, 1, ((0,), (1023,))).distance_counts == (2, 2)

    @pytest.mark.parametrize("words,first", [
        (((0.5, 1), (1, 1)), r"\(0\.5, 1\)"),
        (((0, 1), (1.0, 1)), r"\(1\.0, 1\)"),
        (((0, 1), (0, "1")), r"\(0, '1'\)"),
        (np.array([[0.5, 1], [1, 1]]), r"\(0\.5, 1\.0\)"),
        (np.array([[1.0, 0], [1, 1]]), r"\(1\.0, 0\.0\)"),
        (["01", "10"], "01"),
        ([(np.True_, 0), (0, 0.5)], r"\(0, 0\.5\)"),  # a numpy bool is an integer symbol
    ])
    def test_rejects_non_integer_symbols(self, words, first):
        with pytest.raises(ValueError, match=rf"word {first} has non-integer symbols"):
            Code(2, 2, words)

    def test_non_integer_after_earlier_fault_keeps_first_error(self):
        with pytest.raises(ValueError, match=r"word \(0, 2\) has symbols outside"):
            Code(2, 2, ((0, 2), (0.5, 1)))
        with pytest.raises(ValueError, match=r"duplicate word \(0, 1\)"):
            Code(2, 2, ((0, 1), (0, 1), (0.5, 1)))

    def test_set_of_words_refused(self):
        # a set has no word order for the array or for the first bad word
        with pytest.raises(ValueError, match="^words must be a sequence or an array, not set$"):
            Code(2, 2, {(0, 1), (1, 0)})

    def test_integer_object_array_accepted(self):
        code = Code(2, 2, np.array([[0, 1], [1, 1]], dtype=object))
        assert code.words == ((0, 1), (1, 1)) and code.distance_counts == (2, 2, 0)


class TestTwoDistParams:
    def test_rejects_overlong_distances(self):
        with pytest.raises(ValueError):
            TwoDistParams(2, 2, 2, 1)

    def test_d2(self):
        assert TwoDistParams(2, 8, 4, 4).d2 == 8


class TestVerify:
    def test_six_word_ternary_code_ok(self):
        report = verify_two_distance(TERNARY6, TwoDistParams(3, 4, 1, 2))
        assert report.ok and report.observed == (1, 3)

    def test_single_distance_is_equidistant_not_ok(self):
        code = Code(2, 2, bits("00", "11"))
        report = verify_two_distance(code, TwoDistParams(2, 2, 1, 1))
        assert not report.ok
        assert report.equidistant
        assert report.observed == (2,)

    def test_even_weight_words(self):
        report = verify_two_distance(even_weight_code(4), TwoDistParams(2, 4, 2, 2))
        assert report.ok and report.observed == (2, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_two_distance(TERNARY6, TwoDistParams(3, 5, 1, 2))


def brute_distribution(code):
    counts = [0] * (code.n + 1)
    for x in code.words:
        for y in code.words:
            counts[hamming(x, y)] += 1
    return [Fraction(c, code.size) for c in counts]


class TestDistribution:
    def test_singleton(self):
        dist = distance_distribution(Code(2, 3, bits("000")))
        assert dist.a(0) == 1 and sum(dist.counts) == 1

    def test_even_weight_length4(self):
        # brute-force oracle: every word has six words at distance 2 and one at 4
        code = even_weight_code(4)
        dist = distance_distribution(code)
        assert list(dist.counts) == brute_distribution(code)
        assert dist.a(0) == 1 and dist.a(2) == 6 and dist.a(4) == 1

    def test_dm_code_distribution(self):
        dist = distance_distribution(dm_code(2, 1, 2))
        assert dist.a(0) == 1 and dist.a(4) == 14 and dist.a(8) == 1

    def test_non_integer_entries(self):
        code = Code(2, 2, bits("00", "01", "11"))
        dist = distance_distribution(code)
        assert dist.a(1) == Fraction(4, 3)
        assert sum(dist.counts) == code.size


class TestStrength:
    def test_simplex_dimension3(self):
        assert strength(seed_code("simplex", 2, 3).span()) == 2

    def test_repetition_pair(self):
        assert strength(Code(2, 2, bits("00", "11"))) == 1

    def test_dm_code_at_least_2(self):
        assert strength(dm_code(2, 1, 2)) >= 2

    def test_whole_space(self):
        words = tuple(itertools.product((0, 1), repeat=3))
        assert strength(Code(2, 3, words)) == 3


class TestMoments:
    def test_zeroth_is_size_squared(self):
        for code in (TERNARY6, even_weight_code(4)):
            assert moments(code, 0) == code.size**2

    def test_dm_code_first_two_vanish(self):
        code = dm_code(2, 1, 2)
        assert moments(code, 1) == 0 and moments(code, 2) == 0

    def test_small_pair(self):
        assert moments(Code(2, 2, bits("00", "01")), 1) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            moments(TERNARY6, 5)


class TestAntipodal:
    def test_pair(self):
        assert is_antipodal(Code(2, 2, bits("00", "11")))

    def test_dm_code(self):
        assert is_antipodal(dm_code(2, 1, 2))

    def test_even_weight_length4(self):
        assert is_antipodal(even_weight_code(4))

    def test_triple_without_far_pairs(self):
        assert not is_antipodal(Code(2, 3, bits("000", "011", "101")))


class TestFileFormat:
    def test_roundtrip(self):
        text = write_code(TERNARY6)
        assert read_code(text) == TERNARY6

    def test_comments_and_blanks(self):
        text = "# header comment\nq=2 n=3\n\n000  # inline\n111\n"
        code = read_code(text)
        assert code.words == bits("000", "111")

    def test_header_keys_apart_by_any_whitespace(self):
        code = read_code("# a tab between the keys\nq=2\tn=3\n001\n110\n")
        assert code == read_code("q=2   n=3\n001\n110\n") == Code(2, 3, bits("001", "110"))

    def test_rejects_large_alphabet(self):
        with pytest.raises(CodeFormatError):
            read_code("q=10 n=2\n00\n")
        big = Code(16, 1, tuple((s,) for s in range(16)))
        with pytest.raises(CodeFormatError):
            write_code(big)

    def test_rejects_bad_symbol(self):
        with pytest.raises(CodeFormatError, match="line 2"):
            read_code("q=2 n=3\n021\n")

    def test_rejects_wrong_length(self):
        with pytest.raises(CodeFormatError, match="line 2"):
            read_code("q=2 n=3\n0110\n")

    def test_rejects_missing_header(self):
        with pytest.raises(CodeFormatError):
            read_code("000\n")


@pytest.mark.parametrize("build,message", [
    (lambda: Code(1, 2, ((0, 0),)), "alphabet size must be at least 2"),
    (lambda: Code(2, 0, ((),)), "length must be at least 1"),
    (lambda: TwoDistParams(2, 5, 0, 1), "q>=2, n>=1, d>=1, delta>=1 required"),
    (lambda: read_code("q=2 n=0\n"), "line 1: n must be positive"),
    # int() reads a sign and underscores; the header takes ASCII digits only
    (lambda: read_code("q=+2 n=3\n001\n"), "line 1: bad header 'q=+2 n=3'"),
    (lambda: read_code("q=2 n=0_3\n001\n"), "line 1: bad header 'q=2 n=0_3'"),
    # the header is q, then n, once each and nothing else
    (lambda: read_code("q=5 n=3 q=2\n001\n"), "line 1: bad header 'q=5 n=3 q=2'"),
    (lambda: read_code("n=3 q=2\n001\n"), "line 1: bad header 'n=3 q=2'"),
    (lambda: read_code("q=2 n=3 extra=x\n001\n"), "line 1: bad header 'q=2 n=3 extra=x'"),
    # a line break inside the first line splits the header for both readers
    (lambda: read_code("q=2\rn=3\n001\n"), "line 1: bad header 'q=2'"),
    (lambda: Code(2, 2, 5), "words must be a sequence or an array, not int"),
    (lambda: Code(2, 2, iter([(0, 1)])), "words must be a sequence or an array, not list_iterator"),
    (lambda: Code(2, 2, np.array(5)), "words must be a sequence or an array, not a 0-d array"),
    (lambda: read_code("# only a comment\n"), "missing header line 'q=<int> n=<int>'"),
    (lambda: BoundStatus("bogus"), "bad status kind 'bogus'"),
    (lambda: BoundStatus("exact", 3, 4), "exact needs lo == hi"),
])
def test_input_guard_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# property tests ------------------------------------------------------------


@st.composite
def small_codes(draw):
    q = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    universe = list(itertools.product(range(q), repeat=n))
    size = draw(st.integers(1, min(8, len(universe))))
    words = draw(
        st.lists(st.sampled_from(universe), min_size=size, max_size=size, unique=True)
    )
    return Code(q, n, tuple(words))


@given(small_codes())
@settings(max_examples=60, deadline=None)
def test_distribution_sums_to_size(code):
    dist = distance_distribution(code)
    assert dist.a(0) == 1
    assert sum(dist.counts) == code.size
    assert all(a >= 0 for a in dist.counts)


@given(small_codes(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_distribution_invariant_under_symmetry(code, rnd):
    perm = list(range(code.n))
    rnd.shuffle(perm)
    permuted = Code(code.q, code.n, tuple(tuple(w[i] for i in perm) for w in code.words))
    assert distance_distribution(permuted).counts == distance_distribution(code).counts
    shifted = translate(code, code.words[0])
    assert distance_distribution(shifted).counts == distance_distribution(code).counts
    assert shifted.words[0] == (0,) * code.n


@given(small_codes())
@settings(max_examples=40, deadline=None)
def test_moments_nonnegative_and_vanish_up_to_strength(code):
    t = strength(code)
    for i in range(code.n + 1):
        m = moments(code, i)
        assert m >= 0
        if 1 <= i <= t:
            assert m == 0


# the kernel against the references -----------------------------------------

# every catalog family the benchmark's verify workload builds:
# (constructions function, *args); a tuple argument is built first
CATALOG_BUILDS = (
    *(("dm_code", p, ell, h) for p, ell, h in [
        (2, 1, 2), (2, 1, 3), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 3, 1),
        (3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 1, 4), (3, 2, 1)]),
    *(("seed_code", "simplex", q, m) for q, m in [(2, 5), (3, 4), (4, 3), (5, 3)]),
    *(("seed_code", "mds2", q, r) for q, r in [(7, 5), (9, 7), (8, 6)]),
    ("su1_code", 2, 4, 2, 1, 1, "remove"), ("su1_code", 2, 6, 3, 1, 1, "remove"),
    ("su1_code", 3, 4, 2, 1, 1, "remove"), ("su1_code", 2, 4, 2, 1, 1, "union"),
    ("su1_code", 3, 4, 2, 1, 1, "union"),
    *(("su2_code", p, m, r) for p, m, r in [(2, 2, 3), (2, 3, 4), (3, 2, 4), (2, 4, 5), (5, 2, 3)]),
    ("arc_code", 4), ("arc_code", 8),
    ("pencil_code", 7, 3), ("pencil_code", 9, 2), ("pencil_code", 8, 4),
    ("complementary_code", ("su2_code", 2, 2, 3)), ("complementary_code", ("su2_code", 2, 3, 4)),
    ("complementary_code", ("su2_code", 3, 2, 3)), ("complementary_code", ("seed_code", "mds2", 9, 6)),
    ("small_family_code", "weight2", 12, 2, None, None),
    ("small_family_code", "bin-2-2d", 20, 2, None, 4),
    ("small_family_code", "disjoint", 30, 2, 2, None),
)


def construct(build):
    fn, *args = build
    args = [construct(a) if isinstance(a, tuple) else a for a in args]
    return getattr(constructions, fn)(*args)


@pytest.mark.parametrize("build", CATALOG_BUILDS, ids=lambda b: "-".join(map(str, b)))
def test_catalog_codes_match_reference(build):
    made = construct(build)
    assert_matches_reference(made.span() if isinstance(made, GeneratorMatrix) else made)


@st.composite
def linear_spans(draw):
    """Spans of random generator matrices over GF(2) and GF(3), repeats dropped."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    words = {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n))
        for coeffs in itertools.product(range(q), repeat=k)
    }
    return Code(q, n, tuple(sorted(words)))


@given(st.one_of(small_codes(), linear_spans()))
@settings(max_examples=150, deadline=None)
def test_random_codes_match_reference(code):
    assert_matches_reference(code)


@st.composite
def near_antipodal_codes(draw):
    """Unions of the q translates w + c(1,...,1) of random words, sometimes with one word changed."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    bases = draw(st.lists(word, min_size=1, max_size=4))
    words = sorted({tuple((s + c) % q for s in w) for w in bases for c in range(q)})
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, n - 1))
        changed = words[i][:j] + ((words[i][j] + 1) % q,) + words[i][j + 1 :]
        if changed not in words:
            words[i] = changed
    return Code(q, n, tuple(words))


@given(near_antipodal_codes())
@settings(max_examples=200, deadline=None)
def test_antipodal_matches_reference(code):
    assert is_antipodal(code) == reference_antipodal(code)


class TestKernelEdgeCases:
    def test_one_word(self):
        assert_matches_reference(Code(3, 4, ((1, 2, 0, 1),)))

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_length_one(self, q):
        assert_matches_reference(Code(q, 1, tuple((s,) for s in range(q))))
        assert_matches_reference(Code(q, 1, ((q - 1,),)))
        assert is_antipodal(Code(q, 1, tuple((s,) for s in range(q))))

    def test_symbols_up_to_26(self):
        assert_matches_reference(seed_code("mds2", 27, 4).span())
        assert_matches_reference(Code(27, 3, ((0, 13, 26), (26, 26, 26), (5, 0, 26))))

    def test_non_transitive_far_relation(self):
        # every far set has q = 3 words, but the far graph is a 6-cycle
        code = Code(3, 2, bits("00", "11", "02", "10", "01", "12"))
        assert not reference_antipodal(code)
        assert_matches_reference(code)

    def test_complementary_words_of_length_300(self):
        # n >= 256 needs a wider accumulator than uint8
        code = Code(2, 300, ((0,) * 300, (1,) * 300))
        assert code.distance_counts[300] == 2
        assert_matches_reference(code)


# the packed kernel's edges: several half-matrix blocks, coordinates that
# straddle two limbs, popcount sums above 255 and words of many limbs


def random_code(q, n, size, seed):
    """`size` distinct random words, in the order drawn."""
    rng = np.random.default_rng(seed)
    words = {}
    while len(words) < size:
        words.setdefault(tuple(rng.integers(0, q, n).tolist()))
    return Code(q, n, tuple(words))


def shuffled(code, seed):
    """The code translated by a random word, its coordinates and words permuted."""
    rng = np.random.default_rng(seed)
    moved = translate(code, tuple(rng.integers(0, code.q, code.n).tolist()))
    array = moved.array[rng.permutation(code.size)][:, rng.permutation(code.n)]
    return Code(code.q, code.n, array)


class TestPackedKernel:
    @pytest.mark.parametrize("q, n, size", [
        (2, 14, 700),  # 700 words: the half matrix spans several blocks
        (3, 9, 300),
        (17, 3, 200),  # 93 bits: coordinate 0 straddles the two limbs
        (27, 3, 300),
        (17, 20, 60),  # popcounts up to 16 * 20 = 320, past uint8
        (2, 300, 40),  # five limbs, distances past 255
    ])
    def test_counts_and_antipodality_match_reference(self, q, n, size):
        code = random_code(q, n, size, seed=q * n + size)
        assert code.distance_counts == reference_counts(code)
        assert is_antipodal(code) == reference_antipodal(code)
        if size > 256:
            assert len(list(_half_popcounts(code.packed))) > 1

    @pytest.mark.parametrize("size", [1, 2, 128, 129])
    def test_counts_at_block_edges(self, size):
        # 128 words are exactly one square block of BLOCK_PAIRS pairs; 129 add a tail block
        assert 128 * 128 == BLOCK_PAIRS
        code = random_code(5, 6, size, seed=size)
        assert code.distance_counts == reference_counts(code)
        assert len(list(_half_popcounts(code.packed))) == (1 if size <= 128 else 2)

    def test_half_blocks_cover_each_pair_once(self):
        packed = random_code(3, 6, 300, seed=1).packed
        seen = np.zeros((300, 300), dtype=int)
        block = np.zeros(300, dtype=int)
        for k, (start, pops) in enumerate(_half_popcounts(packed)):
            rows = len(pops)
            seen[start : start + rows, start:] += 1
            block[start : start + rows] = k
            assert np.array_equal(pops, _popcounts(packed[:, start : start + rows, None],
                                                   packed[:, None, start:]))
        # once per unordered pair; both orders only when the pair shares a block
        assert block[-1] > 0 and (seen <= 1).all()
        assert (seen | seen.T).all()
        assert np.array_equal(seen & seen.T, block[:, None] == block)

    def test_symbol_tables_stay_small_for_wide_alphabets(self):
        # 16 coordinates of 1,023 bits each: a bit array over every coordinate,
        # symbol and limb would hold 16 * 1024 * 256 * 64 bytes, 268 MB
        _symbol_tables.cache_clear()
        tracemalloc.start()
        try:
            counts = Code(1024, 16, ((0,) * 16, (1023,) * 16)).distance_counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert counts[16] == 2

    @pytest.mark.parametrize(
        "build", [b for b in CATALOG_BUILDS if b[0] == "dm_code"], ids=lambda b: "-".join(map(str, b))
    )
    def test_dm_codes_are_antipodal(self, build):
        # shuffling scatters each group of q far words across the blocks
        code = shuffled(construct(build), seed=sum(build[1:]))
        assert is_antipodal(code)
        if code.size <= 128:
            assert reference_antipodal(code)

    @pytest.mark.parametrize("words", [
        ("00", "11", "02", "10", "01", "12"),  # two far words each, but a 6-cycle
        ("000", "001", "002", "010", "110", "221"),  # far degrees 1, 1, 2, 1, 3, 4
        ("000", "111", "222", "112", "221", "120"),  # 000 far from four words, 120 from none
    ])
    def test_count_test_passes_yet_not_antipodal(self, words):
        code = Code(3, len(words[0]), bits(*words))
        assert code.size % 3 == 0 and code.distance_counts[code.n] == 2 * code.size
        assert not is_antipodal(code) and not reference_antipodal(code)
        assert not is_antipodal(shuffled(code, seed=3))

    @pytest.mark.parametrize("q, words", [
        (3, ("00", "01", "10", "11", "20", "21")),  # {0, 1, 2} x {0, 1}: a 6-cycle of far pairs
        (3, ("002", "012", "100", "102", "201", "221")),
        (4, ("012", "013", "110", "112", "120", "133", "302", "321")),
    ])
    def test_leader_count_passes_yet_not_antipodal(self, q, words):
        # size/q words start with symbol 0, and each word has q - 1 far words
        code = Code(q, len(words[0]), tuple(tuple(map(int, w)) for w in words))
        assert (code.array[:, 0] == 0).sum() * q == code.size
        assert code.distance_counts[code.n] == (q - 1) * code.size
        assert not is_antipodal(code) and not reference_antipodal(code)

    def test_leaders_span_several_blocks(self):
        # 343 words against 49 leaders: 16,807 pairs, two blocks
        code = shuffled(dm_code(7, 1, 1), seed=7)
        assert code.size * code.size // code.q > BLOCK_PAIRS
        assert is_antipodal(code)


@pytest.mark.parametrize("q, n", [
    (2, 1), (2, 70),  # one coordinate; 70 one-bit coordinates in two limbs
    (3, 22), (4, 22),  # 66 bits: coordinate 0 straddles the two limbs
    (5, 10), (8, 10),  # 70 bits
    (9, 5), (9, 10),  # 75 and 150 bits
    (17, 3),  # 93 bits
    (1024, 2),  # 2046 bits: each coordinate spans 16 or 17 limbs
])
def test_pack_matches_per_coordinate_reference(q, n):
    step = GATHER_ELEMENTS // len(_symbol_tables(q, n)[1])  # words in one gather block
    rng = np.random.default_rng(q * n)
    for size in (1, step, step + 1, 2 * step + 3):
        words = rng.integers(0, q, size=(size, n)).astype(np.min_scalar_type(q - 1))
        packed = _pack_words(words, q)
        assert packed.dtype == np.uint64
        assert packed.tobytes() == reference_pack(words, q).tobytes()
        assert np.array_equal(_unpack_words(packed, q, n), words)


def test_pack_temporaries_stay_bounded():
    # 2,048 words of 1,024 one-bit coordinates: one gather of every piece of
    # every word would hold 2^21 indices and 2^21 pieces, 32 MB
    words = dm_code(2, 1, 9).array
    _pack_words(words[:1], 2)  # the symbol tables, built once per (q, n)
    tracemalloc.start()
    try:
        packed = _pack_words(words, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert packed.tobytes() == reference_pack(words, 2).tobytes()


# packed words: every alphabet the symbol code widens for, from one limb to
# several, with coordinates that straddle limbs


@st.composite
def word_sets(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 9, 17, 64, 65, 257)))
    width = 2 ** (q - 1).bit_length() - 1
    n = draw(st.integers(1, max(3, 320 // width)))
    words = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=1, max_size=6)
    )
    return q, np.array([[0] * n, *words], dtype=np.min_scalar_type(q - 1))


def straddling(q, n):
    rng = np.random.default_rng(q * n)
    words = rng.integers(0, q, size=(6, n))
    words[0] = 0
    return q, words.astype(np.min_scalar_type(q - 1))


@given(word_sets())
@example(straddling(4, 22))  # 66 bits: coordinate 0 straddles the two limbs
@example(straddling(9, 10))  # 150 bits in three limbs
@example(straddling(257, 3))  # 1533 bits: coordinates span eight limbs each
@settings(max_examples=150, deadline=None)
def test_packed_distances_and_order_match_words(case):
    q, words = case
    n = words.shape[1]
    width = 2 ** (q - 1).bit_length() - 1
    t = (width + 1) // 2  # bits in which two distinct symbols differ
    packed = _pack_words(words, q)
    assert packed.shape == (-(-n * width // 64), len(words))
    assert not packed[:, 0].any()
    unpacked = _unpack_words(packed, q, n)
    assert unpacked.dtype == words.dtype and np.array_equal(unpacked, words)
    keys = [tuple(packed[:, i].tolist()) for i in range(len(words))]
    rows = [tuple(r) for r in words.tolist()]
    for j in range(len(words)):
        distances = (words != words[j]).sum(axis=1)
        assert np.array_equal(_popcounts(packed, packed[:, j]), t * distances)
        assert [key < keys[j] for key in keys] == [row < rows[j] for row in rows]


# the Code contract: (q, n, array) is all a code keeps; words, equality,
# hashing and repr read as they did when the tuple of words was stored


class TestCodeContract:
    @pytest.mark.parametrize("build", CATALOG_BUILDS[::4], ids=lambda b: "-".join(map(str, b)))
    def test_array_and_tuples_give_equal_codes(self, build):
        made = construct(build)
        code = made.span() if isinstance(made, GeneratorMatrix) else made
        words = tuple(tuple(int(s) for s in w) for w in code.array.tolist())
        from_tuples = Code(code.q, code.n, words)
        from_array = Code(code.q, code.n, np.array(words, dtype=np.int64))
        assert from_array == from_tuples == code
        assert hash(from_array) == hash(from_tuples) == hash(code)
        assert from_array.words == from_tuples.words == code.words == words
        assert all(type(s) is int for w in from_array.words for s in w)

    def test_words_as_given_hold_python_ints(self):
        given_words = ((np.int64(0), 1, True), (2, np.uint8(1), 0))
        code = Code(3, 3, given_words)
        assert code.words == given_words == ((0, 1, 1), (2, 1, 0))
        assert all(type(s) is int for w in code.words for s in w)

    def test_order_alphabet_and_type_tell_codes_apart(self):
        code = Code(3, 2, bits("01", "10"))
        assert code != Code(3, 2, bits("10", "01"))
        assert code != Code(4, 2, bits("01", "10"))
        assert code != Code(3, 2, bits("01"))
        assert code != code.words and code != "01 10"

    def test_repr(self):
        code = Code(3, 2, np.array([[0, 1], [2, 0]]))
        assert repr(code) == "Code(q=3, n=2, words=((0, 1), (2, 0)))"

    def test_array_built_code_builds_no_tuples_until_read(self):
        code = Code(2, 3, np.array([[0, 0, 0], [1, 1, 1]]))
        same = Code(2, 3, bits("000", "111"))
        assert code == same and hash(code) == hash(same) and code.size == 2
        assert verify_two_distance(code, TwoDistParams(2, 3, 1, 2)).observed == (3,)
        assert is_antipodal(code) and read_code(write_code(code)) == code
        assert "words" not in vars(code)
        assert code.words == bits("000", "111")

    @pytest.mark.parametrize("name", ["q", "n", "array", "words", "packed", "size", "other"])
    def test_attributes_cannot_be_assigned(self, name):
        code = Code(2, 3, bits("000", "111"))
        assert code.words and code.packed.size  # cached attributes stay frozen too
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(code, name)
        assert code == Code(2, 3, bits("000", "111"))
        assert not code.array.flags.writeable and not code.packed.flags.writeable


# the array-backed Code and its file format against the word-by-word code
# they replace: validation tuple by tuple, a writer that joins strings and a
# reader that converts each symbol with int(c)


def reference_check(q, n, words):
    seen = set()
    for w in words:
        if len(w) != n:
            raise ValueError(f"word {w} does not have length {n}")
        if not all(isinstance(s, int) for s in w):
            raise ValueError(f"word {w} has non-integer symbols")
        if any(s < 0 or s >= q for s in w):
            raise ValueError(f"word {w} has symbols outside 0..{q - 1}")
        if w in seen:
            raise ValueError(f"duplicate word {w}")
        seen.add(w)


def reference_write(code):
    lines = [f"q={code.q} n={code.n}"]
    lines.extend("".join(str(s) for s in w) for w in code.words)
    return "\n".join(lines) + "\n"


def reference_read(text):
    """(q, n, words) as the int(c) reader parsed them; it also took non-ASCII digits."""
    header = None
    words = []
    q = n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            try:
                kv = dict(p.split("=", 1) for p in line.split())
                q, n = int(kv["q"]), int(kv["n"])
            except (ValueError, KeyError) as exc:
                raise CodeFormatError(f"line {lineno}: bad header {line!r}") from exc
            if q < 2 or q > 9:
                raise CodeFormatError(f"line {lineno}: q must be in 2..9")
            if n < 1:
                raise CodeFormatError(f"line {lineno}: n must be positive")
            header = (q, n)
            continue
        if len(line) != n:
            raise CodeFormatError(f"line {lineno}: expected {n} digits, got {len(line)}")
        try:
            w = tuple(int(c) for c in line)
        except ValueError as exc:
            raise CodeFormatError(f"line {lineno}: non-digit symbol in {line!r}") from exc
        if any(s >= q for s in w):
            raise CodeFormatError(f"line {lineno}: symbol out of range for q={q}")
        words.append(w)
    if header is None:
        raise CodeFormatError("missing header line 'q=<int> n=<int>'")
    if not words:
        raise CodeFormatError("no codewords in file")
    try:
        reference_check(q, n, words)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from exc
    return q, n, tuple(words)


def outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def raw_words(draw):
    """(q, n, words, named): words as Code is given them, and as its errors name them.

    A word may be ragged, out of range, not integers (a string such as
    "01" included), hold bools or repeat an earlier word.  The words come
    as a tuple, as numpy rows (named as the tuples of their entries), as
    a 1-D object array of words, or as a 2-D object array of symbols.
    """
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    symbol = st.one_of(
        st.integers(0, q - 1), st.sampled_from([-1, q, q + 5, 2**70, 0.5, 1.0, True, False])
    )
    length = st.one_of(st.just(n), st.integers(max(0, n - 1), n + 1))
    word = st.one_of(
        length.flatmap(lambda k: st.lists(symbol, min_size=k, max_size=k).map(tuple)),
        length.flatmap(lambda k: st.text(alphabet="01x", min_size=k, max_size=k)),
    )
    pool = draw(st.lists(word, min_size=1, max_size=6))
    if draw(st.booleans()):
        words = tuple(pool)
    else:
        words = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))
    form = draw(st.sampled_from(["tuple", "rows", "1-D objects", "2-D objects"]))
    if form == "rows":
        rows = [np.array(w) for w in words]
        return q, n, rows, tuple(tuple(r.tolist()) if r.ndim else r.tolist() for r in rows)
    if form == "1-D objects":
        array = np.empty(len(words), dtype=object)
        for i, w in enumerate(words):
            array[i] = w
        return q, n, array, words
    if form == "2-D objects" and all(isinstance(w, tuple) and len(w) == n for w in words):
        return q, n, np.array(words, dtype=object), words
    return q, n, words, words


@given(raw_words())
@settings(max_examples=400, deadline=None)
def test_validation_matches_reference(case):
    q, n, words, named = case
    expected = outcome(reference_check, q, n, named)
    got = outcome(lambda: Code(q, n, words).words)
    assert got == (named if expected is None else expected)
    if all(len(w) == n for w in named) and all(
        type(s) is int and abs(s) < 2**63 for w in named for s in w
    ):
        # the same words as one integer array: same verdict, same message
        got = outcome(lambda: Code(q, n, np.array(named, dtype=np.int64).reshape(-1, n)).words)
        assert got == (named if expected is None else expected)


@st.composite
def code_texts(draw):
    """Code files whose digit lines may be short, long, out of range, repeated or not digits.

    Blank and comment-only lines may come between the words.
    """
    q = draw(st.integers(2, 9))
    n = draw(st.integers(1, 4))
    good = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(
        lambda w: "".join(map(str, w))
    )
    noisy = st.text(alphabet="0123456789x -", min_size=max(0, n - 1), max_size=n + 1)
    comment = st.sampled_from(["", "  # note", "#"])
    pool = draw(st.lists(st.tuples(st.one_of(good, good, noisy), comment).map("".join),
                         min_size=1, max_size=5))
    filler = st.sampled_from(["", "   ", "# a comment", "  # indented comment"])
    lines = draw(st.lists(st.one_of(st.sampled_from(pool), st.sampled_from(pool), filler),
                          min_size=1, max_size=9))
    return "\n".join([f"q={q} n={n}", *lines]) + "\n"


def parsed(text):
    code = read_code(text)
    return code.q, code.n, code.words


@given(code_texts())
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference(text):
    assert outcome(parsed, text) == outcome(reference_read, text)


@pytest.mark.parametrize("build", CATALOG_BUILDS, ids=lambda b: "-".join(map(str, b)))
def test_catalog_file_round_trip_matches_reference(build):
    # includes su2(2, 4, 5): words of 75 bits, more than one 64-bit integer holds
    made = construct(build)
    code = made.span() if isinstance(made, GeneratorMatrix) else made
    text = write_code(code)
    assert text == reference_write(code)
    back = read_code(text)
    assert (back.q, back.n, back.words) == reference_read(text)
    assert back == code and hash(back) == hash(code)
    assert np.array_equal(back.array, code.array)


class TestWordArray:
    def test_read_only_and_outside_equality(self):
        array = TERNARY6.array
        assert array.dtype == np.uint8 and not array.flags.writeable
        assert array.tolist() == [list(w) for w in TERNARY6.words]
        same = Code(3, 4, np.array(TERNARY6.words))
        assert same == TERNARY6 and hash(same) == hash(TERNARY6)
        assert repr(same) == repr(TERNARY6)
        assert all(type(s) is int for w in same.words for s in w)

    def test_copies_the_given_array(self):
        given_words = np.array([[0, 1], [1, 0]])
        code = Code(2, 2, given_words)
        given_words[0, 0] = 1
        assert code.words == ((0, 1), (1, 0)) and code.array.tolist() == [[0, 1], [1, 0]]

    def test_wide_alphabet_dtype(self):
        code = Code(300, 2, ((299, 0), (0, 299)))
        assert code.array.dtype == np.uint16 and code.distance_counts == (2, 0, 2)

    def test_array_of_wrong_width_names_first_word(self):
        with pytest.raises(ValueError, match=r"word \(0, 1, 0\) does not have length 2"):
            Code(2, 2, np.array([[0, 1, 0], [1, 1, 1]]))
        with pytest.raises(ValueError, match=r"word 0 does not have length 1"):
            Code(2, 1, np.array([0, 1]))


@pytest.mark.parametrize("q", range(2, 10))
def test_written_text_reads_back_in_one_step(q):
    rng = np.random.default_rng(q)
    for size, n in ((1, 1), (1, 7), (q, 3), (40, 12)):
        words = np.unique(rng.integers(0, q, size=(size, n)), axis=0)
        code = Code(q, n, words[rng.permutation(len(words))])
        text = write_code(code)
        assert _read_canonical(text) is not None
        assert read_code(text) == code
        lines = text.splitlines()
        for variant in (
            "# a comment line\n" + text,
            "\r\n".join(lines) + "\r\n",
            "\n\n".join(lines) + "\n",
            "\n".join(line + "  " for line in lines) + "\n",
            text[:-1],  # no newline after the last word
        ):
            assert _read_canonical(variant) is None
            assert read_code(variant) == code


@pytest.mark.parametrize("text, message", [
    ("q=2 n=2\n01\n21\n", "line 3: symbol out of range for q=2"),
    ("q=2 n=2\n01\n01\n", "duplicate word (0, 1)"),
    ("q=2 n=2\n0\n011\n", "line 2: expected 2 digits, got 1"),  # whole 3-byte rows, misaligned
    ("q=10 n=1\n0\n", "line 1: q must be in 2..9"),
    ("q=2 n=2\n", "no codewords in file"),
    ("q=2 n=2", "no codewords in file"),
])
def test_reader_errors_on_near_canonical_text(text, message):
    assert outcome(read_code, text) == (CodeFormatError, message)


def test_hand_written_text_reads_as_its_canonical_text():
    rng = np.random.default_rng(7)
    words = np.unique(rng.integers(0, 5, size=(1100, 12)), axis=0)[:1000]
    code = Code(5, 12, words[rng.permutation(1000)])
    header, *lines = write_code(code).splitlines()
    hand = ["# 1,000 words over GF(5)", header, ""]
    for i, line in enumerate(lines):
        hand.append(f"{line}  # word {i}" if i % 7 else line)
        if i % 100 == 0:
            hand += ["", "# another hundred"]
    assert read_code("\r\n".join(hand) + "\r\n") == read_code(write_code(code)) == code


def test_scan_names_a_late_out_of_range_line_before_a_longer_one():
    words = ["".join(w) for w in itertools.product("012", repeat=4)]
    lines = ["# all 81 ternary words of length 4, then two bad lines", "q=3 n=4", *words]
    text = "\n".join([*lines, "0103", "01210"]) + "\n"
    message = f"line {len(lines) + 1}: symbol out of range for q=3"
    assert outcome(read_code, text) == outcome(reference_read, text) == (CodeFormatError, message)


class TestAsciiDigits:
    def test_rejects_non_ascii_digit(self):
        text = "q=2 n=3\n001\n0\u06611\n"  # ARABIC-INDIC DIGIT ONE
        assert reference_read(text)[2] == ((0, 0, 1), (0, 1, 1))
        with pytest.raises(CodeFormatError, match="line 3: non-digit symbol"):
            read_code(text)

    def test_rejects_fullwidth_digit_and_lone_surrogate(self):
        for bad in ("0\uff101", "0\ud8001"):
            with pytest.raises(CodeFormatError, match="line 2: non-digit symbol"):
                read_code(f"q=2 n=3\n{bad}\n")

    def test_rejects_non_ascii_header_digit(self):
        with pytest.raises(CodeFormatError, match="line 1: bad header"):
            read_code("q=\u0662 n=3\n011\n")

    def test_first_bad_line_wins(self):
        # a line of the wrong length after a non-digit line does not mask it
        with pytest.raises(CodeFormatError, match="line 2: non-digit"):
            read_code("q=2 n=2\n0x\n000\n")
        with pytest.raises(CodeFormatError, match="line 3: expected 2 digits, got 3"):
            read_code("q=2 n=2\n01\n000\n0x\n")
