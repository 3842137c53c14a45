"""Codes over small alphabets and their distance statistics.

Everything here is exact: pair-distance counts are integers, and distance
distributions and moments are `fractions.Fraction`s, never floats.  A
`Code` validates its words once into one read-only word array, and keeps
only q, n and that array; its tuple of words is built on first read.  The
text file format is written with one `tobytes()`; text exactly as written
is read back in one step (one `np.frombuffer`, one reshape, one range
test), and any other text by one line scan and one `np.frombuffer`.

Bad input meets one rule: each door is one numpy test, then one scan.
Valid input passes the test, and other input is scanned once, to its
first fault: for `Code` the first bad word (by length, integer symbols,
range, then repeat), for `read_code` the first bad line (by length,
ASCII digits, then range; a repeat names the word).

Every word-pair distance in the package comes from one packed kernel,
here and in `search`.  With m = ceil(log2 q), symbol a is written as the
a-th smallest codeword of the binary simplex code of width 2^m - 1, so
any two distinct symbols differ in exactly t = 2^(m-1) bits; a word is
its symbols' bits in 64-bit limbs (`_pack_words`: one gather from flat,
limb-sorted symbol tables and one OR-reduction per limb, a bounded block
of words at a time), and popcount(u ^ v) summed over the limbs is
t * dist(u, v) (`_popcounts`).  A `Code` packs its words once; its
distance counts read each unordered pair once, from the half-matrix
blocks of `_half_popcounts`, and antipodality compares every word only
with the size/q words that have symbol 0 in coordinate 0.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely between threads and between
results: every bound report shares one "not applicable" plotkin entry
and one d2 entry.  A lazily cached attribute computed twice is computed
equal.  Every frozen record in the package is a slotted dataclass, with
no instance dict; `Code` alone keeps one, for its cached attributes.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .krawtchouk import kraw_eval

MAX_ALPHABET = 9  # the text file format stores one base-q digit per symbol
BLOCK_PAIRS = 1 << 14  # word pairs compared by one block of `_half_popcounts` or `is_antipodal`
GATHER_ELEMENTS = 1 << 15  # symbol-table pieces gathered by one block of `_pack_words`
_MAX_Q = 1 << 10  # largest q: `_symbol_code`'s 2^m x (2^m - 1) bits stay within 2^20 entries


def _symbol_code(q: int) -> np.ndarray:
    """(q, 2^m - 1) bits of symbols 0..q-1: the q smallest simplex codewords.

    Codeword x of the simplex code, 0 <= x < 2^m, has bit parity(x & j) in
    column j = 1..2^m - 1, so two distinct codewords differ in 2^(m-1)
    columns.  Rows are in increasing order read as bit strings, column 1
    first.
    """
    m = (q - 1).bit_length()
    code = (np.bitwise_count(np.arange(2**m)[:, None] & np.arange(1, 2**m)) & 1).astype(np.uint8)
    return code[np.lexsort(code.T[::-1])[:q]]


def _popcount_unit(q: int) -> int:
    """t = 2^(m-1), the bits in which two distinct symbols' simplex codewords differ."""
    return 1 << ((q - 1).bit_length() - 1)


@lru_cache(maxsize=64)
def _symbol_tables(q: int, n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(limbs, coord, base, flat, starts) for packing length-n words over q symbols.

    Each lookup k says that coordinate coord[k] puts flat[base[k] + a] into
    its limb when its symbol is a; a coordinate that straddles limbs has a
    lookup for each.  Lookups are sorted by limb, and limb j's run from
    starts[j] (no limb is empty: the front padding is under 64 bits).  A
    coordinate's tables depend only on where its bits start within its
    first limb, so one `packbits` call per such offset builds them, over the
    few limbs one coordinate touches, and `flat` holds each offset's once:
    at most 64 offsets' tables, whatever n is.  Built once per (q, n) in a
    process; every array is read-only.
    """
    code = _symbol_code(q)
    w = code.shape[1]
    limbs = -(-n * w // 64)
    at: dict[int, int] = {}  # offset -> where its (limbs touched, q) tables start in flat
    tables, coord, base, limb = [], [], [], []
    for i in range(n):
        first = 64 * limbs - n * w + w * i  # the coordinate's first bit
        offset = first % 64
        touched = -(-(offset + w) // 64)
        if offset not in at:
            bits = np.zeros((q, 64 * touched), dtype=np.uint8)
            bits[:, offset : offset + w] = code
            at[offset] = sum(map(len, tables))
            tables.append(np.packbits(bits, axis=1).view(">u8").T.ravel())
        coord += [i] * touched
        base += range(at[offset], at[offset] + q * touched, q)
        limb += range(first // 64, first // 64 + touched)
    arrays = (
        np.array(coord, dtype=np.intp),
        np.array(base, dtype=np.intp),
        np.concatenate(tables).astype(np.uint64),
        np.flatnonzero(np.diff(limb, prepend=-1)),  # coordinates come in limb order
    )
    for array in arrays:
        array.flags.writeable = False
    return (limbs, *arrays)


def _pack_words(words: np.ndarray, q: int) -> np.ndarray:
    """(limbs, len(words)) uint64 array of the words' symbol-code bits.

    With m = ceil(log2 q), symbol a is written as the a-th smallest
    codeword of the binary simplex code of width 2^m - 1 (see
    `_symbol_code`), so symbol 0 is all zero bits and two distinct symbols
    differ in exactly t = 2^(m-1) bits.  A word is its n symbols' bits,
    coordinate 0 first, split into 64-bit limbs with zero bits padding the
    front; row 0 is the most significant limb, so a word's limbs read as
    one number compare as the word does, lexicographically.  Each piece of
    a coordinate that falls in one limb is one lookup into the flat,
    limb-sorted tables of `_symbol_tables`: a block of words is one gather
    of every lookup's pieces and one `bitwise_or.reduceat` over each limb's
    run of lookups.  A block holds at most GATHER_ELEMENTS pieces (or one
    word), so the temporaries stay bounded for any n and size.
    """
    size, n = words.shape
    limbs, coord, base, flat, starts = _symbol_tables(q, n)
    packed = np.empty((limbs, size), dtype=np.uint64)
    columns = words.T
    step = max(1, GATHER_ELEMENTS // len(coord))
    for start in range(0, size, step):
        pieces = flat.take(columns[coord, start : start + step] + base[:, None])
        np.bitwise_or.reduceat(pieces, starts, axis=0, out=packed[:, start : start + step])
    return packed


def _unpack_words(packed: np.ndarray, q: int, n: int) -> np.ndarray:
    """Inverse of `_pack_words`: the (len, n) symbol array of packed words.

    Column 2^b of simplex codeword x is bit b of x, and the columns before
    it depend only on the bits below b.  So sorted order compares bit 0 of
    x first, then bit 1, and so on: the a-th codeword has x the m-bit
    reversal of a, and its columns 1, 2, 4, ..., 2^(m-1) spell a in binary,
    most significant bit first.  Only those m bits are read per coordinate.
    """
    m = (q - 1).bit_length()
    w = 2**m - 1
    pos = 64 * len(packed) - n * w + w * np.arange(n)[:, None] + 2 ** np.arange(m) - 1
    bits = packed[pos // 64] >> (63 - pos % 64)[..., None].astype(np.uint64) & np.uint64(1)
    digits = bits << np.arange(m - 1, -1, -1, dtype=np.uint64)[:, None]
    return digits.sum(axis=1).T.astype(np.min_scalar_type(q - 1))


def _popcounts(limbs, word) -> np.ndarray:
    """popcount(row ^ word) summed over the limbs: t times each Hamming distance.

    `limbs` holds packed rows, one limb per entry, most significant first,
    and `word` a packed word's limbs; either may broadcast against the
    other.  Popcount adds over any split of the bits, so a coordinate may
    straddle two limbs.
    """
    count = np.bitwise_count(limbs[0] ^ word[0])
    if len(limbs) > 1:  # summed in place, in a dtype wide enough for 64 per limb
        count = count.astype(np.min_scalar_type(64 * len(limbs)), copy=False)
        for limb, x in zip(limbs[1:], word[1:]):
            count += np.bitwise_count(limb ^ x)
    return count


def _half_popcounts(packed: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, P) with P[i, j] = `_popcounts` of words start + i and start + j.

    `packed` is a (limbs, size) array from `_pack_words`.  Each block
    takes whole rows from `start` and compares them with the words from
    `start` onward, so every unordered pair of distinct words lies in
    exactly one block: in its first len(P) columns, once in each order,
    when both words are among the block's rows, and once after those
    columns otherwise.  A block holds about BLOCK_PAIRS pairs, or a single
    row when the rest alone is longer.
    """
    size = packed.shape[1]
    start = 0
    while start < size:
        stop = min(size, start + max(1, BLOCK_PAIRS // (size - start)))
        yield start, _popcounts(packed[:, start:stop, None], packed[:, None, start:])
        start = stop


class CodeFormatError(ValueError):
    """Raised for malformed code files."""


def _checked_words(q: int, n: int, words) -> np.ndarray:
    """The words as a (size, n) array of the smallest dtype that holds q - 1.

    Words that numpy reads as a non-empty 2-D integer array of width n, all
    symbols in 0..q-1 and no row repeated (found through each row's bytes),
    pass in one test; other input goes to `_scanned`, which names the first bad word.
    """
    dtype = np.min_scalar_type(q - 1)
    try:
        arr = np.asarray(words)
    except ValueError:  # words of different lengths, which numpy cannot stack
        arr = np.empty(0)
    integer = arr.ndim == 2 and len(arr) > 0 and arr.shape[1] == n and arr.dtype.kind in "iub"
    if integer and not ((arr < 0) | (arr >= q)).any():
        array = arr.astype(dtype, order="C")
        keys = array.view(np.dtype((np.void, array.itemsize * n))).ravel().tolist()
        if len(set(keys)) == len(keys):
            return array
    return np.array(_scanned(q, n, words), dtype=dtype)


def _scanned(q: int, n: int, words) -> list[tuple]:
    """The words as tuples; ValueError names the first bad one.

    The words must be a sequence or an array of at least one dimension (a
    set has no word order and is refused).  Each word is checked for its
    length, then for integer symbols (1.0 is not one), then for symbols in
    0..q-1, then for repeating an earlier word; no words at all is refused
    last.  A numpy row is named as the tuple of its entries.
    """
    if not isinstance(words, (Sequence, np.ndarray)) or getattr(words, "ndim", 1) == 0:
        what = "a 0-d array" if isinstance(words, np.ndarray) else type(words).__name__
        raise ValueError(f"words must be a sequence or an array, not {what}")
    rows: dict[tuple, None] = {}  # the words so far, in order
    for w in words:
        if isinstance(w, np.ndarray):
            w = tuple(w.tolist()) if w.ndim else w.item()
        if not hasattr(w, "__len__") or len(w) != n:
            raise ValueError(f"word {w} does not have length {n}")
        if not all(isinstance(s, (int, np.integer, np.bool_)) for s in w):
            raise ValueError(f"word {w} has non-integer symbols")
        if not all(0 <= s < q for s in w):
            raise ValueError(f"word {w} has symbols outside 0..{q - 1}")
        row = tuple(w)
        if row in rows:
            raise ValueError(f"duplicate word {w}")
        rows[row] = None
    if not rows:
        raise ValueError("a code needs at least one word")
    return list(rows)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Code:
    """A set of distinct words of fixed length over {0,...,q-1}.

    `words` may be a sequence of words or a 2-D integer array, and q is
    at most 1024 (the distance kernel's symbol bits).  A ValueError
    names the first bad word, each word checked for its length, then
    integer symbols, then symbols in 0..q-1, then repeating an earlier
    word.  The code keeps only q, n and `array`: the words,
    validated once, as one read-only (size, n) numpy array of the
    smallest dtype that holds q - 1, which every numpy consumer reads.
    `words` gives them back as a tuple of tuples of ints, built on first
    read; equality, hashing and repr read (q, n, array) and mean what they
    meant for (q, n, words).  Unlike the package's other records it is not
    slotted: its `cached_property` attributes live in the instance dict.
    """

    q: int
    n: int
    array: np.ndarray

    def __init__(self, q: int, n: int, words):
        if q < 2:
            raise ValueError("alphabet size must be at least 2")
        if q > _MAX_Q:
            raise ValueError(f"alphabet size {q} is above the supported maximum {_MAX_Q}")
        if n < 1:
            raise ValueError("length must be at least 1")
        array = _checked_words(q, n, words)
        array.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "array", array)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.q == other.q and self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.q, self.n, self.array.tobytes()))

    def __repr__(self):
        return f"Code(q={self.q!r}, n={self.n!r}, words={self.words!r})"

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The words as a tuple of tuples of ints, built from `array` on first read."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def size(self) -> int:
        return len(self.array)

    @cached_property
    def packed(self) -> np.ndarray:
        """The words packed by `_pack_words`, read-only."""
        packed = _pack_words(self.array, self.q)
        packed.flags.writeable = False
        return packed

    @cached_property
    def distance_counts(self) -> tuple[int, ...]:
        """cnt[j] = number of ordered word pairs (x, y) at distance j, x = y included.

        Each unordered pair is counted once, in `_half_popcounts`: a
        block's square part holds both orders of its pairs (and its words
        against themselves), and the columns after it are doubled.  A pair
        at distance j has popcount t * j.  A code of at most 128 words is
        one square block, one histogram.
        """
        t = _popcount_unit(self.q)
        cnt = np.zeros(t * self.n + 1, dtype=np.int64)
        for _, pops in _half_popcounts(self.packed):
            rows = len(pops)
            cnt += np.bincount(pops[:, :rows].ravel(), minlength=len(cnt))
            if pops.shape[1] > rows:
                cnt += 2 * np.bincount(pops[:, rows:].ravel(), minlength=len(cnt))
        return tuple(cnt[::t].tolist())


@dataclass(frozen=True, slots=True)
class TwoDistParams:
    """Query key (q, n, d, delta) for codes with distances d and d+delta."""

    q: int
    n: int
    d: int
    delta: int

    def __post_init__(self):
        if self.q < 2 or self.n < 1 or self.d < 1 or self.delta < 1:
            raise ValueError("q>=2, n>=1, d>=1, delta>=1 required")
        if self.d + self.delta > self.n:
            raise ValueError("d + delta must not exceed n")

    @property
    def d2(self) -> int:
        """The larger of the two distances."""
        return self.d + self.delta


@dataclass(frozen=True, slots=True)
class DistanceDistribution:
    """Counts A_j = (#ordered pairs at distance j) / |C| for j = 0..n."""

    n: int
    counts: tuple[Fraction, ...]

    def a(self, j: int) -> Fraction:
        return self.counts[j]

    def support(self) -> tuple[int, ...]:
        """Distances j >= 1 with A_j > 0."""
        return tuple(j for j in range(1, self.n + 1) if self.counts[j] > 0)


@dataclass(frozen=True, slots=True)
class BoundStatus:
    """Outcome of a bound query: exact value, range, or a degenerate case."""

    kind: str  # "exact" | "range" | "not_well_defined"
    lo: int | None = None
    hi: int | None = None
    methods: tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("exact", "range", "not_well_defined"):
            raise ValueError(f"bad status kind {self.kind!r}")
        if self.kind == "range" and (self.lo is None or self.hi is None or self.lo > self.hi):
            raise ValueError("range needs lo <= hi")
        if self.kind == "exact" and (self.lo is None or self.lo != self.hi):
            raise ValueError("exact needs lo == hi")

    @staticmethod
    def exact(v: int, note="") -> "BoundStatus":
        return BoundStatus("exact", v, v, note=note)

    @staticmethod
    def range_(lo: int, hi: int, methods=(), note="") -> "BoundStatus":
        return BoundStatus("range", lo, hi, tuple(methods), note)

    @staticmethod
    def not_well_defined(note="") -> "BoundStatus":
        return BoundStatus("not_well_defined", note=note)


@dataclass(frozen=True, slots=True)
class TwoDistReport:
    """Result of checking a code against a (d, d+delta) distance pair."""

    ok: bool
    equidistant: bool
    observed: tuple[int, ...]


def distance_distribution(code: Code) -> DistanceDistribution:
    """Distance distribution A_j; A_0 = 1 and sum(A_j) = |C|."""
    cnt = code.distance_counts
    return DistanceDistribution(code.n, tuple(Fraction(c, code.size) for c in cnt))


def verify_two_distance(code: Code, params: TwoDistParams) -> TwoDistReport:
    """Check that the code's nonzero distances are exactly {d, d+delta}.

    A code realizing only one of the two distances is reported as
    equidistant (ok = False) rather than rejected silently.
    """
    if code.q != params.q or code.n != params.n:
        raise ValueError(
            f"code is over q={code.q}, n={code.n}; params ask for q={params.q}, n={params.n}"
        )
    cnt = code.distance_counts
    observed = tuple(j for j in range(1, code.n + 1) if cnt[j])
    wanted = {params.d, params.d2}
    ok = set(observed) == wanted
    equidistant = len(observed) == 1 and set(observed) <= wanted
    return TwoDistReport(ok=ok, equidistant=equidistant, observed=observed)


def strength(code: Code) -> int:
    """Largest t such that every t-column projection hits every tuple equally often.

    Read off the dual distribution: by Delsarte's theorem a code is an
    orthogonal array of strength t if and only if its moments 1..t all
    vanish.  Returns 0 when even the first moment is nonzero.
    """
    t = 0
    while t < code.n and moments(code, t + 1) == 0:
        t += 1
    return t


def moments(code: Code, i: int) -> Fraction:
    """i-th Krawtchouk moment: sum over ordered pairs of K_i(d(x,y)) / r_i.

    Always an exact rational, equal to |C|^2 B_i / r_i for the dual
    distribution B_i = (1/|C|) sum_j A_j K_i(j).  Nonnegative for every
    code (positive semidefiniteness of the kernel).  By Delsarte's theorem
    the code is an orthogonal array of strength t if and only if the
    moments 1..t are all zero.  The sum runs over the distances that
    occur, so a two-distance code costs three Krawtchouk values.
    """
    if i < 0 or i > code.n:
        raise ValueError(f"moment index {i} outside 0..{code.n}")
    total = sum(
        c * kraw_eval(code.n, code.q, i, j) for j, c in enumerate(code.distance_counts) if c
    )
    r_i = (code.q - 1) ** i * math.comb(code.n, i)
    return Fraction(total, r_i)


def is_antipodal(code: Code) -> bool:
    """True iff the words split into groups of q words pairwise at distance n.

    Each word must have exactly q - 1 words at distance n, so the cached
    pair counts must hold size * (q - 1) far pairs (pairs at distance n);
    most codes fail there without a second distance pass.  Then only the
    size/q "leaders", the words with symbol 0 in coordinate 0, are
    compared with every word, in blocks of about BLOCK_PAIRS pairs:
    size^2/q pairs, against size^2/2 for all of them.

    q words pairwise far take every symbol once in each coordinate, so
    each group has exactly one leader.  Each leader starts a group, each
    other word joins the group of the first leader it is far from, and
    the groups must take every symbol once in each coordinate: a count
    over (group, coordinate, symbol) that hits all size * n cells.  In an
    antipodal code every other word is far from its own group's leader
    alone, so this finds the groups and the test passes.  Conversely,
    when it passes, the groups are size/q sets of q pairwise far words,
    holding size * (q - 1) far pairs, which the count test says are all
    of them.
    """
    q, n, size = code.q, code.n, code.size
    if size % q or code.distance_counts[n] != size * (q - 1):
        return False
    leaders = np.flatnonzero(code.array[:, 0] == 0)
    if len(leaders) * q != size:
        return False
    far = _popcount_unit(q) * n
    packed = code.packed
    group = np.empty(size, dtype=np.intp)
    step = max(1, BLOCK_PAIRS // len(leaders))
    for start in range(0, size, step):
        hits = _popcounts(packed[:, start : start + step, None], packed[:, None, leaders]) == far
        group[start : start + step] = hits.argmax(axis=1)
    group[leaders] = np.arange(len(leaders))
    cells = (group[:, None] * n + np.arange(n)) * q + code.array
    return np.count_nonzero(np.bincount(cells.ravel())) == size * n


# ---------------------------------------------------------------------------
# text file format: first line "q=<int> n=<int>", then one base-q digit
# string per line; '#' starts a comment

_HEADER = re.compile(r"q=([0-9]+)\s+n=([0-9]+)")  # both readers' header; int() also reads "+2"


def write_digits(header: str, q: int, rows: np.ndarray) -> str:
    """The `header` line, then each row of symbols in 0..q-1 as one line of digits."""
    if q > MAX_ALPHABET:
        raise CodeFormatError(f"file format supports q <= {MAX_ALPHABET}")
    block = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=np.uint8)
    block[:, :-1] = rows + ord("0")
    block[:, -1] = ord("\n")
    return header + "\n" + block.tobytes().decode("ascii")


def write_code(code: Code) -> str:
    return write_digits(f"q={code.q} n={code.n}", code.q, code.array)


def read_code(text: str) -> Code:
    """Parse the text file format; the header and the words take ASCII digits only.

    Text exactly as `write_code` writes it (ASCII, no '#', the header
    "q=<digits> n=<digits>", then whole lines of n digits below q, each
    ending in "\\n") is decoded in one step: one `frombuffer` of the body,
    one reshape to a row per line and one range test (`_read_canonical`).
    Any other text (comments, blank lines, CRLF endings, trailing spaces)
    goes to the line scanner `_read_lines`, whose errors name the first
    bad line.
    """
    q, n, symbols = _read_canonical(text) or _read_lines(text)
    try:
        return Code(q, n, symbols)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from exc


def _read_canonical(text: str) -> tuple[int, int, np.ndarray] | None:
    """(q, n, symbols) when the text is exactly what `write_code` writes, else None.

    The header must match `_HEADER` and be printable (so the scanner reads
    it as one line too), q be in 2..MAX_ALPHABET, n at least 1, and every
    line of the body n digits below q and "\\n", so no line holds '#', a
    space or nothing: the line scanner reads such text to the same words.
    """
    head, _, body = text.partition("\n")
    header = _HEADER.fullmatch(head)
    if not (header and head.isprintable() and body and body.isascii()):
        return None
    q, n = int(header[1]), int(header[2])
    if not (2 <= q <= MAX_ALPHABET and n >= 1 and len(body) % (n + 1) == 0):
        return None
    rows = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(-1, n + 1)
    symbols = rows[:, :n] - np.uint8(ord("0"))  # a byte below '0' wraps past q
    if (symbols < q).all() and (rows[:, n] == ord("\n")).all():
        return q, n, symbols
    return None


def _read_lines(text: str) -> tuple[int, int, np.ndarray]:
    """(q, n, symbols) of any text, read line by line; comments and blank lines are skipped.

    Each word line is checked as it is read, for its length, then ASCII
    digits, then digits below q, so an error names the first bad line;
    the accepted lines are decoded with one `frombuffer`.
    """
    lines: list[str] = []
    q = n = 0  # n >= 1 once the header is read
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not n:
            if not (header := _HEADER.fullmatch(line)):
                raise CodeFormatError(f"line {lineno}: bad header {line!r}")
            q, n = int(header[1]), int(header[2])
            if q < 2 or q > MAX_ALPHABET:
                raise CodeFormatError(f"line {lineno}: q must be in 2..{MAX_ALPHABET}")
            if n < 1:
                raise CodeFormatError(f"line {lineno}: n must be positive")
            continue
        if len(line) != n:
            raise CodeFormatError(f"line {lineno}: expected {n} digits, got {len(line)}")
        if not (line.isascii() and line.isdigit()):
            raise CodeFormatError(f"line {lineno}: non-digit symbol in {line!r}")
        if line.strip("0123456789"[:q]):  # what is left is a digit q or above
            raise CodeFormatError(f"line {lineno}: symbol out of range for q={q}")
        lines.append(line)
    if not n:
        raise CodeFormatError("missing header line 'q=<int> n=<int>'")
    if not lines:
        raise CodeFormatError("no codewords in file")
    symbols = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8).reshape(-1, n)
    return q, n, symbols - np.uint8(ord("0"))
