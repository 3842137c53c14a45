"""Codes over small alphabets and their distance statistics.

Everything here is exact: pair-distance counts are integers, and distance
distributions and moments are `fractions.Fraction`s, never floats.  A
`Code` validates its words once, in numpy, into one read-only word array,
and every consumer reads that array: every word-pair distance in this
module comes from one blocked numpy kernel, `distance_blocks`, and the
text file format is written with one `tobytes()` and read with one
`np.frombuffer`.  All types are immutable after construction and all
operations are pure functions, so values can be shared freely between
threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .krawtchouk import kraw_eval

MAX_ALPHABET = 9  # the text file format stores one base-q digit per symbol
BLOCK_DISTANCES = 1 << 16  # distances held by one block of `distance_blocks`


def distance_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, D) with D[i, j] = Hamming distance of a[start + i] and b[j].

    `a` and `b` are 2-D symbol arrays with equal row length n.  Each block
    covers whole rows of `a` and holds at most BLOCK_DISTANCES distances,
    or a single row when `b` alone is longer.  Distances accumulate one
    coordinate at a time in the smallest unsigned dtype that holds n.
    """
    n = a.shape[1]
    rows = max(1, BLOCK_DISTANCES // max(1, len(b)))
    a_cols, b_cols = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    dtype = np.min_scalar_type(n)
    for start in range(0, len(a), rows):
        stop = min(len(a), start + rows)
        dist = np.zeros((stop - start, len(b)), dtype=dtype)
        for k in range(n):
            dist += a_cols[k, start:stop, None] != b_cols[k]
        yield start, dist


class CodeFormatError(ValueError):
    """Raised for malformed code files."""


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of a 1-D mask, or its length when there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _is_symbol(s, q: int) -> bool:
    return isinstance(s, (int, np.integer)) and 0 <= s < q


def _checked_words(q: int, n: int, words) -> np.ndarray:
    """The words as a (size, n) array of the smallest dtype that holds q - 1.

    `words` is a sequence of words or a 2-D array; a 2-D array of a
    non-integer dtype is read as the sequence of its rows.  Raises
    ValueError naming the first word that has the wrong length, has a
    non-integer symbol (1.0 included), has a symbol outside 0..q-1, or
    repeats an earlier word; a word-by-word scan would stop at the same
    word with the same message.  Repeats are found through each row's
    bytes.
    """
    if isinstance(words, np.ndarray) and words.ndim == 2 and words.dtype.kind not in "iub":
        words = list(map(tuple, words.tolist()))
    if isinstance(words, np.ndarray):
        stop = len(words) if words.shape[1:] == (n,) else 0
        arr = words[:stop].reshape(stop, n)
    else:
        stop = _first(np.fromiter(map(len, words), dtype=np.intp, count=len(words)) != n)
        arr = np.array(words[:stop]).reshape(stop, n)
        if arr.dtype.kind not in "iub":  # a non-integer symbol, or one beyond 64 bits
            rows = next(
                (i for i, w in enumerate(words[:stop]) if not all(_is_symbol(s, q) for s in w)),
                stop,
            )
            arr = np.array(words[:rows], dtype=np.int64).reshape(rows, n)
    in_range = _first(((arr < 0) | (arr >= q)).any(axis=1))
    array = arr[:in_range].astype(np.min_scalar_type(q - 1), order="C")
    keys = array.view(np.dtype((np.void, array.itemsize * n))).ravel().tolist()
    # the first repeat, else the first word out of range, else the first of wrong length
    bad = len(keys)
    if len(set(keys)) < len(keys):
        seen: set[bytes] = set()
        bad = next(i for i, key in enumerate(keys) if key in seen or seen.add(key))
    if bad == len(words):
        return array
    w = words[bad]
    w = tuple(w.tolist()) if isinstance(w, np.ndarray) else w
    if bad < in_range:
        raise ValueError(f"duplicate word {w}")
    if bad < stop and not all(isinstance(s, (int, np.integer)) for s in w):
        raise ValueError(f"word {w} has non-integer symbols")
    if bad < stop:
        raise ValueError(f"word {w} has symbols outside 0..{q - 1}")
    raise ValueError(f"word {w} does not have length {n}")


@dataclass(frozen=True)
class Code:
    """A set of distinct words of fixed length over {0,...,q-1}.

    `words` may also be given as a 2-D integer array; it is stored as a
    tuple of tuples either way, and equality, hashing and repr read only
    (q, n, words).  `array` holds the same words, validated once, as one
    read-only (size, n) numpy array of the smallest dtype that holds
    q - 1; every numpy consumer reads it.
    """

    q: int
    n: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.n < 1:
            raise ValueError("length must be at least 1")
        if not len(self.words):
            raise ValueError("a code needs at least one word")
        array = _checked_words(self.q, self.n, self.words)
        if isinstance(self.words, np.ndarray):
            object.__setattr__(self, "words", tuple(map(tuple, array.tolist())))
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def distance_counts(self) -> tuple[int, ...]:
        """cnt[j] = number of ordered word pairs (x, y) at distance j, x = y included."""
        cnt = np.zeros(self.n + 1, dtype=np.int64)
        for _, dist in distance_blocks(self.array, self.array):
            cnt += np.bincount(dist.ravel(), minlength=self.n + 1)
        return tuple(int(c) for c in cnt)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DistanceDistribution:
    """Counts A_j = (#ordered pairs at distance j) / |C| for j = 0..n."""

    n: int
    counts: tuple[Fraction, ...]

    def a(self, j: int) -> Fraction:
        return self.counts[j]

    def support(self) -> tuple[int, ...]:
        """Distances j >= 1 with A_j > 0."""
        return tuple(j for j in range(1, self.n + 1) if self.counts[j] > 0)


@dataclass(frozen=True)
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
    def exact(v: int, methods=(), note="") -> "BoundStatus":
        return BoundStatus("exact", v, v, tuple(methods), note)

    @staticmethod
    def range_(lo: int, hi: int, methods=(), note="") -> "BoundStatus":
        return BoundStatus("range", lo, hi, tuple(methods), note)

    @staticmethod
    def not_well_defined(note="") -> "BoundStatus":
        return BoundStatus("not_well_defined", note=note)


@dataclass(frozen=True)
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
    observed = distance_distribution(code).support()
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
    pair counts must hold size * (q - 1) pairs at distance n; most codes
    fail there without a second distance pass.  Then the groups exist iff
    every word and its far words share the smallest index among them: on a
    connected set of far pairs that index is one word m, and all the set
    lies in m's group of q words.
    """
    if code.size % code.q or code.distance_counts[code.n] != code.size * (code.q - 1):
        return False
    far = []
    for _, dist in distance_blocks(code.array, code.array):
        is_far = dist == code.n
        if (is_far.sum(axis=1) != code.q - 1).any():
            return False
        far.append(np.nonzero(is_far)[1].reshape(len(dist), code.q - 1))
    far = np.concatenate(far)
    lowest = np.minimum(np.arange(code.size), far.min(axis=1))
    return bool((lowest[far] == lowest[:, None]).all())


# ---------------------------------------------------------------------------
# text file format: first line "q=<int> n=<int>", then one base-q digit
# string per line; '#' starts a comment


def write_code(code: Code) -> str:
    if code.q > MAX_ALPHABET:
        raise CodeFormatError(f"file format supports q <= {MAX_ALPHABET}")
    block = np.empty((code.size, code.n + 1), dtype=np.uint8)
    block[:, :-1] = code.array + ord("0")
    block[:, -1] = ord("\n")
    return f"q={code.q} n={code.n}\n" + block.tobytes().decode("ascii")


def read_code(text: str) -> Code:
    """Parse the text file format; the header and the words take ASCII digits only.

    Errors name the first bad line, as a line-by-line parse would.
    """
    header = None
    lines: list[str] = []
    linenos: list[int] = []
    wrong_length = None
    q = n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            try:
                kv = dict(p.split("=", 1) for p in parts)
                if not (kv["q"].isascii() and kv["n"].isascii()):
                    raise ValueError("q and n must be ASCII digits")
                q, n = int(kv["q"]), int(kv["n"])
            except (ValueError, KeyError) as exc:
                raise CodeFormatError(f"line {lineno}: bad header {line!r}") from exc
            if q < 2 or q > MAX_ALPHABET:
                raise CodeFormatError(f"line {lineno}: q must be in 2..{MAX_ALPHABET}")
            if n < 1:
                raise CodeFormatError(f"line {lineno}: n must be positive")
            header = (q, n)
            continue
        if len(line) != n:
            wrong_length = f"line {lineno}: expected {n} digits, got {len(line)}"
            break
        lines.append(line)
        linenos.append(lineno)
    if header is None:
        raise CodeFormatError("missing header line 'q=<int> n=<int>'")
    # one code point per symbol; anything below '0' wraps to a large value
    symbols = np.frombuffer("".join(lines).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    symbols = symbols.reshape(len(lines), n) - ord("0")
    bad = (symbols >= q).any(axis=1)
    if bad.any():
        row = int(bad.argmax())
        if (symbols[row] > 9).any():
            raise CodeFormatError(f"line {linenos[row]}: non-digit symbol in {lines[row]!r}")
        raise CodeFormatError(f"line {linenos[row]}: symbol out of range for q={q}")
    if wrong_length is not None:
        raise CodeFormatError(wrong_length)
    if not lines:
        raise CodeFormatError("no codewords in file")
    try:
        return Code(q, n, symbols)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from exc
