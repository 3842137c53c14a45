"""Explicit code constructions: seeds, difference matrices, two-weight families.

Each constructor returns either a `Code` (nonlinear families) or a
`GeneratorMatrix` (linear families).  Each family rests on the identity
its docstring states; nothing is re-checked by enumeration at run time,
and the test suite enumerates every family's parameters.  The small
nonlinear families are built as whole arrays.  The catalog functions at
the bottom answer "what is the largest construction matching these
parameters" by arithmetic alone and are used for table lower bounds; the
su2 and equidistant entries follow from their formulas without a search
(delta = q^(m-1) fixes m for su2).  A bad `GeneratorMatrix` raises a
ValueError that names its first fault.

A linear code's columns, up to scalars, are a multiset of points of
PG(k-1, q), held as one vector m of multiplicities over
`projective_points(q, k)`: each point once, first nonzero entry 1, in
lexicographic order.  Columns are written in that point order.  The
point table is built once per (q, k) in a process and is read-only, so
every builder of one geometry reads the same array.  A span adds each
generator row's multiples to the words so far with `Field.plus`: by XOR
in characteristic 2, by the sum mod q for prime q, and through the `add`
table for the other prime powers.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Code, TwoDistParams
from .fields import GF, MAX_ORDER, p_adic_valuation, prime_power

# largest space q^k that projective_points enumerates and the catalog considers
_MAX_SPACE = 1 << 20


@dataclass(frozen=True, eq=False, slots=True)
class GeneratorMatrix:
    """k x n matrix over GF(q); the code is the row space.

    `rows` is kept as one read-only array in the smallest dtype holding q - 1.
    A non-empty 2-D integer array with entries in 0..q-1 passes in one
    numpy test; any other input goes to `_scanned_rows`, which takes every
    matrix whose rows `Code` takes as words and raises the ValueError that
    names the first fault of any other.
    """

    q: int
    rows: np.ndarray

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise ValueError(f"q={self.q} is not a prime power")
        try:
            rows = np.asarray(self.rows)
        except ValueError:  # rows of different lengths, which numpy cannot stack
            rows = np.empty(0)
        dtype = np.min_scalar_type(self.q - 1)
        if (rows.ndim == 2 and rows.size and rows.dtype.kind in "iub"
                and rows.min() >= 0 and rows.max() < self.q):
            rows = rows.astype(dtype, order="C")
        else:
            rows = np.array(_scanned_rows(self.q, self.rows), dtype=dtype)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def rank(self) -> int:
        """Elimination on whole rows: zero rows are dropped and row 0 is the next pivot."""
        field = GF(self.q)
        mat, rank = self.rows, 0
        while len(mat := mat[mat.any(axis=1)]):  # a copy, so rows can be written
            col = (mat[0] != 0).argmax()
            # each other row with an entry at col minus (that entry / the pivot's) times row 0
            hit = np.flatnonzero(mat[1:, col]) + 1
            factor = field.neg[field.mul[field.inv[mat[0, col]], mat[hit, col]]]
            mat[hit] = field.add[mat[hit], field.mul[factor[:, None], mat[0]]]
            mat, rank = mat[1:], rank + 1
        return rank

    def span(self) -> Code:
        """The full code; word i has the base-q digits of i, low first, as row coefficients.

        Raises when the matrix is rank deficient.
        """
        try:
            return Code(self.q, self.n, _span(self))
        except ValueError as exc:  # span words have length n and symbols < q: a repeat
            raise ValueError("generator matrix is rank deficient; span has repeats") from exc

    def weight_distribution(self) -> dict[int, int]:
        """Weight -> count over all nonzero messages (works when rank < k too)."""
        return dict(Counter(np.count_nonzero(_span(self)[1:], axis=1).tolist()))


def _scanned_rows(q: int, rows) -> list[list]:
    """The rows as lists, when the numpy test cannot read them; ValueError names the first fault.

    The matrix and its rows are read as lists where they are numpy arrays.
    It is checked for being a sequence of rows (not a scalar, a set or flat
    entries) or empty, then ragged, then for integer entries (numpy or
    Python integers, as `Code` takes them), then for entries in 0..q-1.
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    if not isinstance(rows, Sequence):
        raise ValueError("generator matrix must be 2-D")
    rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
    first = rows[0] if rows else ()
    if not hasattr(first, "__len__"):
        raise ValueError("generator matrix must be 2-D")
    if not len(first):
        raise ValueError("empty generator matrix")
    if any(not hasattr(r, "__len__") or len(r) != len(first) for r in rows):
        raise ValueError("ragged generator matrix")
    entries = [x for r in rows for x in r]
    if not all(isinstance(x, (int, np.integer, np.bool_)) for x in entries):
        raise ValueError("entries must be integers")
    if not all(0 <= x < q for x in entries):
        raise ValueError("entries must lie in 0..q-1")
    return rows


def _span(g: GeneratorMatrix) -> np.ndarray:
    """All q^k codewords as a (q^k, n) array, rank deficient or not.

    Row i is the word whose message takes the base-q digits of i, low
    first, as the coefficients of the generator rows.  The rows are built
    one generator row at a time: every multiple c * row, read from the
    `mul` table, is added to every word so far by one `Field.plus`, with c
    as the next, more significant message digit.
    """
    field = GF(g.q)
    words = np.zeros((1, g.n), dtype=g.rows.dtype)
    for row in g.rows:
        multiples = field.mul[:, row]
        words = field.plus(multiples[:, None, :], words[None, :, :]).reshape(-1, g.n)
    return words


@lru_cache(maxsize=64)
def projective_points(q: int, k: int) -> np.ndarray:
    """The points of PG(k-1, q), first nonzero entry 1, as lexicographic rows.

    The array has the smallest dtype that holds q-1.  It is a table of the
    geometry, built once per (q, k) in a process and read-only.  Refuses
    q^k > 2^20 up front rather than enumerate that many vectors.
    """
    if q**k > _MAX_SPACE:
        raise ValueError(f"q^k = {q}^{k} exceeds the enumeration limit 2^20")
    # all q^k vectors: row i holds the base-q digits of i, most significant first
    vectors = np.indices((q,) * k, dtype=np.min_scalar_type(q - 1)).reshape(k, -1).T
    lead = vectors[np.arange(q**k), (vectors != 0).argmax(axis=1)]
    points = vectors[lead == 1]
    points.flags.writeable = False
    return points


def point_multiplicities(g: GeneratorMatrix) -> np.ndarray:
    """m[i] is the number of g's columns on point i of projective_points(g.q, g.k)."""
    field = GF(g.q)
    cols = g.rows.T
    nonzero = cols != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("zero column cannot be normalized")
    # each column scaled so its first nonzero entry is 1
    lead = cols[np.arange(g.n), nonzero.argmax(axis=1)]
    cols = field.mul[field.inv[lead][:, None], cols]
    points = projective_points(g.q, g.k)
    # base-q values, most significant entry first, sort as the rows do
    place = g.q ** np.arange(g.k - 1, -1, -1)
    return np.bincount(np.searchsorted(points @ place, cols @ place), minlength=len(points))


def from_multiplicities(q: int, points: np.ndarray, m: np.ndarray | int) -> GeneratorMatrix:
    """The generator whose columns are points[i], m[i] (or m) times each, in point order."""
    return GeneratorMatrix(q, np.repeat(points, m, axis=0).T)


# ---------------------------------------------------------------------------
# difference matrices and their codes


def difference_matrix(p: int, ell: int, h: int) -> np.ndarray:
    """D(p^ell, p^h): rows/columns indexed by GF(p^(ell+h)), entry phi(x*y).

    The matrix is returned as one read-only intp array.  phi(z) = z mod
    p^ell keeps the low ell base-p digits of z.  Field addition is
    digit-wise mod p, so phi is an additive map onto the additive group
    of GF(p^ell) (the elementary abelian group of order p^ell, same digit
    encoding), and each value has exactly p^h preimages, one per choice
    of the high h digits.  For rows x != x',
        D[x][y] - D[x'][y] = phi(x*y) - phi(x'*y) = phi((x - x')*y),
    and as y runs over the field, (x - x')*y runs over every element once
    because row x - x' != 0 of the multiplication table is a permutation.
    So each difference of two distinct rows takes every value of
    GF(p^ell) exactly p^h times.  That premise, every nonzero row of
    `mul` a permutation, is what is checked here: N^2 table entries for
    N = p^(ell+h), where checking the definition reads N^3/2.
    """
    if prime_power(p) != (p, 1):
        raise ValueError(f"p={p} must be prime")
    if ell < 1 or h < 0:
        raise ValueError("need ell >= 1 and h >= 0")
    field = GF(p ** (ell + h))
    if not (np.sort(field.mul[1:], axis=1) == np.arange(field.q)).all():
        raise AssertionError("a nonzero row of the multiplication table is not a permutation")
    entries = field.mul.astype(np.intp) % p**ell
    entries.flags.writeable = False
    return entries


def dm_code(p: int, ell: int, h: int) -> Code:
    """Two-distance code from a difference matrix: all rows plus constants.

    The words row + c*(1,...,1), added in GF(p^ell) (whose additive group
    is the matrix's alphabet), form an (q*mu, q^2*mu, {(q-1)*mu, q*mu})
    antipodal code: distinct rows differ in all but exactly mu places
    regardless of the added constants, and same-row translates differ
    everywhere.
    """
    entries, q = difference_matrix(p, ell, h), p**ell
    # word (row, c) is add[row, c]; rows vary slowest, as in the loop over rows then c
    words = GF(q).add[entries[:, None, :], np.arange(q)[None, :, None]]
    return Code(q, len(entries), words.reshape(-1, len(entries)))


# ---------------------------------------------------------------------------
# linear seeds and the main two-weight families


def seed_code(kind: str, q: int, param: int) -> GeneratorMatrix:
    """Seed generators: `simplex` (equidistant) or `mds2` (two weights).

    simplex(q, m): one column per projective point of PG(m-1, q); every
    nonzero word has weight q^(m-1).  mds2(q, r): the first r canonical
    points of PG(1, q) as columns, weights {r-1, r} (equidistant when
    r = q+1).
    """
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    if kind == "simplex":
        m = param
        if m < 1:
            raise ValueError("simplex needs m >= 1")
        return from_multiplicities(q, projective_points(q, m), 1)
    if kind == "mds2":
        r = param
        if not (2 <= r <= q + 1):
            raise ValueError("mds2 needs 2 <= r <= q+1")
        return from_multiplicities(q, projective_points(q, 2)[:r], 1)
    raise ValueError(f"unknown seed kind {kind!r}")


def su1_code(q: int, m: int, r: int, s: int, h: int, mode: str = "remove") -> GeneratorMatrix:
    """Two-weight codes from s copies of PG(m-1,q) minus/plus h sub-geometries.

    The embedded PG(r-1, q) consists of the points supported on the first
    r coordinates.  Removal (h <= s) gives
        n = (s(q^m-1) - h(q^r-1))/(q-1),  d = s q^(m-1) - h q^(r-1),
    union (h coprime to q) gives
        n = (s(q^m-1) + h(q^r-1))/(q-1),  d = s q^(m-1),
    with delta = h q^(r-1) in both cases.
    """
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"q={q} is not a prime power")
    if not (2 <= r <= m - 1):
        raise ValueError("need 2 <= r <= m-1")
    if s < 1 or h < 1:
        raise ValueError("need s >= 1 and h >= 1")
    points = projective_points(q, m)
    in_sub = ~points[:, r:].any(axis=1)
    if mode == "remove":
        if h > s:
            raise ValueError("removal mode needs h <= s")
        return from_multiplicities(q, points, s - h * in_sub)
    if mode == "union":
        if h % pm[0] == 0:
            raise ValueError("union mode needs h coprime to q")
        return from_multiplicities(q, points, s + h * in_sub)
    raise ValueError(f"unknown mode {mode!r}")


def su2_code(p: int, m: int, r: int) -> GeneratorMatrix:
    """Concatenation of an [r,2] MDS code over GF(p^m) with the p-ary simplex.

    Gives p-ary two-weight codes with
        n = r (p^m-1)/(p-1), k = 2m, d = (r-1) p^(m-1), delta = p^(m-1).
    """
    if prime_power(p) != (p, 1):
        raise ValueError(f"p={p} must be prime")
    q = p**m
    if q < 4:
        raise ValueError("needs p^m >= 4")
    if not (2 <= r <= q + 1):
        raise ValueError("needs 2 <= r <= q+1")
    outer = seed_code("mds2", q, r)
    # row a of the simplex span is the inner word for the symbol a: both
    # read the base-p digits of a, low first, as coefficients
    inner_words = _span(seed_code("simplex", p, m))
    # x^t for t < m, x the element with digit vector (0, 1, 0, ...), is the
    # element with digit vector e_t, the integer p^t: an F_p-basis multiplier
    # set for GF(p^m).  Row (i, t) replaces each symbol of outer row i, times
    # x^t, by its inner word.
    scaled = GF(q).mul[(p ** np.arange(m))[None, :, None], outer.rows[:, None, :]]
    return GeneratorMatrix(p, inner_words[scaled].reshape(2 * m, -1))


def arc_code(q: int) -> GeneratorMatrix:
    """Hyperoval code for even q: conic points plus the two exterior points.

    Columns (1, t, t^2) for t in GF(q) together with (0,1,0) and (0,0,1)
    form a (q+2)-arc when q = 2^s, giving weights {q, q+2}.
    """
    pm = prime_power(q)
    if pm is None or pm[0] != 2 or q < 4:
        raise ValueError("hyperoval codes need q = 2^s >= 4")
    t = np.arange(q)
    exterior = np.eye(3, 2, -1, dtype=t.dtype)  # columns (0, 1, 0) and (0, 0, 1)
    return GeneratorMatrix(q, np.hstack([[np.ones_like(t), t, GF(q).mul[t, t]], exterior]))


def pencil_code(q: int, delta: int) -> GeneratorMatrix:
    """Length q+1+delta extension of the equidistant [q+1, 2, q] code.

    One generator row is padded with zeros, the other with a full-weight
    block, producing weights {q, q+delta} in dimension 2 for any delta.
    """
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    if delta < 1:
        raise ValueError("delta must be positive")
    base = seed_code("mds2", q, q + 1)
    return GeneratorMatrix(q, np.hstack([base.rows, np.repeat([[0], [1]], delta, axis=1)]))


def small_family_code(kind: str, n: int, q: int = 2, d: int | None = None, delta: int | None = None) -> Code:
    """Small explicit families used as lower bounds.

    weight2    zero plus all 0/1-words of weight 2: distances {2, 4},
               size C(n,2)+1, valid over any alphabet.
    bin-2-2d   binary, distances {2, 2+delta} for delta >= 3: delta+2
               words of weight delta+2 sharing the first coordinate,
               n-delta-3 weight-2 words, and zero; size n.  When
               n = delta+3 one extra word of weight n-1 fits (size n+1).
    disjoint   zero plus floor(n/d) weight-d words with disjoint supports:
               distances {d, 2d}.
    ternary13  the six-word ternary code with distances {1, 3}, padded.

    Each family is one (size, n) uint8 array, its words in a fixed order.
    """
    if kind == "weight2":
        if n < 4:
            raise ValueError("weight2 family needs n >= 4")
        if q < 2:
            raise ValueError("alphabet must have at least two symbols")
        # the pairs i < j in row-major order, as itertools.combinations lists them
        i, j = np.triu_indices(n, 1)
        words = np.zeros((len(i) + 1, n), dtype=np.uint8)
        rows = np.arange(1, len(i) + 1)
        words[rows, i] = words[rows, j] = 1
        return Code(q, n, words)
    if kind == "bin-2-2d":
        if delta is None or delta < 3:
            raise ValueError("bin-2-2d needs delta >= 3")
        if n < delta + 3:
            raise ValueError("bin-2-2d needs n >= delta + 3")
        block = delta + 3
        words = np.zeros((n + (n == block), n), dtype=np.uint8)
        # rows 1..block-1 of 1 - eye(block), then row i >= block is {0, i};
        # at n = block, row 0 of 1 - eye(block) (weight n - 1) comes last
        words[1:block, :block] = 1 - np.eye(block, dtype=np.uint8)[1:]
        tail = np.arange(block, n)
        words[tail, 0] = words[tail, tail] = 1
        if n == block:
            words[n, 1:] = 1
        return Code(2, n, words)
    if kind == "disjoint":
        if d is None or d < 1:
            raise ValueError("disjoint family needs d >= 1")
        if n < 2 * d:
            raise ValueError("disjoint family needs n >= 2d")
        words = np.zeros((n // d + 1, n), dtype=np.uint8)
        words[1:, : n // d * d] = np.repeat(np.eye(n // d, dtype=np.uint8), d, axis=1)
        return Code(2, n, words)
    if kind == "ternary13":
        if n < 4:
            raise ValueError("ternary13 needs n >= 4")
        words = np.zeros((6, n), dtype=np.uint8)
        words[:, :4] = [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 1, 0],
                        [2, 1, 2, 0], [2, 2, 0, 1], [2, 2, 0, 2]]
        return Code(3, n, words)
    raise ValueError(f"unknown family {kind!r}")


def complementary_code(g: GeneratorMatrix) -> GeneratorMatrix:
    """Columns completing g to s full copies of the projective point set.

    With m = point_multiplicities(g) and s = max(m), point i appears
    s - m[i] times.  Stacking a code beside its complement gives every
    point m[i] + (s - m[i]) = s columns, so the joint code is s copies of
    the simplex code, equidistant at s*q^(k-1).  The complement may be
    rank deficient (zero weights appear); callers should inspect its
    weight distribution.
    """
    if g.rank() != g.k:
        raise ValueError("generator matrix must have full rank")
    m = point_multiplicities(g)
    s = int(m.max())
    if (m == s).all():
        raise ValueError("complementary code is empty (all points already used)")
    return from_multiplicities(g.q, projective_points(g.q, g.k), s - m)


# ---------------------------------------------------------------------------
# parameter catalog: best known construction for given (q, n, d, delta)


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    size: int
    family: str


def two_distance_lower_bounds(params: TwoDistParams) -> tuple[CatalogEntry, ...]:
    """All catalog families matching (q, n, d, delta), larger sizes first.

    A family matches when its native length is at most n: appending zero
    columns preserves the distance pair.
    """
    q, n, d, delta = params.q, params.n, params.d, params.delta
    entries: list[CatalogEntry] = []
    pm = prime_power(q)

    if pm is not None:
        p, a = pm
        # difference-matrix code: delta = mu (a power of p), d = (q-1)mu, n >= q mu
        if d == (q - 1) * delta and delta == p ** p_adic_valuation(p, delta) and n >= q * delta:
            entries.append(CatalogEntry(q * q * delta, "dm"))
        # pencil code: d = q, any delta, length q+1+delta
        if d == q and n >= q + 1 + delta:
            entries.append(CatalogEntry(q * q, "pencil"))
        # hyperoval code: q = 2^s >= 4, d = q, delta = 2
        if p == 2 and q >= 4 and d == q and delta == 2 and n >= q + 2:
            entries.append(CatalogEntry(q**3, "arc"))
        # su1 at (m, r), 2 <= r < m, needs q^(r-1) | delta, i.e. r <= r0 (q = p^a),
        # and has h = delta / q^(r-1); removal needs q^(m-1) | d + delta and union
        # q^(m-1) | d, so no m with q^(m-1) > d + delta can match
        r0 = 1 + p_adic_valuation(p, delta) // a
        for m in range(3, 22):
            top = q ** (m - 1)
            if r0 < 2 or q**m > _MAX_SPACE or top > d + delta:
                break
            r = min(r0, m - 1)
            h = delta // q ** (r - 1)
            # removal: d = s q^(m-1) - delta; h <= s makes nat >= s(q^m - q^r)/(q-1) > 0,
            # and h and nat both fall as r grows, so the largest r decides
            s = (d + delta) // top
            removal = ((d + delta) % top == 0 and h <= s
                       and (s * (q**m - 1) - h * (q**r - 1)) // (q - 1) <= n)
            # union: d = s q^(m-1), s >= 1 as d >= 1, and p must not divide h, which
            # holds at r = r0 alone, and there only when a | v_p(delta)
            union = (d % top == 0 and r == r0 and h % p
                     and (d // top * (q**m - 1) + h * (q**r - 1)) // (q - 1) <= n)
            if removal or union:
                entries.append(CatalogEntry(q**m, "su1"))
    # su2, prime q only: delta = q^(m-1) fixes m, and q^m = q delta.  m >= 2
    # (q | delta) and q >= 2 give q^m >= 4; delta | d and d >= 1 give r >= 2;
    # r = q^m + 1 degenerates to an equidistant code (the full outer point set)
    # GF(q^m) is built only up to fields.MAX_ORDER
    if (pm == (q, 1) and delta % q == 0 and d % delta == 0
            and delta == q ** p_adic_valuation(q, delta)):
        qm, r = q * delta, d // delta + 1
        if r <= qm <= MAX_ORDER and r * (qm - 1) // (q - 1) <= n:
            entries.append(CatalogEntry(qm * qm, "su2"))
    # small families
    if d == 2 and delta == 2 and n >= 4:
        entries.append(CatalogEntry(math.comb(n, 2) + 1, "weight2"))
    if q == 2 and d == 2 and delta >= 3 and n >= delta + 3:
        size = n + 1 if n == delta + 3 else n
        entries.append(CatalogEntry(size, "bin-2-2d"))
    if q == 2 and delta == d and n >= 2 * d:
        entries.append(CatalogEntry(1 + n // d, "disjoint"))
    if q == 3 and d == 1 and delta == 2 and n >= 4:
        entries.append(CatalogEntry(6, "ternary13"))

    entries.sort(key=lambda e: (-e.size, e.family))
    return tuple(entries)


def equidistant_lower_bound(q: int, n: int, d: int) -> CatalogEntry | None:
    """Largest catalog equidistant code with distance d and length <= n.

    The simplex size q^m grows with m, so the last m that matches wins; the
    dm code replaces it only when strictly larger.
    """
    pm = prime_power(q)
    if pm is None:
        return None
    size, family = 0, None
    # replicated simplex: d = s q^(m-1), length s (q^m - 1)/(q - 1)
    power = 1  # q^(m-1)
    while power <= d:
        if d % power == 0 and d // power * (q * power - 1) // (q - 1) <= n:
            size, family = q * power, "simplex"
        power *= q
    # difference-matrix equidistant: d = (q-1)mu, length q mu - 1
    if d % (q - 1) == 0:
        mu = d // (q - 1)
        if q * mu > size and mu == pm[0] ** p_adic_valuation(pm[0], mu) and q * mu - 1 <= n:
            size, family = q * mu, "dm"
    return None if family is None else CatalogEntry(size, family)
