"""Randomized greedy lower bounds and an exact maximum-clique oracle.

The greedy search fixes the zero word and the word 1^d 0^(n-d), which is
without loss of generality (translation plus coordinate and symbol
relabelings).  Candidates are all words of weight d or d+delta; each
restart grows the code by uniformly random compatible candidates until
maximal.  A restart keeps only the rows still compatible with every pick,
so its work shrinks with the live set; there is no adjacency matrix.
Restarts run side by side, a chunk at a time: the live rows of a chunk's
restarts sit in one array per limb, each restart's rows together, and
one step picks a row for every restart still growing, tests all live
rows against their own restart's pick in one pass and filters them all
at once; the first step gathers each restart's rows from one flat
`flatnonzero` of its (restarts, rows) mask.  A chunk holds at most
`_CHUNK_ROWS` (2^16) live rows, so its memory is bounded whatever the
restarts.  Restart r draws from its own SplitMix64 stream derived from
(seed, r).  SplitMix64 is counter-based, so the outputs of a chunk's
streams are made in numpy, a block of steps at a time, and read as
plain ints; a draw below m takes v mod m at once for every output v at
or below 2^64 - 1 - (base rows), and only above that line the exact
rejection test (see `_Streams`).  Each draw reads the output a scalar
SplitMix64 stream would, and the search reads no clock, so the result is
a pure function of the parameters and (seed, restarts, stop_at), whatever
the machine's speed or load or the chunk size.

Candidates are built already packed, in numpy on every call, with no
Python loop over words and no array of symbols: each weight's block of
64-bit limbs is written from the last coordinate to the first, one
broadcast OR per coordinate of a tail of the block one weight below with
that coordinate's nonzero symbols, read from the symbol tables `core`
builds once per (q, n) (see `packed_candidates`).

Every distance here comes from the packed kernel of `core`: from a set of
words to one word in the greedy, and between all pairs of an oracle
neighbourhood.  Two packed words u and v have `core._popcounts` equal to
t * dist(u, v), with t = 2^(m-1) and m = ceil(log2 q), for every q and n,
and `_compatible` tests that popcount for equality with t * d and with
t * (d + delta).  Packed words are fixed in width and their
symbol codes sorted, so limb-tuple order is lexicographic word order and
the zero word is all zero limbs: the greedy breaks ties between restarts
on the limb tuples and decodes only the winner back to symbols
(`core._unpack_words`).  The oracle compares its neighbourhoods' words a
block of rows at a time and keeps each row as an int bitset, so its
memory stays bounded.

The oracle computes A_q(n, {d, d+delta}) exactly, counting every code
whose distances lie in {d, d+delta}, one-distance codes included: a code
holding the zero word is the zero word plus a clique of the
compatibility graph on the candidate words.  Coordinate permutations and
per-coordinate symbol permutations fixing 0 keep the zero word and all
distances and act transitively on each weight class, so some maximum
clique contains u = 1^d 0^(n-d), the greedy's start word, or has only
weight-(d+delta) words and contains the first of them, v.  The oracle
fixes the same two words as the greedy (0 and u), or 0 and v, and runs
branch and bound with greedy-coloring upper bounds on those two
neighbourhoods only; the coloring reads each vertex's non-neighbour
mask, built once per neighbourhood, and leaves out the color classes
that cannot lead to a larger clique.  Within a neighbourhood it branches
on one third word per orbit of the maps fixing 0 and u (or v), then
deletes that orbit: the maps carry any clique through the orbit onto one through the
chosen word.  It stops once a code reaches the `range` upper bound of
`bounds.best_upper_bound`; `exact` and `not_well_defined` statuses count
only codes with both distances, so they never stop it.  The search
starts from the largest catalog code, of
`constructions.two_distance_lower_bounds` or of
`constructions.equidistant_lower_bound` at distance d or d+delta: each
such code has its distances in {d, d+delta}, so it is one of the codes
counted and the value is at least its size.  When that size already
meets the `range` bound it is the value, and the oracle returns it
without building a candidate.  The candidate cap is checked before any
of this, so what it refuses does not depend on the catalog.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import constructions
from .core import (
    Code,
    TwoDistParams,
    TwoDistReport,
    _popcount_unit,
    _popcounts,
    _symbol_tables,
    _unpack_words,
    verify_two_distance,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
MAX_CANDIDATES = 200_000  # random_greedy refuses larger candidate spaces
_BLOCK_PAIRS = 1 << 18  # word pairs per block of the oracle's adjacency
_CHUNK_ROWS = 1 << 16  # live rows per chunk of greedy restarts run side by side
_FIRST_BLOCK = 16  # stream outputs per restart in a chunk's first block


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array (arithmetic wraps mod 2^64)."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


class _Streams:
    """The SplitMix64 streams of a chunk of restarts, made a block of outputs at a time.

    SplitMix64 with state s gives mix(s + t * gamma) mod 2^64 as its t-th
    output, t = 1, 2, ..., so any outputs of any streams come from one
    `_mix` over a uint64 array.  Restart r's state is the first output of
    the stream with state (seed ^ r * gamma) mod 2^64; only the low 64 bits
    of the seed count.  A block holds the next `cols` outputs of each
    restart still growing, read through one `tolist`; `cols` starts at
    `_FIRST_BLOCK` and doubles with each block, up to `top`.

    A draw below m <= `top` rejects an output v unless
    v < 2^64 - (2^64 mod m), so that every residue is equally likely, and
    reads the next output instead.  As 2^64 mod m < m <= top, every output
    at or below `line` = 2^64 - 1 - top is accepted, so a draw takes such
    an output v as v mod m straight away, and only an output above `line`
    goes to the exact test (`_accepted`); a rejected output is dropped
    from its restart's row and the row refilled from that restart's
    stream.  Each draw so reads the same output as a scalar SplitMix64
    stream would.

    Restarts that stop drawing never come back, so a block holds a row for
    every restart that draws from it.  It has at most `top` columns, so a
    chunk of at most `_CHUNK_ROWS` // `top` restarts holds at most
    `_CHUNK_ROWS` outputs.
    """

    def __init__(self, seed: int, first: int, last: int, top: int):
        restarts = np.arange(first, last, dtype=np.uint64)
        self.states = _mix((restarts * _GOLDEN ^ np.uint64(seed & _MASK)) + _GOLDEN)
        self.next = np.ones(last - first, dtype=np.uint64)  # t of each stream's next output to make
        self.top, self.line = top, _MASK - top
        self.rows: list[list[int]] = [[] for _ in range(last - first)]
        self.cols = self.pos = 0  # the block's width and the next column to read

    def draw(self, restarts: list[int], counts: list[int], offsets: list[int]) -> list[int]:
        """offsets[i] plus a uniform draw below counts[i] from restarts[i]'s stream."""
        if self.pos == self.cols:
            self._block(restarts)
        j, rows, line = self.pos, self.rows, self.line
        self.pos += 1
        return [s + (v if (v := rows[r][j]) <= line else self._accepted(r, j, m)) % m
                for r, s, m in zip(restarts, offsets, counts)]

    def _block(self, restarts: list[int]) -> None:
        self.cols = min(self.top, 2 * self.cols or _FIRST_BLOCK)
        steps = self.next[restarts]
        self.next[restarts] = steps + self.cols
        t = steps[:, None] + np.arange(self.cols, dtype=np.uint64)
        block = _mix(self.states[restarts][:, None] + t * _GOLDEN)
        for r, row in zip(restarts, block.tolist()):
            self.rows[r] = row
        self.pos = 0

    def _accepted(self, r: int, j: int, m: int) -> int:
        """The output restart r's draw below m accepts, read from column j on."""
        row, threshold = self.rows[r], (1 << 64) - (1 << 64) % m
        while row[j] >= threshold:
            del row[j]
            step = self.next[r : r + 1]  # a view: the refill advances the stream
            row.append(_mix(self.states[r : r + 1] + step * _GOLDEN).item())
            step += 1
        return row[j]


@dataclass(frozen=True, slots=True)
class SearchConfig:
    seed: int
    restarts: int = 1000
    stop_at: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.stop_at is not None and self.stop_at < 1:
            raise ValueError("stop_at must be at least 1")


@dataclass(frozen=True, slots=True)
class SearchResult:
    code: Code
    size: int
    restart_index: int
    restarts_run: int
    report: TwoDistReport


def candidate_count(params: TwoDistParams) -> int:
    q, n = params.q, params.n
    return sum(
        math.comb(n, w) * (q - 1) ** w for w in {params.d, params.d2}
    )


def packed_candidates(params: TwoDistParams) -> np.ndarray:
    """All words of weight d or d+delta, packed: a (limbs, N) uint64 array.

    Column c is the packed word (see `core._pack_words`) of the c-th word
    in a fixed lexicographic order: weight d first; within a weight,
    supports in combinations order, then nonzero values in product order,
    first position most significant.

    In that order the words of weight k on coordinates i..n-1 are first
    those with coordinate i nonzero, each weight-(k-1) word on i+1..n-1
    ORed with each of coordinate i's q - 1 nonzero symbols, then the words
    of weight k on i+1..n-1.  So each weight's block is written from its
    end, one coordinate i at a time from the last, and the weight-(k-1)
    words on i+1..n-1 are a tail of the block one weight below.  The
    coordinates before i add at most i to a weight, so weight k is built
    only down to i = w - k, with w the least of d and d+delta at or above
    k; its block then holds C(n-w+k, k) (q-1)^k words, no more than the
    weight-w block.
    """
    q, n, d, e = params.q, params.n, params.d, params.d2
    limbs, coord, base, flat, starts = _symbol_tables(q, n)
    limb = np.bincount(starts[1:], minlength=len(coord)).cumsum()  # limb starts passed so far
    heads = np.zeros((n, limbs, 1, q - 1, 1), dtype=np.uint64)  # coordinate i's nonzero symbols
    heads[coord, limb, 0, :, 0] = flat[base[:, None] + np.arange(1, q)]
    out = np.empty((limbs, candidate_count(params)), dtype=np.uint64)
    split = math.comb(n, d) * (q - 1) ** d
    finals = {d: out[:, :split], e: out[:, split:]}
    prev = np.zeros((limbs, 1), dtype=np.uint64)  # the one word of weight 0
    for k in range(1, e + 1):
        w = d if k <= d else e
        values = (q - 1) ** (k - 1)  # value tuples of a weight-(k-1) support
        if k in finals:
            block = finals[k]
        else:
            block = np.empty((limbs, math.comb(n - w + k, k) * values * (q - 1)), dtype=np.uint64)
        end = block.shape[1]
        for i in range(n - k, w - k - 1, -1):
            size = math.comb(n - 1 - i, k - 1) * values  # weight k-1 on i+1..n-1
            sub = prev[:, prev.shape[1] - size :].reshape(limbs, -1, 1, values)
            start = end - size * (q - 1)
            # the reshape only splits the last axis, so `out` is a view into `block`
            np.bitwise_or(sub, heads[i], out=block[:, start:end].reshape(limbs, -1, q - 1, values))
            end = start
        prev = block
    return out


def _good_popcounts(params: TwoDistParams) -> tuple[int, int]:
    """The popcounts t*d and t*(d+delta) of packed XORs at the two allowed distances."""
    t = _popcount_unit(params.q)
    return t * params.d, t * params.d2


def _compatible(limbs, word, good: tuple[int, int]) -> np.ndarray:
    """Mask of the packed rows whose `_popcounts` against `word` is one of `good`."""
    count = _popcounts(limbs, word)
    return (count == good[0]) | (count == good[1])


def _greedy_chunk(
    base: np.ndarray, good: tuple[int, int], streams: _Streams
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, picks): every pick of the restarts drawing from `streams`, run side by side.

    `base` is the (limbs, rows) array of the packed rows every restart
    starts from.  Column i of `picks` is a packed word that restart
    owner[i] picked.  The first pick of each restart is tested against `base` in one
    broadcast block.  After that the live rows of all restarts sit in one
    array per limb, each restart's rows together and in restart order, so
    a step draws one row per restart inside its segment, spreads each pick
    over its segment, runs one compatibility pass over all live rows,
    counts what each segment keeps and filters them all at once.
    `compress` keeps row order, so each restart draws exactly what it would
    draw alone.
    """
    if not base.shape[1]:
        return np.zeros(0, dtype=np.intp), base[:, :0]
    owner = list(range(len(streams.states)))
    picks = base.take(streams.draw(owner, [base.shape[1]] * len(owner), [0] * len(owner)), axis=1)
    keep = _compatible(base[:, None, :], picks[:, :, None], good)
    owners, picked = owner.copy(), [picks]
    live = keep.sum(axis=1)
    rows = base.take(np.flatnonzero(keep) % base.shape[1], axis=1)
    while True:
        counts = live.tolist()
        if 0 in counts:  # some restarts are maximal: drop them
            owner = [r for r, m in zip(owner, counts) if m]
            if not owner:
                return np.array(owners), np.concatenate(picked, axis=1)
            counts = [m for m in counts if m]
            live = live.compress(live > 0)
        starts = live.cumsum() - live
        picks = rows.take(streams.draw(owner, counts, starts.tolist()), axis=1)
        keep = _compatible(rows, picks.repeat(live, axis=1), good)
        live = np.add.reduceat(keep, starts, dtype=np.intp)
        rows = rows.compress(keep, axis=1)
        owners += owner
        picked.append(picks)


def random_greedy(params: TwoDistParams, cfg: SearchConfig) -> SearchResult:
    """Best maximal code over independent random greedy restarts.

    Each restart starts from the candidates compatible with the start word
    and, after each uniformly random pick among them, keeps only the rows
    compatible with that pick too.  Rows are packed words (see the module
    docstring).  Restarts run side by side, a chunk of them at a time (see
    `_greedy_chunk`), with at most `_CHUNK_ROWS` live rows in a chunk; a
    pick depends only on its restart's live rows and stream, so chunking
    changes no pick.  Ties between restarts break toward the
    lexicographically smallest sorted word list, compared as limb tuples,
    scanning restarts in order.  The search stops after `restarts`
    restarts, or earlier once a code reaches `stop_at` words; with
    `stop_at` the chunks grow from one restart, doubling each time, so an
    early stop runs at most about twice the restarts it needs.  There is no
    wall-clock stop, so the result is a pure function of (seed, restarts,
    stop_at).  The returned code is re-verified.
    """
    total = candidate_count(params)
    if total > MAX_CANDIDATES:
        raise ValueError(f"candidate space has {total} words, above the cap {MAX_CANDIDATES}")
    good = _good_popcounts(params)
    packed = packed_candidates(params)
    start = packed[:, 0]  # 1^d 0^(n-d); it is at distance 0 from itself, so it drops out
    base = packed.compress(_compatible(packed, start, good), axis=1)
    fixed = [(0,) * len(packed), tuple(start.tolist())]  # in every restart's code
    stop = math.inf if cfg.stop_at is None else cfg.stop_at
    widest = max(1, _CHUNK_ROWS // max(1, base.shape[1]))
    width = widest if cfg.stop_at is None else 1

    best_words: list[tuple[int, ...]] = []
    best_restart = restarts_run = 0
    while restarts_run < cfg.restarts and len(best_words) < stop:
        last = min(cfg.restarts, restarts_run + width)
        streams = _Streams(cfg.seed, restarts_run, last, base.shape[1])
        owner, picks = _greedy_chunk(base, good, streams)
        picks = picks.take(owner.argsort(kind="stable"), axis=1)  # each restart's picks together
        sizes = np.bincount(owner, minlength=last - restarts_run)
        for size, end in zip(sizes.tolist(), sizes.cumsum().tolist()):
            if len(best_words) >= stop:
                break
            if len(fixed) + size >= len(best_words):
                words = sorted(fixed + list(map(tuple, picks[:, end - size : end].T.tolist())))
                if len(words) > len(best_words) or words < best_words:
                    best_words, best_restart = words, restarts_run
            restarts_run += 1
        width = min(2 * width, widest)
    symbols = _unpack_words(np.array(best_words, dtype=np.uint64).T, params.q, params.n)
    code = Code(params.q, params.n, symbols)
    report = verify_two_distance(code, params)
    return SearchResult(
        code=code,
        size=code.size,
        restart_index=best_restart,
        restarts_run=restarts_run,
        report=report,
    )


# ---------------------------------------------------------------------------
# exact oracle by maximum clique


def _greedy_color_order(p_mask: int, nonadj: list[int], k_min: int) -> tuple[list[int], list[int]]:
    """Vertices of p_mask ordered by greedy color class, with color bounds.

    `nonadj[v]` is ~(adj[v] | 1 << v), the vertices v may share a color with.
    Vertices of a color below `k_min` are colored, so they still leave the
    later classes, but are left out of the order (San Segundo et al.'s
    BBMC): a caller that needs a clique of more than k_min - 1 from p_mask
    has nothing to gain from them.
    """
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    remaining = p_mask
    while remaining:
        color += 1
        available = remaining
        if color < k_min:
            while available:
                low = available & -available
                available &= nonadj[low.bit_length() - 1]
                remaining ^= low
            continue
        while available:
            low = available & -available
            v = low.bit_length() - 1
            available &= nonadj[v]
            remaining ^= low
            order.append(v)
            bounds.append(color)
    return order, bounds


def _pack(adj_bool: np.ndarray) -> list[int]:
    """Rows of a boolean matrix as int bitsets (bit j = column j)."""
    packed = np.packbits(adj_bool, axis=1, bitorder="little")
    data, step = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * step : (i + 1) * step], "little") for i in range(len(packed))]


def _expand(
    adj: list[int], nonadj: list[int], size: int, p_mask: int, best: int, stop: float
) -> int:
    """`size` plus the clique number of the subgraph on p_mask if above `best`, else `best`.

    p_mask holds the common neighbours of a clique of `size` vertices.  The
    search returns as soon as it has a clique of size `stop`.  The coloring
    leaves out the classes below best - size + 1: the loop below walks the
    order from its highest color down and returns at the first vertex with
    size + color <= best, and `best` only grows, so it would have returned
    before branching on any of them.  The search tree is the same.
    """
    if not p_mask:
        return max(best, size)
    order, bounds = _greedy_color_order(p_mask, nonadj, best - size + 1)
    for idx in range(len(order) - 1, -1, -1):
        if size + bounds[idx] <= best or best >= stop:
            return best
        v = order[idx]
        best = _expand(adj, nonadj, size + 1, p_mask & adj[v], best, stop)
        p_mask ^= 1 << v
    return best


def _orbit_keys(words: np.ndarray, w: int) -> np.ndarray:
    """Orbit of each word under the stabiliser of the zero word and 1^w 0^(n-w).

    The stabiliser permutes the support 0..w-1 and the rest among
    themselves and permutes the symbols of each coordinate fixing 0 (and 1
    on the support), so a word's orbit is fixed by (#support coordinates
    equal to 1, #support coordinates equal to 0, #nonzero coordinates off
    the support), here read in base n + 1.
    """
    base = words.shape[1] + 1
    ones = (words[:, :w] == 1).sum(axis=1)
    zeros = (words[:, :w] == 0).sum(axis=1)
    off = (words[:, w:] != 0).sum(axis=1)
    return (ones * base + zeros) * base + off


def _orbits(near: np.ndarray, adj: list[int], w: int) -> list[tuple[int, int]]:
    """(first word, member bitset) per orbit of the stabiliser of {0, 1^w 0^(n-w)}.

    Orbits come largest neighbourhood first, ties in key order: a large
    neighbourhood tends to hold a large clique, which prunes the rest or
    reaches the bound early.
    """
    _, reps, orbit = np.unique(_orbit_keys(near, w), return_index=True, return_inverse=True)
    members = _pack(orbit[None, :] == np.arange(len(reps))[:, None])
    degree = [adj[rep].bit_count() for rep in reps]
    order = sorted(range(len(reps)), key=lambda k: -degree[k])
    return [(int(reps[k]), members[k]) for k in order]


def _neighbour_sets(limbs: np.ndarray, good: np.ndarray) -> list[int]:
    """Bitset of each packed word's neighbours in G, the words it is compatible with.

    `_compatible` broadcasts a block of rows against all the words, at
    most `_BLOCK_PAIRS` pairs at a time, and each block is packed at once,
    so memory stays bounded however many words there are.
    """
    m = limbs.shape[1]
    step = max(1, _BLOCK_PAIRS // max(1, m))
    adj: list[int] = []
    for start in range(0, m, step):
        adj += _pack(_compatible(limbs[:, start : start + step, None], limbs[:, None, :], good))
    return adj


def _orbit_clique(
    near: np.ndarray, limbs: np.ndarray, good: np.ndarray, w: int, best: int, stop: float
) -> int:
    """Clique number of G[near] if above `best`, else `best`.

    G joins two words whose packed XOR has a `good` popcount; `limbs` holds
    `near` packed (see `_neighbour_sets`).  `near` is the neighbourhood of
    the centre 1^w 0^(n-w) among a set of words that the stabiliser H of
    {0, centre} keeps, so H keeps `near` too.  For each orbit of H on it
    in turn, search the cliques through the orbit's first word among the
    words still alive, then delete the orbit.  A maximum clique meets some
    first orbit, and an element of H maps it onto a clique through that
    orbit's first word that still avoids every earlier orbit, so nothing
    is lost.  The search ends once a clique reaches `stop`.
    """
    adj = _neighbour_sets(limbs, good)
    nonadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    alive = (1 << len(near)) - 1
    for rep, members in _orbits(near, adj, w):
        if best >= stop:
            break
        best = 1 + _expand(adj, nonadj, 0, adj[rep] & alive, best - 1, stop - 1)
        alive &= ~members
    return best


def _proven_bound(params: TwoDistParams) -> float:
    """The aggregated upper bound when it is a range, else infinity.

    Exact and not-well-defined statuses describe codes that realise both
    distances, while the oracle also counts one-distance codes, so only a
    range bound (LP, Plotkin, d2, dd, sc) bounds what the oracle counts.
    """
    status = bounds_mod.best_upper_bound(params).status
    return status.hi if status.kind == "range" else math.inf


def _catalog_size(params: TwoDistParams) -> int:
    """Size of the largest catalog code with distances in {d, d+delta}, else 0.

    These are the two-distance entries and the equidistant codes at
    distance d or d+delta; the oracle counts every one of them.
    """
    sizes = [entry.size for entry in constructions.two_distance_lower_bounds(params)]
    for distance in (params.d, params.d2):
        entry = constructions.equidistant_lower_bound(params.q, params.n, distance)
        if entry is not None:
            sizes.append(entry.size)
    return max(sizes, default=0)


def exhaustive_maximum(params: TwoDistParams, max_vertices: int = 2000) -> int:
    """Exact A_q(n, {d, d+delta}) for small candidate spaces.

    This counts codes whose distances all lie in {d, d+delta}, so codes
    with one distance count too; `special_values` gives exact values only
    for codes realising both distances, which can be smaller.  For example
    (2,10,3,3) is 6 here, from an equidistant code, but exact 4 there.

    Translate a maximum code to hold the zero word; its other words form a
    clique of the compatibility graph G on the words of weight d or
    d+delta.  The monomial maps (coordinate permutations and symbol
    permutations fixing 0 in each coordinate) fix the zero word, keep
    Hamming distances and act transitively on each weight class.  So if
    the clique has a weight-d word it may be taken to contain u =
    1^d 0^(n-d); otherwise it lies in the weight-(d+delta) class W and
    may be taken to contain v, the first word of W.  Hence

        A = 2 + max(w(G[N(u)]), w(G[N(v) & W]))

    with w the clique number (the empty clique counts, as {0, u} is always
    a code), and only those two induced subgraphs are searched.  Each is
    split again by a third word, one per orbit of the stabiliser of the
    zero word and v (or u); see `_orbit_clique`.  The graph on N(v) & W,
    usually the smaller, goes first, and the search on N(u) only looks
    for cliques larger than its clique number.  Both stop once the code
    reaches a range upper bound of `bounds.best_upper_bound` (see
    `_proven_bound`), which is then the value; the stop is checked before
    each neighbourhood is built, so N(u) is never built when the search on
    N(v) reaches it.

    Both searches start from L - 2, with L the largest catalog code the
    oracle counts (see `_catalog_size`; 0 if none matches): the value is
    at least L, and each search returns its clique number only if above
    what it is given, so the result is max(L, what the searches find),
    the value.  When L reaches the range bound, L is the value and is
    returned before any candidate is built.  `max_vertices` caps the
    whole candidate space and is checked first, so a refusal never
    depends on the catalog.
    """
    if max_vertices < 0:
        raise ValueError("oracle cap must not be negative")
    total = candidate_count(params)
    if total > max_vertices:
        raise ValueError(
            f"candidate space has {total} words, above the limit {max_vertices}"
        )
    stop = _proven_bound(params) - 2
    best = max(0, _catalog_size(params) - 2)
    if best >= stop:
        return 2 + best
    packed = packed_candidates(params)
    good = _good_popcounts(params)
    # v then u: the weight-(d+delta) words, then all candidates; each block
    # of `packed_candidates` starts with its centre 1^w 0^(n-w)
    split = math.comb(params.n, params.d) * (params.q - 1) ** params.d
    for first, w in ((split, params.d2), (0, params.d)):
        if best >= stop:
            break
        limbs = packed[:, first:]
        near = limbs.compress(_compatible(limbs, limbs[:, 0], good), axis=1)
        best = _orbit_clique(_unpack_words(near, params.q, params.n), near, good, w, best, stop)
    return 2 + best
