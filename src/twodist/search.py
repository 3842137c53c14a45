"""Randomized greedy lower bounds and an exact maximum-clique oracle.

The greedy search fixes the zero word and the word 1^d 0^(n-d), which is
without loss of generality (translation plus coordinate and symbol
relabelings).  Candidates are all words of weight d or d+delta; each
restart grows the code by uniformly random compatible candidates until
maximal.  A restart keeps only the rows still compatible with every pick
and filters them against each new pick, so its work shrinks with the live
set; there is no adjacency matrix.  Restart r draws from its own
SplitMix64 stream derived from (seed, r), so the outcome depends only on
(seed, restarts), not on scheduling.

The oracle computes A_q(n, {d, d+delta}) exactly: a code holding the
zero word is the zero word plus a clique of the compatibility graph on
the candidate words.  Coordinate permutations and per-coordinate symbol
permutations fixing 0 keep the zero word and all distances and act
transitively on each weight class, so some maximum clique contains
u = 1^d 0^(n-d), the greedy's start word, or has only weight-(d+delta)
words and contains the first of them, v.  The oracle fixes the same two
words as the greedy (0 and u), or 0 and v, and runs branch and bound
with greedy-coloring upper bounds on those two neighbourhoods only.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    Code,
    DistanceDistribution,
    TwoDistParams,
    TwoDistReport,
    distance_blocks,
    verify_two_distance,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG: 64-bit state advanced by the golden-ratio constant."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % n


def restart_stream(seed: int, restart: int) -> SplitMix64:
    """Independent per-restart stream: state mixed from seed and index."""
    mixer = SplitMix64((seed ^ (restart * _GOLDEN)) & _MASK)
    return SplitMix64(mixer.next_u64())


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    restarts: int = 1000
    time_budget_ms: int | None = None
    max_candidates: int = 200_000
    stop_at: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.stop_at is not None and self.stop_at < 1:
            raise ValueError("stop_at must be at least 1")
        if self.time_budget_ms is not None and self.time_budget_ms < 0:
            raise ValueError("time budget must not be negative")
        if self.max_candidates < 0:
            raise ValueError("candidate cap must not be negative")


@dataclass(frozen=True)
class SearchResult:
    code: Code
    size: int
    restart_index: int
    restarts_run: int
    report: TwoDistReport
    distribution: DistanceDistribution


def candidate_count(params: TwoDistParams) -> int:
    q, n = params.q, params.n
    return sum(
        math.comb(n, w) * (q - 1) ** w for w in {params.d, params.d2}
    )


def candidate_words(params: TwoDistParams) -> np.ndarray:
    """All words of weight d or d+delta, in a fixed lexicographic order.

    Weight d comes first; within a weight, supports in combinations order,
    then nonzero values in product order.  The dtype is the smallest
    unsigned one that holds q - 1.
    """
    q, n = params.q, params.n
    dtype = np.min_scalar_type(q - 1)
    blocks = []
    for w in (params.d, params.d2):
        n_supports, n_values = math.comb(n, w), (q - 1) ** w
        supports = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), w)),
            np.intp,
            count=n_supports * w,
        ).reshape(n_supports, w)
        values = np.fromiter(
            itertools.chain.from_iterable(itertools.product(range(1, q), repeat=w)),
            dtype,
            count=n_values * w,
        ).reshape(n_values, w)
        block = np.zeros((len(supports), len(values), n), dtype=dtype)
        rows = np.arange(len(supports))[:, None, None]
        cols = np.arange(len(values))[None, :, None]
        block[rows, cols, supports[:, None, :]] = values[None, :, :]
        blocks.append(block.reshape(-1, n))
    return np.concatenate(blocks)


def _good_distances(params: TwoDistParams) -> np.ndarray:
    """Lookup table over distances 0..n: True exactly at d and d+delta.

    It is False at 0, so no word counts as compatible with itself.
    """
    good = np.zeros(params.n + 1, dtype=bool)
    good[[params.d, params.d2]] = True
    return good


def _distances_to(cands: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Hamming distance from each row of `cands` to one word."""
    return (cands != word).sum(axis=1)


def _adjacency(cands: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Boolean matrix: candidate pair at a distance where `good` is True."""
    m = len(cands)
    adj = np.empty((m, m), dtype=bool)
    for start, dist in distance_blocks(cands, cands):
        adj[start : start + len(dist)] = good[dist]
    return adj


def random_greedy(params: TwoDistParams, cfg: SearchConfig) -> SearchResult:
    """Best maximal code over independent random greedy restarts.

    Each restart starts from the candidates compatible with the start word
    and, after each uniformly random pick among them, keeps only the rows
    compatible with that pick too.  Boolean filtering keeps candidate
    order, so a pick depends only on the live set and the restart's stream.
    Ties between restarts break toward the lexicographically smallest
    sorted word list, so the result is a pure function of (seed,
    restarts, stop_at, time budget).  The returned code is re-verified.
    """
    total = candidate_count(params)
    if total > cfg.max_candidates:
        raise ValueError(
            f"candidate space has {total} words, above the cap {cfg.max_candidates}"
        )
    cands = candidate_words(params)
    if len(cands) == 0:
        raise ValueError("candidate space is empty")
    good = _good_distances(params)
    n = params.n
    start_word = cands[0]  # 1^d 0^(n-d); good[0] is False, so it drops out
    base_rows = cands[good[_distances_to(cands, start_word)]]

    deadline = None
    if cfg.time_budget_ms is not None:
        deadline = time.monotonic() + cfg.time_budget_ms / 1000.0

    best_words: list[tuple[int, ...]] | None = None
    best_restart = 0
    restarts_run = 0
    for restart in range(cfg.restarts):
        restarts_run = restart + 1
        rng = restart_stream(cfg.seed, restart)
        chosen = [start_word]
        rows = base_rows
        while len(rows):
            word = rows[rng.randbelow(len(rows))]
            chosen.append(word)
            rows = rows[good[_distances_to(rows, word)]]
        words = [(0,) * n, *map(tuple, np.array(chosen).tolist())]
        words.sort()
        if best_words is None or len(words) > len(best_words) or (
            len(words) == len(best_words) and words < best_words
        ):
            best_words = words
            best_restart = restart
        if cfg.stop_at is not None and len(best_words) >= cfg.stop_at:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
    assert best_words is not None
    code = Code(params.q, n, tuple(best_words))
    report = verify_two_distance(code, params)
    return SearchResult(
        code=code,
        size=code.size,
        restart_index=best_restart,
        restarts_run=restarts_run,
        report=report,
        distribution=report.distribution,
    )


# ---------------------------------------------------------------------------
# exact oracle by maximum clique


def _greedy_color_order(p_mask: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Vertices of p_mask ordered by greedy color class, with color bounds."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    remaining = p_mask
    while remaining:
        color += 1
        available = remaining
        while available:
            v = (available & -available).bit_length() - 1
            bit = 1 << v
            available &= ~bit & ~adj[v]
            remaining &= ~bit
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique(adj_bool: np.ndarray) -> int:
    """Clique number of the graph with boolean adjacency matrix `adj_bool`."""
    adj = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in adj_bool
    ]
    best = 0

    def expand(size: int, p_mask: int):
        nonlocal best
        if not p_mask:
            best = max(best, size)
            return
        order, bounds = _greedy_color_order(p_mask, adj)
        for idx in range(len(order) - 1, -1, -1):
            if size + bounds[idx] <= best:
                return
            v = order[idx]
            expand(size + 1, p_mask & adj[v])
            p_mask &= ~(1 << v)

    expand(0, (1 << len(adj)) - 1)
    return best


def exhaustive_maximum(params: TwoDistParams, max_vertices: int = 2000) -> int:
    """Exact A_q(n, {d, d+delta}) for small candidate spaces.

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
    a code), and only those two induced subgraphs are searched.
    `max_vertices` caps the whole candidate space.
    """
    total = candidate_count(params)
    if total > max_vertices:
        raise ValueError(
            f"candidate space has {total} words, above the limit {max_vertices}"
        )
    cands = candidate_words(params)
    good = _good_distances(params)
    first_heavy = math.comb(params.n, params.d) * (params.q - 1) ** params.d
    u, v = cands[0], cands[first_heavy]
    near_u = good[_distances_to(cands, u)]
    near_v = good[_distances_to(cands, v)]
    near_v[:first_heavy] = False
    return 2 + max(
        _max_clique(_adjacency(cands[near_u], good)),
        _max_clique(_adjacency(cands[near_v], good)),
    )
