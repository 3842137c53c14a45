"""Randomized greedy lower bounds and an exact maximum-clique oracle.

The greedy search fixes the zero word and the word 1^d 0^(n-d), which is
without loss of generality (translation plus coordinate and symbol
relabelings).  Candidates are all words of weight d or d+delta; each
restart grows the code by uniformly random compatible candidates until
maximal.  Restart r draws from its own SplitMix64 stream derived from
(seed, r), so the outcome depends only on (seed, restarts), not on
scheduling.

The oracle computes A_q(n, {d, d+delta}) exactly as 1 plus the maximum
clique of the compatibility graph on the candidate words, found by
branch and bound with greedy-coloring upper bounds.
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
    """All words of weight d or d+delta, in a fixed lexicographic order."""
    q, n = params.q, params.n
    rows = []
    for w in sorted({params.d, params.d2}):
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, q), repeat=w):
                word = [0] * n
                for pos, val in zip(support, values):
                    word[pos] = val
                rows.append(word)
    return np.array(rows, dtype=np.uint8)


def _distances_to(cands: np.ndarray, word: np.ndarray) -> np.ndarray:
    return np.concatenate([dist[:, 0] for _, dist in distance_blocks(cands, word[None])])


def _adjacency(cands: np.ndarray, good: set[int]) -> np.ndarray:
    """Boolean matrix: candidate pair at a distance in `good`."""
    m = len(cands)
    adj = np.empty((m, m), dtype=bool)
    good_arr = np.array(sorted(good))
    for start, dist in distance_blocks(cands, cands):
        adj[start : start + len(dist)] = np.isin(dist, good_arr)
    np.fill_diagonal(adj, False)
    return adj


def random_greedy(params: TwoDistParams, cfg: SearchConfig) -> SearchResult:
    """Best maximal code over independent random greedy restarts.

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
    good = {params.d, params.d2}
    good_arr = np.array(sorted(good))
    n = params.n
    start_word = np.zeros(n, dtype=np.uint8)
    start_word[: params.d] = 1
    base_ok = _distances_to(cands, start_word)
    base_mask = np.isin(base_ok, good_arr)
    # the start word itself sits in the candidate list; drop it
    base_mask &= base_ok > 0

    use_matrix = len(cands) <= 8192
    adj = _adjacency(cands, good) if use_matrix else None

    deadline = None
    if cfg.time_budget_ms is not None:
        deadline = time.monotonic() + cfg.time_budget_ms / 1000.0

    best_words: list[tuple[int, ...]] | None = None
    best_restart = 0
    restarts_run = 0
    for restart in range(cfg.restarts):
        restarts_run = restart + 1
        rng = restart_stream(cfg.seed, restart)
        chosen = []
        compat = base_mask.copy()
        while True:
            idxs = np.flatnonzero(compat)
            if len(idxs) == 0:
                break
            pick = int(idxs[rng.randbelow(len(idxs))])
            chosen.append(pick)
            if use_matrix:
                compat &= adj[pick]
            else:
                dist = _distances_to(cands, cands[pick])
                compat &= np.isin(dist, good_arr)
                compat[pick] = False
        words = [tuple([0] * n), tuple(int(x) for x in start_word)]
        words += [tuple(int(x) for x in cands[i]) for i in chosen]
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


def _max_clique(adj: list[int]) -> tuple[int, list[int]]:
    n = len(adj)
    best_size = 0
    best: list[int] = []

    def expand(current: list[int], p_mask: int):
        nonlocal best_size, best
        if not p_mask:
            if len(current) > best_size:
                best_size = len(current)
                best = current[:]
            return
        order, bounds = _greedy_color_order(p_mask, adj)
        for idx in range(len(order) - 1, -1, -1):
            if len(current) + bounds[idx] <= best_size:
                return
            v = order[idx]
            current.append(v)
            expand(current, p_mask & adj[v])
            current.pop()
            p_mask &= ~(1 << v)

    expand([], (1 << n) - 1)
    return best_size, sorted(best)


def exhaustive_maximum(params: TwoDistParams, max_vertices: int = 2000) -> int:
    """Exact A_q(n, {d, d+delta}) for small candidate spaces.

    Fixing the zero word is without loss of generality (translation), so
    the answer is 1 plus the maximum clique of the compatibility graph on
    all words of weight d or d+delta.
    """
    total = candidate_count(params)
    if total > max_vertices:
        raise ValueError(
            f"candidate space has {total} words, above the limit {max_vertices}"
        )
    cands = candidate_words(params)
    good = sorted({params.d, params.d2})
    m = len(cands)
    adj_bool = _adjacency(cands, set(good))
    adj = [
        int.from_bytes(np.packbits(adj_bool[i], bitorder="little").tobytes(), "little")
        for i in range(m)
    ]
    size, _ = _max_clique(adj)
    return 1 + size
