import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodist import search
from twodist.bounds import best_upper_bound
from twodist.core import TwoDistParams, _pack_words, _unpack_words
from twodist.search import (
    MAX_CANDIDATES,
    SearchConfig,
    _expand,
    _good_popcounts,
    _greedy_color_order,
    _mix,
    _neighbour_sets,
    _orbit_keys,
    _orbits,
    _pack,
    _Streams,
    candidate_count,
    exhaustive_maximum,
    packed_candidates,
    random_greedy,
)


def P(q, n, d, delta):
    return TwoDistParams(q, n, d, delta)


def small_instances(qs, n_max, max_candidates):
    """Every valid (q, n, d, delta) with at most `max_candidates` candidates."""
    return [
        (q, n, d, delta)
        for q in qs
        for n in range(2, n_max + 1)
        for d in range(1, n)
        for delta in range(1, n - d + 1)
        if candidate_count(P(q, n, d, delta)) <= max_candidates
    ]


# reference: the scalar generator the library's block-made streams replaced

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG: 64-bit state advanced by the golden-ratio constant."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
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
    mixer = SplitMix64((seed ^ (restart * GOLDEN)) & MASK)
    return SplitMix64(mixer.next_u64())


# the published SplitMix64 sequence for seed 1234567
PUBLISHED = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


class TestPrng:
    def test_reference_vector(self):
        g = SplitMix64(1234567)
        assert [g.next_u64() for _ in range(5)] == PUBLISHED

    def test_mix_gives_the_reference_vector(self):
        # output t of the stream with state s is mix(s + t * gamma)
        steps = np.arange(1, 6, dtype=np.uint64)
        assert _mix(np.uint64(1234567) + steps * search._GOLDEN).tolist() == PUBLISHED

    def test_randbelow_range_and_determinism(self):
        g1, g2 = SplitMix64(99), SplitMix64(99)
        seq1 = [g1.randbelow(7) for _ in range(200)]
        seq2 = [g2.randbelow(7) for _ in range(200)]
        assert seq1 == seq2
        assert set(seq1) <= set(range(7))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**32 + 5, 2**63 + 1])
    def test_randbelow_matches_rejection_reference(self, n):
        # reject the top 2^64 mod n outputs, so that every residue mod n is
        # equally likely, and draw again; at n = 2^63 + 1 that is half of them
        g, ref = SplitMix64(2024), SplitMix64(2024)
        rejected = 0
        for _ in range(200):
            while True:
                v = ref.next_u64()
                if v < 2**64 - 2**64 % n:
                    break
                rejected += 1
            assert g.randbelow(n) == v % n
            assert g.state == ref.state  # the same number of outputs consumed
        assert (rejected > 50) == (n == 2**63 + 1)

    def test_streams_differ_by_restart(self):
        a = restart_stream(1, 0).next_u64()
        b = restart_stream(1, 1).next_u64()
        assert a != b

    # only the low 64 bits of a seed count: 2^64 + 1 is seed 1
    @pytest.mark.parametrize("seed", [1, -1, 0, 2**64 + 1, 10**23])
    def test_states_match_restart_stream(self, seed):
        streams = _Streams(seed, 3, 40, 100)
        assert streams.states.tolist() == [restart_stream(seed, r).state for r in range(3, 40)]

    # at m = 2^63 + 1 about half of all outputs are rejected, at m = 2^64 - 1
    # no output is below the acceptance line, and at m = 1 every one is
    @pytest.mark.parametrize("m", [2**63 + 1, 2**64 - 1, 1])
    def test_draws_match_randbelow(self, m):
        refs = [restart_stream(7, r) for r in range(3)]
        streams = _Streams(7, 0, 3, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):  # blocks of 16, 32 and 64 columns
                assert streams.draw([0, 1, 2], [m] * 3, [0, 10, 20]) == [
                    s + ref.randbelow(m) for s, ref in zip((0, 10, 20), refs)
                ]
                for r, ref in enumerate(refs):  # the same number of outputs consumed
                    read = int(streams.next[r]) - 1 - (len(streams.rows[r]) - streams.pos)
                    assert ref.state == (int(streams.states[r]) + read * GOLDEN) & MASK
        assert (read > 150) == (m == 2**63 + 1)

    def test_restarts_leave_a_block_at_different_steps(self):
        # restarts 0 and 2 stop after one and after nine draws; the others
        # read on into their second block
        refs = [restart_stream(3, r) for r in range(4)]
        streams = _Streams(3, 0, 4, 1000)
        for step in range(30):
            owner = [r for r in range(4) if not (r == 0 and step) and not (r == 2 and step > 8)]
            counts = [5 + r for r in owner]
            assert streams.draw(owner, counts, [0] * len(owner)) == [
                refs[r].randbelow(m) for r, m in zip(owner, counts)
            ]


def decoded_candidates(params):
    """The candidates as a (N, n) symbol array, decoded from the packed builder."""
    return _unpack_words(packed_candidates(params), params.q, params.n)


# reference: the per-word loop the packed builder replaced


def reference_candidate_words(params):
    q, n = params.q, params.n
    rows = []
    for w in sorted({params.d, params.d2}):
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, q), repeat=w):
                word = [0] * n
                for pos, val in zip(support, values):
                    word[pos] = val
                rows.append(word)
    return np.array(rows, dtype=np.min_scalar_type(q - 1)).reshape(-1, n)


class TestCandidates:
    @pytest.mark.parametrize(
        "q,n,d,delta",
        small_instances((2, 3, 4, 5, 7), 6, 2000) + [
            # the benchmark's greedy cases other than (4, 6, 4, 2), which is above
            (3, 9, 6, 3), (2, 16, 8, 4), (2, 16, 6, 4), (3, 10, 6, 3),
            # long words, many supports, wide alphabets
            (9, 10, 2, 1), (2, 70, 1, 1), (3, 40, 2, 1), (2, 30, 3, 1), (257, 2, 1, 1),
            # supports of one position (w = 1) and of every one (w = n)
            (2, 8, 1, 7),
            # 66-bit words: two limbs, the first holding only two bits
            (4, 22, 2, 1),
        ],
    )
    def test_matches_reference_loop(self, q, n, d, delta):
        params = P(q, n, d, delta)
        packed, ref = packed_candidates(params), _pack_words(reference_candidate_words(params), q)
        assert packed.dtype == ref.dtype and packed.shape == ref.shape
        assert packed.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "q,n,d,delta", [(2, 8, 4, 2), (3, 6, 4, 2), (4, 22, 2, 1), (2, 8, 1, 7)]
    )
    def test_first_word_is_the_start_word(self, q, n, d, delta):
        first = decoded_candidates(P(q, n, d, delta))[0]
        assert first.tolist() == [1] * d + [0] * (n - d)

    # d + delta near n: without pruning, the weights near n/2 on the way
    # would hold C(60, 30) words
    @pytest.mark.parametrize("q,n,d,delta", [(2, 60, 1, 59), (2, 40, 2, 37)])
    def test_far_weights_stay_small(self, q, n, d, delta):
        params = P(q, n, d, delta)
        tracemalloc.start()
        try:
            packed = packed_candidates(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert packed.shape == (1, candidate_count(params))
        assert packed.tobytes() == _pack_words(reference_candidate_words(params), q).tobytes()

    def test_alphabet_above_256(self):
        words = decoded_candidates(P(257, 2, 1, 1))
        assert words.dtype == np.uint16 and int(words.max()) == 256
        assert len(np.unique(words, axis=0)) == len(words) == 257**2 - 1

    def test_count_matches_enumeration(self):
        params = P(3, 5, 2, 1)
        assert candidate_count(params) == packed_candidates(params).shape[1]

    def test_equal_distance_pair_counted_once(self):
        # d == d+delta impossible, but d and d2 may coincide in weight sets
        params = P(2, 6, 2, 2)
        assert candidate_count(params) == 15 + 15


class TestConfig:
    @pytest.mark.parametrize("stop_at", [0, -3])
    def test_stop_at_below_one_refused(self, stop_at):
        with pytest.raises(ValueError, match="stop_at must be at least 1"):
            SearchConfig(seed=1, stop_at=stop_at)

    def test_restarts_below_one_refused(self):
        with pytest.raises(ValueError, match="^restarts must be at least 1$"):
            SearchConfig(seed=1, restarts=0)


class TestGreedy:
    def test_reaches_known_optimum_quickly(self):
        res = random_greedy(P(2, 8, 4, 4), SearchConfig(seed=1, restarts=200, stop_at=16))
        assert res.size == 16 and res.report.ok

    def test_deterministic(self):
        cfg = SearchConfig(seed=5, restarts=50)
        r1 = random_greedy(P(2, 8, 4, 4), cfg)
        r2 = random_greedy(P(2, 8, 4, 4), cfg)
        assert r1.code == r2.code and r1.restart_index == r2.restart_index

    def test_result_always_verified(self):
        res = random_greedy(P(2, 6, 2, 2), SearchConfig(seed=3, restarts=10))
        assert res.report.ok or res.report.equidistant
        assert set(res.report.observed) <= {2, 4}
        assert res.code.words[0] == (0,) * 6

    def test_candidate_cap_refused(self):
        assert candidate_count(P(2, 20, 8, 2)) == 310_726 > MAX_CANDIDATES
        with pytest.raises(ValueError, match="above the cap 200000"):
            random_greedy(P(2, 20, 8, 2), SearchConfig(seed=1, restarts=1))

    def test_stop_at_halts_early(self):
        res = random_greedy(
            P(2, 8, 4, 4), SearchConfig(seed=1, restarts=10_000, stop_at=16)
        )
        assert res.restarts_run < 10_000


# reference: the greedy loop the live-row filter replaced.  Each restart
# keeps a mask over all candidates and ANDs in a row of the adjacency
# matrix, or above 8192 candidates a full distance pass, per pick.


def reference_random_greedy(params, cfgs):
    """(sorted words, restart_index, restarts_run) of the best restart, per config."""
    cands = reference_candidate_words(params)
    good = {params.d, params.d2}
    good_arr = np.array(sorted(good))
    n = params.n
    base_mask = np.isin((cands != cands[0]).sum(axis=1), good_arr)
    use_matrix = len(cands) <= 8192
    adj = reference_adjacency(cands, good) if use_matrix else None
    results = []
    for cfg in cfgs:
        best_words, best_restart, restarts_run = None, 0, 0
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
                    compat &= np.isin((cands != cands[pick]).sum(axis=1), good_arr)
            words = [tuple([0] * n), tuple(int(x) for x in cands[0])]
            words += [tuple(int(x) for x in cands[i]) for i in chosen]
            words.sort()
            if best_words is None or len(words) > len(best_words) or (
                len(words) == len(best_words) and words < best_words
            ):
                best_words, best_restart = words, restart
            if cfg.stop_at is not None and len(best_words) >= cfg.stop_at:
                break
        results.append((tuple(best_words), best_restart, restarts_run))
    return results


def assert_greedy_matches_reference(params, *cfgs):
    results = [random_greedy(params, cfg) for cfg in cfgs]
    assert [
        (res.code.words, res.restart_index, res.restarts_run) for res in results
    ] == reference_random_greedy(params, cfgs)
    return results


class TestGreedyReference:
    # the five benchmark greedy cases with fewer restarts, seeds 1 and 2
    # sharing one reference adjacency matrix
    @pytest.mark.parametrize(
        "q,n,d,delta,restarts",
        [(3, 9, 6, 3, 5), (4, 6, 4, 2, 10), (2, 16, 8, 4, 3), (2, 16, 6, 4, 3), (3, 10, 6, 3, 2)],
    )
    def test_workload_cases(self, q, n, d, delta, restarts):
        assert_greedy_matches_reference(
            P(q, n, d, delta), *(SearchConfig(seed=s, restarts=restarts) for s in (1, 2))
        )

    def test_large_candidate_space(self):
        # 62,322 candidates
        assert_greedy_matches_reference(P(2, 18, 8, 4), SearchConfig(seed=1, restarts=1))

    @pytest.mark.parametrize("q,n,d,delta", small_instances((2, 3, 4), 7, 150))
    def test_small_sweep(self, q, n, d, delta):
        assert_greedy_matches_reference(P(q, n, d, delta), SearchConfig(seed=q + n, restarts=30))

    # words wider than one 64-bit limb: 66, 150, 70 and 124 bits, with
    # coordinates straddling limbs at q = 4, 9 and 17
    @pytest.mark.parametrize(
        "q,n,d,delta,restarts",
        [(4, 22, 2, 1, 2), (9, 10, 2, 1, 3), (2, 70, 1, 1, 5), (17, 4, 2, 1, 3)],
    )
    def test_above_one_limb(self, q, n, d, delta, restarts):
        assert_greedy_matches_reference(P(q, n, d, delta), SearchConfig(seed=1, restarts=restarts))

    def test_stop_at(self):
        [res] = assert_greedy_matches_reference(
            P(2, 8, 4, 4), SearchConfig(seed=3, restarts=500, stop_at=16)
        )
        assert res.size == 16 and res.restarts_run < 500

    # up to 77 picks a restart, read from blocks of 16, 32 and 64 outputs;
    # only the low 64 bits of a seed count, so 2^64 + 1 runs as seed 1
    @pytest.mark.parametrize("seed", [-1, 0, 2**64 + 1, 10**23])
    def test_runs_longer_than_a_block(self, seed):
        [res] = assert_greedy_matches_reference(P(2, 13, 2, 2), SearchConfig(seed=seed, restarts=3))
        assert res.size - 2 > search._FIRST_BLOCK

    def test_no_overflow_warning(self):
        # numpy warns on uint64 scalar overflow, never on arrays
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_greedy_matches_reference(P(3, 9, 6, 3), SearchConfig(seed=-1, restarts=5))


class TestLockstep:
    """Restarts run side by side in chunks; every result is still the reference's."""

    @staticmethod
    def restarts_per_chunk(monkeypatch, params, restarts):
        """Cap the live rows so that a chunk holds `restarts` restarts."""
        good = _good_popcounts(params)
        packed = packed_candidates(params)
        base = int(search._compatible(packed, packed[:, 0], good).sum())
        monkeypatch.setattr(search, "_CHUNK_ROWS", restarts * base)

    def test_restarts_span_chunks(self, monkeypatch):
        params = P(2, 8, 4, 2)
        self.restarts_per_chunk(monkeypatch, params, 3)
        # chunks of 3, 3, 3 and 1 restarts; one restart alone
        assert_greedy_matches_reference(
            params, SearchConfig(seed=1, restarts=10), SearchConfig(seed=2, restarts=1)
        )

    def test_stop_at_inside_and_at_the_end_of_a_chunk(self, monkeypatch):
        params = P(2, 8, 4, 2)
        self.restarts_per_chunk(monkeypatch, params, 3)
        # with stop_at the chunks hold 1, 2, 3, 3, ... restarts, so they end
        # after restarts 1, 3, 6, 9, 12, 15, ...: seeds 1 and 11 stop on a
        # chunk's last restart, seeds 5 and 9 on the first of three
        results = assert_greedy_matches_reference(
            params, *(SearchConfig(seed=s, restarts=40, stop_at=10) for s in (1, 11, 5, 9))
        )
        assert [res.restarts_run for res in results] == [6, 15, 7, 13]

    def test_words_above_one_limb(self, monkeypatch):
        # 150-bit words in three limbs, two restarts per chunk
        params = P(9, 10, 2, 1)
        self.restarts_per_chunk(monkeypatch, params, 2)
        assert_greedy_matches_reference(
            params, SearchConfig(seed=1, restarts=3), SearchConfig(seed=10, restarts=3, stop_at=72)
        )

    def test_stream_outputs_stay_bounded(self):
        # 37 base rows, so a chunk runs 1,771 restarts side by side; its
        # blocks hold at most 2^16 outputs, about 3.4 MB with their Python
        # ints, where all 5,000 restarts' outputs up to 37 steps would be
        # about 9 MB
        params = P(2, 8, 4, 4)
        random_greedy(params, SearchConfig(seed=1, restarts=1))
        tracemalloc.start()
        try:
            res = random_greedy(params, SearchConfig(seed=1, restarts=5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert res.size == 16 and res.restarts_run == 5000

    @pytest.mark.parametrize("stop_at", [None, 2])
    def test_no_candidate_fits_the_start_word(self, stop_at):
        # the weight-1 words and 111 are all at distance 2 from 100
        res = random_greedy(P(2, 3, 1, 2), SearchConfig(seed=1, restarts=3, stop_at=stop_at))
        assert res.code.words == ((0, 0, 0), (1, 0, 0))
        assert res.report.equidistant and res.restart_index == 0
        assert res.restarts_run == (3 if stop_at is None else 1)


# reference: the clique search on the whole compatibility graph, which the
# symmetry-broken oracle replaced


def clique_number(adj, p_mask):
    """Clique number of the subgraph on p_mask, by the oracle's branch and bound."""
    nonadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    return _expand(adj, nonadj, 0, p_mask, 0, math.inf)


def reference_exhaustive_maximum(params):
    cands = reference_candidate_words(params)
    adj = _pack(reference_adjacency(cands, {params.d, params.d2}))
    return 1 + clique_number(adj, (1 << len(adj)) - 1)


class TestOracle:
    # the whole-graph reference stays fast up to about 160 candidates
    @pytest.mark.parametrize("q,n,d,delta", small_instances((2, 3, 4), 10, 160))
    def test_matches_whole_graph_reference(self, q, n, d, delta):
        params = P(q, n, d, delta)
        assert exhaustive_maximum(params) == reference_exhaustive_maximum(params)

    @pytest.mark.parametrize(
        "params,value",
        [
            ((2, 11, 6, 4), 12),
            ((2, 10, 2, 4), 10),
            ((4, 6, 4, 2), 64),
            ((2, 9, 4, 2), 16),
            ((2, 10, 4, 2), 16),
            ((4, 5, 3, 1), 16),
            ((3, 7, 4, 2), 19),
        ],
    )
    def test_recorded_values(self, params, value):
        assert exhaustive_maximum(P(*params)) == value

    def test_counts_one_distance_codes(self):
        # exact values of special_values count codes realising both
        # distances; the oracle also counts codes with one of them
        equidistant = np.array(
            [[int(c) for c in w] for w in (
                "0000000000", "1111110000", "1110001110",
                "1001101101", "0101011011", "0010110111",
            )]
        )
        dist = (equidistant[:, None, :] != equidistant[None, :, :]).sum(axis=2)
        assert set(dist[np.triu_indices(6, 1)]) == {6}
        for params, exact, value in (((2, 10, 3, 3), 4, 6), ((3, 4, 1, 2), 6, 9)):
            status = best_upper_bound(P(*params)).status
            assert (status.kind, status.hi) == ("exact", exact)
            assert exhaustive_maximum(P(*params)) == value

    def test_small_exact_values(self):
        assert exhaustive_maximum(P(2, 4, 2, 2)) == 8
        assert exhaustive_maximum(P(2, 5, 2, 2)) == 16

    def test_resolves_medium_instance(self):
        value = exhaustive_maximum(P(2, 7, 2, 2))
        assert value == 22

    def test_oracle_dominates_greedy(self):
        params = P(2, 6, 2, 2)
        exact = exhaustive_maximum(params)
        greedy = random_greedy(params, SearchConfig(seed=2, restarts=300))
        assert exact >= greedy.size

    def test_padding_monotonicity(self):
        assert exhaustive_maximum(P(2, 5, 2, 2)) >= exhaustive_maximum(P(2, 4, 2, 2))

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError, match="limit"):
            exhaustive_maximum(P(2, 16, 10, 2), max_vertices=100)

    def test_negative_limit_refused(self):
        with pytest.raises(ValueError, match="must not be negative"):
            exhaustive_maximum(P(2, 5, 2, 2), max_vertices=-1)


def trace_oracle(monkeypatch, params):
    """Oracle value plus (best in, stop, best out) of each neighbourhood search."""
    calls = []
    inner = search._orbit_clique

    def recording(near, limbs, good, w, best, stop):
        out = inner(near, limbs, good, w, best, stop)
        calls.append((best, stop, out))
        return out

    monkeypatch.setattr(search, "_orbit_clique", recording)
    return exhaustive_maximum(params), calls


class TestOracleStop:
    """The oracle stops once a code reaches a range upper bound, and only then."""

    # the weight-(d+delta) neighbourhood of v is searched first, then N(u);
    # in the first two cells the largest catalog code is below the bound,
    # so the search runs from it: best in = its size - 2

    def test_stop_in_first_neighbourhood(self, monkeypatch):
        value, calls = trace_oracle(monkeypatch, P(3, 4, 2, 2))
        assert best_upper_bound(P(3, 4, 2, 2)).status.kind == "range"
        assert value == 9 == best_upper_bound(P(3, 4, 2, 2)).best
        # the stop is reached in N(v), so N(u) is never searched
        ((seed, stop, first),) = calls
        assert seed == search._catalog_size(P(3, 4, 2, 2)) - 2 == 5
        assert first == stop == 7

    def test_stop_in_first_neighbourhood_builds_one_graph(self, monkeypatch):
        # the search on N(v) reaches the stop, so the graph of N(u) is never built
        calls = []
        inner = search._neighbour_sets

        def counting(limbs, good):
            calls.append(limbs.shape[1])
            return inner(limbs, good)

        monkeypatch.setattr(search, "_neighbour_sets", counting)
        assert exhaustive_maximum(P(3, 4, 2, 2)) == 9
        assert len(calls) == 1

    def test_stop_in_first_neighbourhood_decodes_one(self, monkeypatch):
        # N(u) is neither compressed nor decoded once N(v) reaches the stop
        calls = []
        inner = search._unpack_words

        def counting(packed, q, n):
            calls.append(packed.shape[1])
            return inner(packed, q, n)

        monkeypatch.setattr(search, "_unpack_words", counting)
        assert exhaustive_maximum(P(3, 4, 2, 2)) == 9
        assert len(calls) == 1

    def test_stop_in_second_neighbourhood(self, monkeypatch):
        value, calls = trace_oracle(monkeypatch, P(2, 5, 2, 2))
        assert value == 16 == best_upper_bound(P(2, 5, 2, 2)).best
        (seed, stop, first), (best, _, second) = calls
        assert seed == search._catalog_size(P(2, 5, 2, 2)) - 2 == 9
        assert first < stop and best == first and second == stop == 14

    def test_no_stop_below_the_bound(self, monkeypatch):
        value, calls = trace_oracle(monkeypatch, P(2, 8, 4, 2))
        assert value == 10 < best_upper_bound(P(2, 8, 4, 2)).best
        assert [stop for _, stop, _ in calls] == [10, 10]
        assert calls[1][0] == calls[0][2] < calls[1][2] == 8

    @pytest.mark.parametrize(
        "params,kind,value",
        [
            ((2, 10, 3, 3), "exact", 6),
            ((3, 4, 1, 2), "exact", 9),
            ((2, 7, 4, 3), "not_well_defined", 8),  # the [7,3,4] simplex code
        ],
    )
    def test_no_stop_without_range_bound(self, monkeypatch, params, kind, value):
        assert best_upper_bound(P(*params)).status.kind == kind
        got, calls = trace_oracle(monkeypatch, P(*params))
        assert got == value == reference_exhaustive_maximum(P(*params))
        assert [stop for _, stop, _ in calls] == [math.inf, math.inf]


class TestOracleSeed:
    """The oracle starts from the largest catalog code, and returns it once it meets the bound."""

    @pytest.mark.parametrize(
        "params,value", [((2, 10, 4, 4), 16), ((4, 6, 4, 2), 64), ((4, 5, 3, 1), 16)]
    )
    def test_settled_cells_build_nothing(self, monkeypatch, params, value):
        def refuse(params):
            raise AssertionError("a settled cell built its candidates")

        monkeypatch.setattr(search, "packed_candidates", refuse)
        assert exhaustive_maximum(P(*params)) == value

    def test_seed_below_the_bound_still_searches(self, monkeypatch):
        # the catalog's 7 words are the value, but one below the bound 8:
        # only the search can show that no eighth word fits
        value, calls = trace_oracle(monkeypatch, P(2, 6, 2, 3))
        assert value == search._catalog_size(P(2, 6, 2, 3)) == 7
        assert best_upper_bound(P(2, 6, 2, 3)).best == 8
        assert [(best, stop) for best, stop, _ in calls] == [(5, 6), (5, 6)]

    def test_cap_comes_first(self):
        assert search._catalog_size(P(4, 6, 4, 2)) == 64 == best_upper_bound(P(4, 6, 4, 2)).best
        with pytest.raises(ValueError, match="limit"):
            exhaustive_maximum(P(4, 6, 4, 2), max_vertices=100)

    def test_seed_never_changes_a_value(self, monkeypatch):
        # also catches a catalog entry that claims more words than exist
        cells = [c for c in small_instances((2, 3, 4), 24, 300) if c[0] * c[1] < 50]
        seeded = [exhaustive_maximum(P(*c)) for c in cells]
        monkeypatch.setattr(search, "_catalog_size", lambda params: 0)
        unseeded = [exhaustive_maximum(P(*c)) for c in cells]
        assert len(cells) == 372
        assert [c for c, a, b in zip(cells, seeded, unseeded) if a != b] == []


def distances_to(words, word):
    return (words != word).sum(axis=1)


def good_distances(params):
    """Lookup table over distances 0..n: True exactly at d and d+delta."""
    return np.isin(np.arange(params.n + 1), (params.d, params.d2))


def packed_adjacency(words, params):
    """The oracle's neighbour bitsets of `words`, computed from their packed form."""
    return _neighbour_sets(_pack_words(words, params.q), _good_popcounts(params))


def stabiliser_map(words, perm, symbols):
    """Apply a monomial map: coordinate i of the image is symbols[i][word[perm[i]]]."""
    return np.stack([symbols[i][words[:, perm[i]]] for i in range(len(perm))], axis=1)


def random_stabiliser(rng, q, n, w):
    """A random monomial map fixing 0 and 1^w 0^(n-w)."""
    perm = np.concatenate([rng.permutation(w), w + rng.permutation(n - w)])
    symbols = []
    for i in range(n):
        fixed = 2 if i < w else 1  # 0 always, and 1 on the support
        symbols.append(np.concatenate([np.arange(fixed), fixed + rng.permutation(q - fixed)]))
    return perm, symbols


def map_onto(word, target, q, w):
    """A monomial map fixing 0 and 1^w 0^(n-w) that sends `word` to `target`.

    Coordinates of the same class (on the support: 1, 0, other; off it:
    0, nonzero) are matched in order, and the symbols of a matched pair
    swapped, which fixes 0 and, on the support, 1.
    """
    n = len(word)
    perm = np.empty(n, dtype=int)
    symbols = [np.arange(q) for _ in range(n)]
    on_support = (lambda x: x == 1, lambda x: x == 0, lambda x: x > 1)
    off_support = (lambda x: x == 0, lambda x: x > 0)
    for lo, hi, classes in ((0, w, on_support), (w, n, off_support)):
        for in_class in classes:
            src = [i for i in range(lo, hi) if in_class(word[i])]
            dst = [i for i in range(lo, hi) if in_class(target[i])]
            assert len(src) == len(dst)
            for i, j in zip(dst, src):
                perm[i] = j
                a, b = word[j], target[i]
                symbols[i][[a, b]] = symbols[i][[b, a]]
    return perm, symbols


class TestOrbits:
    @pytest.mark.parametrize("q,n,d,delta", [(2, 9, 4, 2), (3, 6, 4, 2), (4, 5, 3, 1), (3, 7, 2, 3)])
    def test_stabiliser_keeps_keys_and_neighbourhood(self, q, n, d, delta):
        params = P(q, n, d, delta)
        cands = decoded_candidates(params)
        good = good_distances(params)
        rng = np.random.default_rng(7)
        for centre in (cands[0], cands[math.comb(n, d) * (q - 1) ** d]):  # u and v
            w = int((centre != 0).sum())
            keys = _orbit_keys(cands, w)
            near = {tuple(r) for r in cands[good[distances_to(cands, centre)]]}
            for _ in range(20):
                perm, symbols = random_stabiliser(rng, q, n, w)
                image = stabiliser_map(cands, perm, symbols)
                assert np.array_equal(stabiliser_map(centre[None], perm, symbols)[0], centre)
                assert np.array_equal(_orbit_keys(image, w), keys)
                assert {tuple(r) for r in image[good[distances_to(image, centre)]]} == near

    @pytest.mark.parametrize("q,n,d,delta", [(2, 9, 4, 2), (3, 6, 4, 2), (4, 5, 3, 1)])
    def test_each_key_is_one_orbit(self, q, n, d, delta):
        params = P(q, n, d, delta)
        cands = decoded_candidates(params)
        heavy = cands[math.comb(n, d) * (q - 1) ** d :]
        good = good_distances(params)
        for words, centre in ((cands, cands[0]), (heavy, heavy[0])):
            w = int((centre != 0).sum())
            near = words[good[distances_to(words, centre)]]
            orbits = _orbits(near, packed_adjacency(near, params), w)
            union = 0
            for _, members in orbits:
                assert not union & members
                union |= members
            assert union == (1 << len(near)) - 1
            adj_bool = reference_adjacency(near, {d, d + delta})
            degrees = [adj_bool[rep].sum() for rep, _ in orbits]
            assert degrees == sorted(degrees, reverse=True)
            for rep, members in orbits:
                for i in range(len(near)):
                    if members >> i & 1:
                        perm, symbols = map_onto(near[i], near[rep], q, w)
                        image = stabiliser_map(np.stack([near[i], centre]), perm, symbols)
                        assert np.array_equal(image, np.stack([near[rep], centre]))

    def test_searched_orbits_stay_deleted(self, monkeypatch):
        params = P(2, 8, 4, 2)
        cands = decoded_candidates(params)
        good = good_distances(params)
        centre = cands[0]
        masks, nonadjs = [], []
        inner = search._expand

        def recording(adj, nonadj, size, p_mask, best, stop):
            if size == 0:  # one search per orbit; deeper calls are its branches
                masks.append(p_mask)
                nonadjs.append(nonadj)
            return inner(adj, nonadj, size, p_mask, best, stop)

        monkeypatch.setattr(search, "_expand", recording)
        near = cands[good[distances_to(cands, centre)]]
        limbs = _pack_words(near, 2)
        assert search._orbit_clique(near, limbs, _good_popcounts(params), 4, 0, math.inf) == 8
        adj = packed_adjacency(near, params)
        orbits = _orbits(near, adj, 4)
        searched = 0
        assert len(orbits) > 2
        assert len(masks) == len(orbits)  # no stop, so every orbit is searched
        for (rep, members), mask in zip(orbits, masks):
            assert mask == adj[rep] & ~searched
            searched |= members
        assert any(adj[rep] & ~mask for (rep, _), mask in zip(orbits, masks))
        # the non-neighbour masks are built once for the whole neighbourhood
        assert all(nonadj is nonadjs[0] for nonadj in nonadjs)
        assert nonadjs[0] == [~(row | 1 << v) for v, row in enumerate(adj)]


# references: the broadcast distance code the shared kernel replaced


def reference_adjacency(cands, good):
    m = len(cands)
    adj = np.zeros((m, m), dtype=bool)
    block = max(1, (1 << 24) // max(1, m * cands.shape[1]))
    good_arr = np.array(sorted(good))
    for start in range(0, m, block):
        stop = min(m, start + block)
        dist = (cands[start:stop, None, :] != cands[None, :, :]).sum(axis=2)
        adj[start:stop] = np.isin(dist, good_arr)
    np.fill_diagonal(adj, False)
    return adj


class TestKernel:
    # (9, 3, 2, 1) packs 45 bits in one limb and (17, 3, 1, 1) 93 bits in two
    @pytest.mark.parametrize(
        "q,n,d,delta",
        [(2, 8, 4, 2), (2, 10, 4, 4), (2, 13, 2, 2), (3, 6, 4, 2), (4, 6, 4, 2), (9, 3, 2, 1),
         (17, 3, 1, 1)],
    )
    def test_adjacency_matches_reference(self, q, n, d, delta):
        params = P(q, n, d, delta)
        cands = decoded_candidates(params)
        assert packed_adjacency(cands, params) == _pack(reference_adjacency(cands, {d, d + delta}))

    # 44 words: one row per block, or six rows per block and two in the last
    @pytest.mark.parametrize("block_pairs", [1, 300])
    def test_blocks_match_reference(self, monkeypatch, block_pairs):
        monkeypatch.setattr(search, "_BLOCK_PAIRS", block_pairs)
        params = P(3, 6, 4, 2)
        cands = decoded_candidates(params)[::7]
        assert packed_adjacency(cands, params) == _pack(reference_adjacency(cands, {4, 6}))

    def test_memory_stays_bounded(self):
        # 2,000 words broadcast in one block would hold a 32 MB uint64 XOR
        params = P(2, 13, 2, 2)
        words = (np.arange(2000)[:, None] >> np.arange(12, -1, -1) & 1).astype(np.uint8)
        limbs, good = _pack_words(words, 2), _good_popcounts(params)
        tracemalloc.start()
        try:
            adj = _neighbour_sets(limbs, good)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert adj == _pack(reference_adjacency(words, {2, 4}))


# reference: the coloring loop before the non-neighbour masks


def reference_greedy_color_order(p_mask, adj):
    order, bounds = [], []
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


@st.composite
def graphs(draw, max_vertices=40):
    """(p_mask, adjacency bitsets) of a random simple graph."""
    m = draw(st.integers(0, max_vertices))
    pairs = m * (m - 1) // 2
    edges = draw(st.integers(0, 2**pairs - 1))  # bit i: is the i-th pair an edge
    adj_bool = np.zeros((m, m), dtype=bool)
    adj_bool[np.triu_indices(m, 1)] = [edges >> i & 1 for i in range(pairs)]
    adj_bool |= adj_bool.T
    return draw(st.integers(0, 2**m - 1)), _pack(adj_bool)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_coloring_matches_reference_loop(graph):
    p_mask, adj = graph
    nonadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    assert _greedy_color_order(p_mask, nonadj, 1) == reference_greedy_color_order(p_mask, adj)


@given(graphs(max_vertices=12))
@settings(max_examples=100, deadline=None)
def test_max_clique_matches_brute_force(graph):
    p_mask, adj = graph
    vertices = [v for v in range(len(adj)) if p_mask >> v & 1]
    brute_force = max(
        size
        for size in range(len(vertices) + 1)
        for clique in itertools.combinations(vertices, size)
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
    )
    assert clique_number(adj, p_mask) == brute_force
