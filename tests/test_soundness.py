"""One soundness sweep: no upper bound falls below a code the library finds.

Over the paper's range (q in {2, 3, 4}, qn < 50, every delta: 3,266
cells) every `best_upper_bound` entry is checked against every witness
that it must hold for:

- the sizes of the catalog's two-distance codes (`two_distance_lower_bounds`);
- the catalog's equidistant codes at distance d and at d + delta;
- the code of `random_greedy` (seed 1, 20 restarts), on cells of at most
  GREEDY_MAX candidate words;
- the value of `exhaustive_maximum`, on cells of at most ORACLE_MAX
  candidate words.

An exact status describes codes that realise both distances, so it is
checked only against two-distance witnesses: the catalog entries and a
greedy code whose report is ok.  `gr` holds only for antipodal codes, so
it is checked only against the dm code at its own length n = q * delta
(a dm code padded with zero columns is not antipodal).  Every other
entry bounds a range, which `search._proven_bound` hands to the oracle
as its stop, so it must hold for codes with one distance too and takes
every witness.  A new upper method is covered with no new test code.
"""
from test_paper_range import paper_range_specs

from twodist import bounds
from twodist.bounds import best_upper_bound
from twodist.constructions import equidistant_lower_bound, two_distance_lower_bounds
from twodist.core import TwoDistParams
from twodist.search import SearchConfig, candidate_count, exhaustive_maximum, random_greedy

GREEDY_MAX = 20_000
ORACLE_MAX = 300
GREEDY = SearchConfig(seed=1, restarts=20)


def paper_range_params():
    for spec in paper_range_specs():
        for n in range(spec.n_min, spec.n_max + 1):
            for d in range(1, n - spec.delta + 1):
                yield TwoDistParams(spec.q, n, d, spec.delta)


def witnesses(params: TwoDistParams) -> list[tuple[str, int, bool]]:
    """(name, size, realises both distances) of every code found for the cell."""
    q, n, d, delta = params.q, params.n, params.d, params.delta
    found = [(entry.family, entry.size, True) for entry in two_distance_lower_bounds(params)]
    for distance in (d, d + delta):
        entry = equidistant_lower_bound(q, n, distance)
        if entry is not None:
            found.append((f"equidistant {entry.family} at {distance}", entry.size, False))
    candidates = candidate_count(params)
    if candidates <= GREEDY_MAX:
        result = random_greedy(params, GREEDY)
        found.append(("greedy", result.size, result.report.ok))
    if candidates <= ORACLE_MAX:
        found.append(("oracle", exhaustive_maximum(params, ORACLE_MAX), False))
    return found


def sweep(cells) -> tuple[int, list[tuple]]:
    """(pairs checked, violations) over the cells.

    A violation is (params, method, bound, witness, witness size).
    """
    pairs, violations = 0, []
    for params in cells:
        report = best_upper_bound(params)
        if report.status.kind == "not_well_defined":
            continue
        if report.status.kind == "exact":
            entries = [("exact", report.status.hi)]
        else:
            entries = [(e.method, e.value) for e in report.entries if e.value is not None]
        found = witnesses(params)
        for method, value in entries:
            for name, size, both in found:
                if method == "exact" and not both:
                    continue
                if method == "gr" and not (name == "dm" and params.n == params.q * params.delta):
                    continue
                pairs += 1
                if size > value:
                    violations.append((params, method, value, name, size))
    return pairs, violations


def test_no_bound_falls_below_a_witness():
    pairs, violations = sweep(paper_range_params())
    assert violations == []
    assert pairs > 10_000


def test_sweep_reports_a_broken_bound(monkeypatch):
    # the dm code D(2, 2^2) has 16 words at distances 4 and 8 in length 8
    broken = TwoDistParams(2, 8, 4, 4)
    plotkin = bounds.plotkin_bound
    monkeypatch.setattr(
        bounds, "plotkin_bound", lambda params: 15 if params == broken else plotkin(params)
    )
    cells = [TwoDistParams(2, 8, d, 4) for d in range(1, 5)]
    _, violations = sweep(cells)
    assert (broken, "plotkin", 15, "dm", 16) in violations
    assert {(v[0], v[1]) for v in violations} == {(broken, "plotkin")}
