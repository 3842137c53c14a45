"""The three benchmark workloads: table sweep, code search, code verification.

A workload turns a seed into a sequence of rounds; a round is a list of
items (a table grid, a search instance, a catalog code).  Every round of a
workload carries the same mix of work, so a run that stops after any whole
round has measured that mix whatever the seed; the seed picks the concrete
inputs inside it.  Ops are timed by a `timing.Recorder`; each workload
checks its outputs after a round, outside the timed region, and returns how
many ops failed.

Library calls go through module attributes (`tables.compute_cell`, not a
name bound at import) so the tracer can wrap them as the library's own
modules see them.
"""
from __future__ import annotations

import dataclasses
import math
import random
import sys
import traceback
from contextlib import contextmanager

from twodist import constructions, core, feasibility, search, tables
from twodist.bounds import best_upper_bound
from twodist.core import TwoDistParams
from twodist.fields import GF

from timing import Recorder, numpy_kernel, python_kernel

FORMATS = ("csv", "markdown", "latex", "json")


# ---------------------------------------------------------------------------
# table: every cell of seeded 2x2 grids through compute_cell, then rendered

Q_VALUES = (2, 3, 4, 5, 7, 8, 9)
DELTAS = (1, 2, 3, 4, 5, 6)
N_BANDS = tuple((lo, lo + 1) for lo in range(8, 40, 2))  # n = 8..39
GRID_D = 2  # d values per grid; with 2 rows of n every grid has 4 cells


def grid_cells(spec: tables.TableSpec) -> list[TwoDistParams]:
    """Parameters of the cells of a grid, in the order render_table uses."""
    return [
        TwoDistParams(spec.q, n, d, spec.delta)
        for n in range(spec.n_min, spec.n_max + 1)
        for d in range(spec.d_min, min(spec.d_max, n - spec.delta) + 1)
    ]


def _band_grids(q: int, delta: int, band: tuple[int, int]) -> list[tables.TableSpec]:
    """Full 2x2 grids of one stratum: rows `band`, every d window that fits."""
    lo, hi = band
    return [
        tables.TableSpec(q, delta, lo, hi, d_min, d_min + GRID_D - 1)
        for d_min in range(1, lo - delta - GRID_D + 2, GRID_D)
    ]


@contextmanager
def _served(cells):
    """Let render_table format cells already computed instead of recomputing them."""
    original = tables.table_cells
    tables.table_cells = lambda spec, options=None: cells
    try:
        yield
    finally:
        tables.table_cells = original


def _render_all(spec, cells) -> dict[str, str]:
    with _served(cells):
        return {
            fmt: tables.render_table(dataclasses.replace(spec, fmt=fmt)) for fmt in FORMATS
        }


class TableWorkload:
    """One round is a block: one grid for every (band, q, delta) stratum.

    Cost per cell grows with n and q, and short-circuited cells cost almost
    nothing, so a block fixes how many cells of each n, q and delta are run;
    the seed picks the d window of each stratum (stratified over the
    windows) and the order.  No cell repeats within a run.
    """

    name = "table"
    fields: tuple[int, ...] = ()
    kernel = staticmethod(python_kernel)
    round_s = 28.0  # nominal seconds per round; sizes the traced run

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        bands = N_BANDS[:1] if tiny else N_BANDS
        qs, deltas = (Q_VALUES[:2], DELTAS[:2]) if tiny else (Q_VALUES, DELTAS)
        self.strata = [(band, q, delta) for band in bands for q in qs for delta in deltas]
        self.unused = {s: _band_grids(s[1], s[2], s[0]) for s in self.strata}

    def rounds(self):
        while True:
            order = self.rng.sample(range(len(self.strata)), len(self.strata))
            grids = []
            for stratum, slot in zip(self.strata, order):
                pool = self.unused[stratum]
                if not pool:
                    continue
                pos = (slot + self.rng.random()) / len(self.strata)
                grids.append(pool.pop(int(pos * len(pool))))
            if not grids:
                return
            self.rng.shuffle(grids)
            yield grids

    def run(self, spec, rec: Recorder):
        cells = [rec.op(tables.compute_cell, params) for params in grid_cells(spec)]
        texts = None
        if all(c is not None for c in cells):
            texts = rec.work(_render_all, spec, cells)
        return spec, cells, texts

    def failures(self, record) -> int:
        _, cells, texts = record
        if texts is None:
            return len(cells)
        try:
            bad = _table_mismatches(cells, texts)
        except (ValueError, KeyError, IndexError):
            traceback.print_exc(file=sys.stderr)
            return len(cells)
        return len(bad)


def _unlatex(text: str) -> str:
    return text.replace("$^{", "^").replace("}$", "")


def _table_rows(text: str, sep: str, strip: str) -> dict[int, list[str]]:
    """Rows of a rendered markdown or latex grid, keyed by n."""
    rows = {}
    for line in text.splitlines():
        parts = [p.strip() for p in line.strip().strip(strip).split(sep)]
        if parts and parts[0].isdigit():
            rows[int(parts[0])] = parts[1:]
    return rows


def _csv_bound(bound) -> tuple[str, str]:
    return ("", "") if bound is None else (str(bound.value), bound.tag)


def _table_mismatches(cells, texts) -> set[int]:
    """Indexes of cells whose four renderings disagree or whose bounds cross."""
    bad = set()
    csv_rows = texts["csv"].splitlines()[1:]
    if len(csv_rows) != len(cells):
        return set(range(len(cells)))
    back = tables.cells_from_json(texts["json"])
    md = _table_rows(texts["markdown"], "|", "|")
    tex = _table_rows(texts["latex"].replace("\\\\ \\hline", ""), "&", "")
    d_values = sorted({c.params.d for c in cells})
    for i, cell in enumerate(cells):
        p = cell.params
        # tied upper-bound methods are joined by unquoted commas, so the
        # upper tag is whatever lies between the upper value and the status
        fields = csv_rows[i].split(",")
        got_csv = (*fields[:7], ",".join(fields[7:-1]), fields[-1])
        col = d_values.index(p.d)
        text = tables.cell_text(cell)
        if (
            got_csv != (*map(str, (p.q, p.n, p.d, p.delta)), *_csv_bound(cell.lower),
                        *_csv_bound(cell.upper), cell.status)
            or back[i] != cell
            or md[p.n][col] != text
            or _unlatex(tex[p.n][col]) != text
            or (cell.lower and cell.upper and cell.lower.value > cell.upper.value)
        ):
            bad.add(i)
    return bad


# ---------------------------------------------------------------------------
# search: greedy on both sides of the adjacency-matrix switch, plus oracles

# (q, n, d, delta) and the exact A_q(n, {d, d+delta}).  (2,11,6,4) = 12 and
# (2,10,2,4) = 10 are left out: each takes several times longer than any
# other op, so with two samples a run the 99th percentile would be one of
# them, 20 % apart between runs.
ORACLE_CASES = (
    ((2, 8, 4, 2), 10),
    ((2, 10, 4, 4), 16),
    ((2, 13, 2, 2), 79),
    ((3, 6, 4, 2), 18),
)
# (q, n, d, delta), restarts and runs per round; random_greedy keeps a
# candidate adjacency matrix up to 8192 candidates and computes distances
# per pick above that.  Short runs, repeated with fresh seeds, give the
# latency percentiles many samples.
GREEDY_CASES = (
    ((3, 9, 6, 3), 20, 1),  # 5888 candidates, matrix; building it dominates
    ((4, 6, 4, 2), 50, 2),  # 1944 candidates, matrix
    ((2, 16, 8, 4), 10, 2),  # 14690 candidates, streaming
    ((2, 16, 6, 4), 10, 2),  # 16016 candidates, streaming
    ((3, 10, 6, 3), 4, 2),  # 18560 candidates, streaming
)
TINY_ORACLE = (((3, 6, 4, 2), 18),)
TINY_GREEDY = (((4, 6, 4, 2), 20, 1), ((2, 16, 8, 4), 3, 1))


class SearchWorkload:
    """Every round runs each oracle case once and each greedy case its number of times.

    The seed draws each greedy run's PRNG seed and the order.  Time budgets
    are off, so the work done does not depend on timing.
    """

    name = "search"
    fields: tuple[int, ...] = ()
    kernel = staticmethod(numpy_kernel)  # greedy time is mostly numpy
    round_s = 4.5

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.oracle = TINY_ORACLE if tiny else ORACLE_CASES
        self.greedy = TINY_GREEDY if tiny else GREEDY_CASES
        self._upper: dict[TwoDistParams, int] = {}
        self._greedy_floor: dict[TwoDistParams, int] = {}

    def rounds(self):
        while True:
            items = [("oracle", TwoDistParams(*p), value) for p, value in self.oracle]
            items += [
                ("greedy", TwoDistParams(*p), search.SearchConfig(
                    seed=self.rng.getrandbits(32), restarts=restarts))
                for p, restarts, runs in self.greedy
                for _ in range(runs)
            ]
            self.rng.shuffle(items)
            yield items

    def run(self, item, rec: Recorder):
        kind, params, arg = item
        if kind == "oracle":
            return item, rec.op(search.exhaustive_maximum, params)
        return item, rec.op(search.random_greedy, params, arg)

    def _upper_bound(self, params) -> int:
        if params not in self._upper:
            self._upper[params] = best_upper_bound(params).best
        return self._upper[params]

    def _greedy_size(self, params) -> int:
        if params not in self._greedy_floor:
            cfg = search.SearchConfig(seed=0, restarts=20)
            self._greedy_floor[params] = search.random_greedy(params, cfg).size
        return self._greedy_floor[params]

    def failures(self, record) -> int:
        (kind, params, arg), result = record
        if result is None:
            return 1
        if kind == "oracle":
            ok = arg == result and self._greedy_size(params) <= result <= self._upper_bound(params)
        else:
            ok = (
                result.report.ok
                and result.restarts_run == arg.restarts
                and result.size <= self._upper_bound(params)
            )
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify: build catalog codes and run every verification on them


@dataclasses.dataclass(frozen=True)
class CodeCase:
    """A catalog code with the parameters its family formula claims."""

    family: str
    build: tuple  # (constructions function name, *args); a tuple argument is built first
    q: int
    n: int
    size: int
    distances: tuple[int, ...]
    k: int | None = None  # dimension, for linear families
    s: int | None = None  # maximal column multiplicity, for linear families

    @property
    def linear(self) -> bool:
        return self.k is not None and len(self.distances) == 2

    @property
    def heavy(self) -> bool:
        """Pairwise checks cost about size^2 * n symbol comparisons."""
        return self.size**2 * self.n > 1_000_000


def _dm(p, ell, h):
    q, mu = p**ell, p**h
    return CodeCase("dm", ("dm_code", p, ell, h), q, q * mu, q * q * mu, ((q - 1) * mu, q * mu))


def _simplex(q, m):
    return CodeCase("simplex", ("seed_code", "simplex", q, m), q, (q**m - 1) // (q - 1), q**m,
                    (q ** (m - 1),), k=m, s=1)


def _mds2(q, r):
    return CodeCase("mds2", ("seed_code", "mds2", q, r), q, r, q * q, (r - 1, r), k=2, s=1)


def _su1(q, m, r, s, h, mode):
    top, sub = q ** (m - 1), q ** (r - 1)
    if mode == "remove":
        n, d, mult = (s * (q**m - 1) - h * (q**r - 1)) // (q - 1), s * top - h * sub, s
    else:
        n, d, mult = (s * (q**m - 1) + h * (q**r - 1)) // (q - 1), s * top, s + h
    return CodeCase("su1", ("su1_code", q, m, r, s, h, mode), q, n, q**m, (d, d + h * sub),
                    k=m, s=mult)


def _su2(p, m, r):
    top = p ** (m - 1)
    return CodeCase("su2", ("su2_code", p, m, r), p, r * (p**m - 1) // (p - 1), p ** (2 * m),
                    ((r - 1) * top, r * top), k=2 * m, s=1)


def _arc(q):
    return CodeCase("arc", ("arc_code", q), q, q + 2, q**3, (q, q + 2), k=3, s=1)


def _pencil(q, delta):
    return CodeCase("pencil", ("pencil_code", q, delta), q, q + 1 + delta, q * q,
                    (q, q + delta), k=2, s=delta + 1)


def _complement(case: CodeCase):
    """Complement of a projective two-weight code (s = 1) in PG(k-1, q)."""
    q, k = case.q, case.k
    full = q ** (k - 1)
    w1, w2 = case.distances
    n_c = (q**k - 1) // (q - 1) - case.n
    return CodeCase("complementary", ("complementary_code", case.build), q, n_c, q**k,
                    (full - w2, full - w1), k=k, s=1)


def _small(kind, n, **kw):
    if kind == "weight2":
        size, dist = math.comb(n, 2) + 1, (2, 4)
    elif kind == "bin-2-2d":
        size, dist = n + 1 if n == kw["delta"] + 3 else n, (2, 2 + kw["delta"])
    else:  # disjoint
        size, dist = 1 + n // kw["d"], (kw["d"], 2 * kw["d"])
    return CodeCase(kind, ("small_family_code", kind, n, 2, kw.get("d"), kw.get("delta")),
                    2, n, size, dist)


# 16 to 625 words; per-op cost grows as size^2 * n.  Complements of
# hyperoval codes are left out: gcd_screen rejects them (see README.md).
CODE_CASES = (
    _dm(2, 1, 2), _dm(2, 1, 3), _dm(2, 2, 1), _dm(3, 1, 1), _dm(2, 2, 2), _dm(2, 3, 1),
    _dm(3, 1, 2), _dm(5, 1, 1), _dm(7, 1, 1), _dm(2, 1, 4), _dm(3, 2, 1),
    _simplex(2, 5), _simplex(3, 4), _simplex(4, 3), _simplex(5, 3),
    _mds2(7, 5), _mds2(9, 7), _mds2(8, 6),
    _su1(2, 4, 2, 1, 1, "remove"), _su1(2, 6, 3, 1, 1, "remove"), _su1(3, 4, 2, 1, 1, "remove"),
    _su1(2, 4, 2, 1, 1, "union"), _su1(3, 4, 2, 1, 1, "union"),
    _su2(2, 2, 3), _su2(2, 3, 4), _su2(3, 2, 4), _su2(2, 4, 5), _su2(5, 2, 3),
    _arc(4), _arc(8),
    _pencil(7, 3), _pencil(9, 2), _pencil(8, 4),
    _complement(_su2(2, 2, 3)), _complement(_su2(2, 3, 4)), _complement(_su2(3, 2, 3)),
    _complement(_mds2(9, 6)),
    _small("weight2", 12), _small("bin-2-2d", 20, delta=4), _small("disjoint", 30, d=2),
)
TINY_CODES = (_dm(2, 1, 2), _su2(2, 2, 3), _complement(_su2(2, 2, 3)), _small("disjoint", 30, d=2))
VERIFY_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
# each light code runs this many times a round, each time translated anew,
# so the median latency rests on a few hundred samples a run
LIGHT_REPEATS = 3


def _construct(build):
    fn, *args = build
    args = [_construct(a) if isinstance(a, tuple) else a for a in args]
    return getattr(constructions, fn)(*args)


def _build(case: CodeCase):
    made = _construct(case.build)
    return made.span() if isinstance(made, constructions.GeneratorMatrix) else made


def _translate(code: core.Code, rng: random.Random) -> core.Code:
    """Add a random word to every codeword; distances, strength and cost stay put.

    Coordinates keep their order: `strength` stops at the first unbalanced
    column set, so permuting them would make its cost vary between seeds.
    """
    shift = [rng.randrange(code.q) for _ in range(code.n)]
    words = tuple(tuple((a + s) % code.q for a, s in zip(w, shift)) for w in code.words)
    return core.Code(code.q, code.n, words)


class VerifyWorkload:
    """Every round builds and verifies each heavy catalog code once, each light one three times.

    The seed picks the order and, per op, a translation applied to the
    built code outside the op's time, so verification never sees the same
    word list twice while its cost stays that of the family.
    """

    name = "verify"
    fields = VERIFY_FIELDS
    kernel = staticmethod(python_kernel)
    round_s = 10.0

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.cases = TINY_CODES if tiny else CODE_CASES

    def rounds(self):
        items = [c for c in self.cases for _ in range(1 if c.heavy else LIGHT_REPEATS)]
        while True:
            yield self.rng.sample(items, len(items))

    def _op(self, case: CodeCase, rec: Recorder):
        code = _build(case)
        with rec.pause():
            moved = _translate(code, self.rng)
            d = case.distances[0]
            delta = case.distances[-1] - d if len(case.distances) == 2 else 1
            params = TwoDistParams(case.q, case.n, d, delta)
        out = {
            "code": moved,
            "report": core.verify_two_distance(moved, params),
            "strength": core.strength(moved),
            "antipodal": core.is_antipodal(moved),
            "moments": [core.moments(moved, i) for i in (1, 2)],
            "read_back": core.read_code(core.write_code(moved)),
        }
        if case.linear:
            lp = feasibility.LinearParams(case.q, case.k, case.n, *case.distances, s=case.s)
            out["macwilliams"] = feasibility.macwilliams_mu(lp).status
            out["gcd"] = feasibility.gcd_screen(lp).any_admissible
            if case.s == 1:
                out["srg"] = feasibility.srg_analysis(lp).feasible
        return out

    def run(self, case, rec: Recorder):
        return case, rec.op(self._op, case, rec)

    def failures(self, record) -> int:
        case, out = record
        if out is None:
            return 1
        code, report = out["code"], out["report"]
        ok = (
            (code.q, code.n, code.size) == (case.q, case.n, case.size)
            and report.observed == case.distances
            and (report.ok if len(case.distances) == 2 else report.equidistant)
            and out["antipodal"] == (case.family == "dm")
            and all(m >= 0 for m in out["moments"])
            and all(m == 0 for m in out["moments"][: out["strength"]])
            and out["read_back"] == code
            and out.get("macwilliams", "ok") == "ok"
            and out.get("gcd", True)
            and out.get("srg", True)
        )
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (TableWorkload, SearchWorkload, VerifyWorkload)}


def set_up(name: str, seed: int, tiny: bool = False):
    """Everything before the first op: input generation and field tables."""
    workload = WORKLOADS[name](seed, tiny)
    for q in workload.fields:
        GF(q)
    return workload
