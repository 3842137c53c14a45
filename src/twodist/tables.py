"""Table cells combining upper bounds with construction/search lower bounds.

A cell mirrors one entry of the bound tables: a lower bound with its
source, an upper bound with its method tag, or an exact value when the
two meet; parameter pairs admitting no two-distance code render as "--".
Cells are pure functions of their inputs, so a table can be recomputed
cell by cell in any order.

The exhaustive oracle counts every code whose distances lie in
{d, d+delta}, equidistant ones included.  Its value is exact for the cell
only when it exceeds the one-distance Delsarte bound at both distances
(`bounds.equidistant_lp_bound`), so that every code of that size has both
distances; otherwise it only caps the upper bound, tagged `oracle` when it
is the lower one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from types import NoneType

from . import bounds as bounds_mod
from . import constructions, search
from .core import TwoDistParams


@dataclass(frozen=True, slots=True)
class CellBound:
    value: int
    tag: str


@dataclass(frozen=True, slots=True)
class TableCell:
    params: TwoDistParams
    lower: CellBound | None
    upper: CellBound | None
    equidistant_size: int | None = None
    note: str = ""
    methods: tuple[tuple[str, int | None], ...] = ()

    def __post_init__(self):
        if (self.lower is None) != (self.upper is None):
            raise ValueError("a cell has both bounds or neither")
        if self.lower is not None and self.lower.value > self.upper.value:
            p = self.params
            raise ValueError(
                "cell lower bound exceeds upper bound at (q, n, d, delta) = "
                f"{(p.q, p.n, p.d, p.delta)}: {self.lower.value} ({self.lower.tag}) > "
                f"{self.upper.value} ({self.upper.tag})"
            )

    @property
    def status(self) -> str:
        """`not_well_defined` without bounds, `value` when they meet, else `range`."""
        if self.lower is None:
            return "not_well_defined"
        return "value" if self.lower.value == self.upper.value else "range"


@dataclass(frozen=True, slots=True)
class TableSpec:
    q: int
    delta: int
    n_min: int
    n_max: int
    d_min: int = 1
    d_max: int | None = None
    fmt: str = "markdown"

    def __post_init__(self):
        if not (2 <= self.q <= 9):
            raise ValueError("supported alphabets are 2..9")
        if self.n_min > self.n_max:
            raise ValueError(f"n_min {self.n_min} is above n_max {self.n_max}")
        if not (1 <= self.n_min and self.n_max <= 64):
            raise ValueError("supported lengths are 1..64")
        if self.d_min < 1:
            raise ValueError("d_min must be at least 1")
        if self.d_max is not None and self.d_max < self.d_min:
            raise ValueError(f"d_max {self.d_max} is below d_min {self.d_min}")
        if self.delta < 1:
            raise ValueError("delta must be positive")
        if self.fmt not in ("csv", "markdown", "latex", "json"):
            raise ValueError(f"unsupported format {self.fmt!r}")


@dataclass(frozen=True, slots=True)
class CellOptions:
    external: dict[tuple[int, int, int], int] | None = None
    search_cfg: search.SearchConfig | None = None
    oracle_max_vertices: int = 0

    def __post_init__(self):
        if self.oracle_max_vertices < 0:
            raise ValueError("oracle cap must not be negative")


def compute_cell(params: TwoDistParams, options: CellOptions = CellOptions()) -> TableCell:
    """One table cell: feasibility screens, bound aggregation, lower bounds."""
    report = bounds_mod.best_upper_bound(params, options.external)
    methods = tuple([(e.method, e.value) for e in report.entries])
    if report.status.kind == "not_well_defined":
        return TableCell(params, None, None, note=report.status.note)
    if report.status.kind == "exact":
        exact = CellBound(report.status.lo, "exact")
        return TableCell(params, exact, exact, note=report.status.note, methods=methods)

    upper = report.status.hi
    upper_tag = ",".join(report.status.methods)

    lower, lower_tag = 3, "construction"  # three-word witness always exists here
    catalog = constructions.two_distance_lower_bounds(params)
    if catalog and catalog[0].size > lower:
        lower = catalog[0].size
    # cells beyond a cap keep their other bounds instead of failing the table
    if options.search_cfg is not None and search.candidate_count(params) <= search.MAX_CANDIDATES:
        result = search.random_greedy(params, options.search_cfg)
        if result.report.ok and result.size > lower:
            lower, lower_tag = result.size, "search"
    cap = options.oracle_max_vertices
    if cap and search.candidate_count(params) <= cap:
        value = search.exhaustive_maximum(params, cap)
        if value > upper:
            # the oracle is exact, so an upper bound below it is bad input, such as an external one
            raise ValueError(
                f"oracle value {value} exceeds upper bound {upper} ({upper_tag}) at "
                f"(q, n, d, delta) = {(params.q, params.n, params.d, params.delta)}"
            )
        one_distance = (
            bounds_mod.equidistant_lp_bound(params.n, params.q, e) for e in (params.d, params.d2)
        )
        if value > max(one_distance):
            lower = upper = value
            lower_tag = upper_tag = "exact"
        elif value < upper:
            upper, upper_tag = value, "oracle"

    eq_size = None
    eq_entry = constructions.equidistant_lower_bound(params.q, params.n, params.d)
    if eq_entry is not None and lower < eq_entry.size <= upper:
        eq_size = eq_entry.size

    return TableCell(
        params, CellBound(lower, lower_tag), CellBound(upper, upper_tag),
        equidistant_size=eq_size, methods=methods,
    )


def table_cells(spec: TableSpec, options: CellOptions = CellOptions()) -> list[TableCell]:
    cells = []
    d_hi = spec.d_max
    for n in range(spec.n_min, spec.n_max + 1):
        top = n - spec.delta if d_hi is None else min(d_hi, n - spec.delta)
        for d in range(spec.d_min, top + 1):
            cells.append(compute_cell(TwoDistParams(spec.q, n, d, spec.delta), options))
    return cells


def cell_text(cell: TableCell, sup: str = "^{}") -> str:
    """Compact rendering like the printed tables: '12-19^dd', '56^lp', '--'.

    `sup` formats each superscript tag; latex passes '$^{{{}}}$'.
    """
    if cell.status == "not_well_defined":
        return "--"
    if cell.status == "value":
        tag = cell.upper.tag
        return f"{cell.upper.value}" + (sup.format(tag) if tag and tag != "exact" else "")
    if cell.equidistant_size == cell.upper.value:
        # an equidistant catalog code meets the two-distance upper bound
        return f"{cell.upper.value}" + sup.format(f"e,{cell.upper.tag}")
    lo = (
        f"{cell.equidistant_size}" + sup.format("e")
        if cell.equidistant_size is not None
        else str(cell.lower.value)
    )
    return f"{lo}-{cell.upper.value}" + sup.format(cell.upper.tag)


def render_table(spec: TableSpec, options: CellOptions = CellOptions()) -> str:
    cells = table_cells(spec, options)
    if spec.fmt == "json":
        return cells_to_json(cells)
    if spec.fmt == "csv":
        lines = ["q,n,d,delta,lower,lower_tag,upper,upper_tag,status"]
        for c in cells:
            lo = ("", "") if c.lower is None else (str(c.lower.value), c.lower.tag)
            hi = ("", "") if c.upper is None else (str(c.upper.value), c.upper.tag)
            lines.append(
                f"{c.params.q},{c.params.n},{c.params.d},{c.params.delta},"
                f"{lo[0]},{lo[1]},{hi[0]},{hi[1]},{c.status}"
            )
        return "\n".join(lines) + "\n"

    by_pos = {(c.params.n, c.params.d): c for c in cells}
    d_values = sorted({c.params.d for c in cells})
    n_values = list(range(spec.n_min, spec.n_max + 1))
    sup = "$^{{{}}}$" if spec.fmt == "latex" else "^{}"
    grid = []
    for n in n_values:
        row = []
        for d in d_values:
            c = by_pos.get((n, d))
            row.append(cell_text(c, sup) if c is not None else "")
        grid.append(row)

    if spec.fmt == "markdown":
        header = ["n\\d"] + [str(d) for d in d_values]
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for n, row in zip(n_values, grid):
            lines.append("| " + " | ".join([str(n)] + row) + " |")
        return "\n".join(lines) + "\n"
    # latex
    cols = "|c|" + "c|" * len(d_values)
    lines = [f"\\begin{{tabular}}{{{cols}}}", "\\hline"]
    lines.append(
        " & ".join(["$n|d$"] + [str(d) for d in d_values]) + " \\\\ \\hline"
    )
    for n, row in zip(n_values, grid):
        lines.append(" & ".join([str(n)] + row) + " \\\\ \\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def cells_to_json(cells) -> str:
    """`{"cells": [...]}` with one cell object per line.

    Each cell is one `json.dumps` call with the default separators:
    `indent` would route the whole payload through the pure-Python
    encoder, while without it every line goes through the C encoder.
    """
    rows = ",\n".join(
        json.dumps(
            {
                "q": c.params.q,
                "n": c.params.n,
                "d": c.params.d,
                "delta": c.params.delta,
                "status": c.status,
                "lower": None if c.lower is None else {"value": c.lower.value, "tag": c.lower.tag},
                "upper": None if c.upper is None else {"value": c.upper.value, "tag": c.upper.tag},
                "equidistant_size": c.equidistant_size,
                "note": c.note,
                "methods": [[m, v] for m, v in c.methods],
            }
        )
        for c in cells
    )
    return '{"cells": [\n' + (rows + "\n" if rows else "") + "]}\n"


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object", NoneType: "null"}


def _typed(value, field: str, *kinds: type):
    """`value` when its type is one of `kinds`, else a ValueError naming `field`; a bool is no int."""
    if type(value) not in kinds:
        raise ValueError(f"{field} must be {' or '.join(_KINDS[k] for k in kinds)}, got {value!r}")
    return value


def _field(obj: dict, key: str, where: str, *kinds: type):
    """`obj[key]` checked by `_typed`; a missing key is a ValueError naming the field."""
    if key not in obj:
        raise ValueError(f"{where}.{key} is missing")
    return _typed(obj[key], f"{where}.{key}", *kinds)


def _cell_bound(entry: dict, key: str, where: str) -> CellBound | None:
    bound = _field(entry, key, where, dict, NoneType)
    if bound is None:
        return None
    where = f"{where}.{key}"
    return CellBound(_field(bound, "value", where, int), _field(bound, "tag", where, str))


def cells_from_json(text: str) -> list[TableCell]:
    """Cells from `cells_to_json` text; a stored status must be the one the bounds give.

    The text comes from outside the program, so every field is checked:
    q, n, d, delta and each bound's value are integers (a bool is not),
    `lower` and `upper` are objects or null, tags, `status` and `note` are
    strings, `equidistant_size` is an integer or null, and `methods` is a
    list of [tag, integer or null] pairs.  A value of any other type, or a
    missing key, is a ValueError that names the field as a path such as
    `$.cells[0].lower.value`.  `equidistant_size`, `note` and `methods` may
    be left out.
    """
    data = _typed(json.loads(text), "$", dict)
    cells = []
    for i, entry in enumerate(_field(data, "cells", "$", list)):
        where = f"$.cells[{i}]"
        _typed(entry, where, dict)
        params = TwoDistParams(*(_field(entry, key, where, int) for key in ("q", "n", "d", "delta")))
        status = _field(entry, "status", where, str)
        methods = []
        for j, pair in enumerate(_typed(entry.get("methods", []), f"{where}.methods", list)):
            field = f"{where}.methods[{j}]"
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"{field} must be a [tag, value] pair, got {pair!r}")
            methods.append(
                (_typed(pair[0], f"{field}[0]", str), _typed(pair[1], f"{field}[1]", int, NoneType))
            )
        cell = TableCell(
            params,
            _cell_bound(entry, "lower", where),
            _cell_bound(entry, "upper", where),
            equidistant_size=_typed(
                entry.get("equidistant_size"), f"{where}.equidistant_size", int, NoneType
            ),
            note=_typed(entry.get("note", ""), f"{where}.note", str),
            methods=tuple(methods),
        )
        if status != cell.status:
            raise ValueError(f"bad status {status!r}: the bounds make it {cell.status!r}")
        cells.append(cell)
    return cells
