import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_core import CATALOG_BUILDS, construct
from test_paper_range import paper_range_specs

import twodist
from twodist import constructions, feasibility, search
from twodist.bounds import best_upper_bound, equidistant_lp_bound
from twodist.cli import main
from twodist.core import BoundStatus, TwoDistParams, read_code, write_code
from twodist.search import SearchConfig
from twodist.tables import (
    CellBound,
    CellOptions,
    TableSpec,
    cell_text,
    cells_from_json,
    cells_to_json,
    compute_cell,
    render_table,
    table_cells,
)


def P(q, n, d, delta):
    return TwoDistParams(q, n, d, delta)


# the linear two-weight catalog codes (the simplex codes have one weight)
TWO_WEIGHT_BUILDS = [
    b for b in CATALOG_BUILDS
    if isinstance(g := construct(b), constructions.GeneratorMatrix)
    and len(g.weight_distribution()) == 2
]


def equidistant_maximum(q, n, dist):
    """Most words in a q-ary length-n code with all distances equal to `dist`.

    Translated to hold the zero word, such a code is the zero word plus a
    clique of the weight-`dist` words joined at distance `dist`.
    """
    words = np.array(
        [w for w in itertools.product(range(q), repeat=n) if n - w.count(0) == dist]
    )
    adj = search._pack((words[:, None, :] != words[None, :, :]).sum(axis=2) == dist)
    nonadj = [~(row | 1 << v) for v, row in enumerate(adj)]
    return 1 + search._expand(adj, nonadj, 0, (1 << len(adj)) - 1, 0, math.inf)


@pytest.mark.parametrize(
    "q,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 7)] + [(4, 3), (4, 4), (5, 3)]
)
def test_equidistant_lp_bound_holds(q, n):
    for dist in range(1, n + 1):
        assert equidistant_lp_bound(n, q, dist) >= equidistant_maximum(q, n, dist)


class TestComputeCell:
    def test_dd_cell(self):
        cell = compute_cell(P(2, 12, 6, 4))
        assert cell.status == "range"
        assert cell.upper.value == 19 and "dd" in cell.upper.tag

    def test_upper_tag_lists_tied_methods_as_the_report_does(self):
        # one tie order, kept in `bounds`, for `twodist bound` and the tables
        tied = 0
        for q in (2, 3, 4, 5):
            for n in range(2, 21):
                for d in range(1, n):
                    for delta in range(1, n - d + 1):
                        status = best_upper_bound(P(q, n, d, delta)).status
                        if status.kind == "range":
                            tag = compute_cell(P(q, n, d, delta)).upper.tag
                            assert ",".join(status.methods) == tag, (q, n, d, delta)
                            tied += len(status.methods) > 1
        assert tied == 539

    def test_exact_by_construction_meeting_lp(self):
        cell = compute_cell(P(2, 11, 2, 2))
        assert cell.status == "value"
        assert cell.upper.value == 56 and "lp" in cell.upper.tag
        assert cell.lower.tag == "construction"

    def test_dash_cell(self):
        cell = compute_cell(P(2, 10, 7, 2))
        assert cell.status == "not_well_defined"
        assert cell_text(cell) == "--"

    def test_special_exact(self):
        cell = compute_cell(P(3, 8, 1, 2))
        assert cell.status == "value" and cell.upper.value == 6

    def test_oracle_cell(self):
        cell = compute_cell(P(2, 7, 2, 2), CellOptions(oracle_max_vertices=100))
        assert cell.status == "value" and cell.upper.value == 22

    @pytest.mark.parametrize(
        "params,value",
        [((2, 7, 2, 2), 22), ((2, 8, 4, 2), 10), ((2, 13, 2, 2), 79), ((3, 6, 4, 2), 18)],
    )
    def test_oracle_above_both_equidistant_bounds_is_exact(self, params, value):
        cell = compute_cell(P(*params), CellOptions(oracle_max_vertices=1000))
        exact = CellBound(value, "exact")
        assert (cell.status, cell.lower, cell.upper) == ("value", exact, exact)

    # each oracle value is that of an equidistant code; the largest codes
    # with both distances have 6, 5, 4 and 4 words
    @pytest.mark.parametrize(
        "params,upper",
        [
            ((2, 7, 4, 2), CellBound(8, "d2,lp,plotkin")),  # the [7, 3, 4] simplex code
            ((2, 9, 4, 3), CellBound(8, "oracle")),
            ((2, 10, 6, 2), CellBound(6, "lp,plotkin")),
            ((2, 7, 4, 1), CellBound(8, "d2,lp,plotkin")),
        ],
    )
    def test_oracle_within_an_equidistant_bound_only_caps(self, params, upper):
        cell = compute_cell(P(*params), CellOptions(oracle_max_vertices=1000))
        assert (cell.status, cell.lower, cell.upper) == (
            "range", CellBound(3, "construction"), upper
        )

    def test_negative_oracle_cap_refused(self):
        with pytest.raises(ValueError, match="must not be negative"):
            CellOptions(oracle_max_vertices=-3)

    def test_search_cell(self):
        cell = compute_cell(
            P(2, 8, 4, 4),
            CellOptions(search_cfg=SearchConfig(seed=1, restarts=200, stop_at=16)),
        )
        assert cell.status == "value" and cell.lower.value == 16

    @pytest.mark.parametrize("params,before,status,after,upper", [
        ((2, 12, 4, 2), 16, "range", 18, CellBound(25, "sc")),
        # the greedy code meets the d2 and LP bound 12 and closes the cell
        ((2, 11, 5, 1), 3, "value", 12, CellBound(12, "d2,lp")),
    ])
    def test_search_raises_the_lower_bound(self, params, before, status, after, upper):
        assert compute_cell(P(*params)).lower == CellBound(before, "construction")
        cell = compute_cell(P(*params), CellOptions(search_cfg=SearchConfig(seed=1, restarts=20)))
        assert (cell.status, cell.lower, cell.upper) == (status, CellBound(after, "search"), upper)

    def test_search_skipped_above_candidate_cap(self):
        # 310,726 candidates, above search.MAX_CANDIDATES: the cell keeps its other bounds
        cfg = SearchConfig(seed=1, restarts=5)
        cell = compute_cell(P(2, 20, 8, 2), CellOptions(search_cfg=cfg))
        assert cell == compute_cell(P(2, 20, 8, 2))
        assert cell.lower.tag != "search"

    def test_equidistant_annotation(self):
        cell = compute_cell(P(2, 16, 8, 6))
        assert cell.equidistant_size == 16
        assert cell.upper.value == 27 and "dd" in cell.upper.tag
        assert cell_text(cell) == "16^e-27^dd"


class TestRender:
    def test_csv_layout(self):
        spec = TableSpec(q=2, delta=2, n_min=9, n_max=10, d_min=4, d_max=4, fmt="csv")
        out = render_table(spec)
        lines = out.strip().splitlines()
        assert lines[0] == "q,n,d,delta,lower,lower_tag,upper,upper_tag,status"
        assert lines[1].startswith("2,9,4,2,16,construction,16,")
        assert lines[1].endswith(",value")

    def test_markdown_contains_cells(self):
        spec = TableSpec(q=2, delta=2, n_min=9, n_max=9, d_min=2, d_max=6, fmt="markdown")
        out = render_table(spec)
        assert "16^d2" in out and "--" in out

    def test_latex_wraps_tags(self):
        spec = TableSpec(q=2, delta=2, n_min=9, n_max=9, d_min=4, d_max=4, fmt="latex")
        out = render_table(spec)
        assert out.startswith("\\begin{tabular}")
        assert "$^{d2,lp}$" in out

    def test_json_roundtrip(self):
        spec = TableSpec(q=2, delta=4, n_min=8, n_max=12, fmt="json")
        cells = table_cells(spec)
        out = render_table(spec)
        assert out == cells_to_json(cells)
        assert cells_from_json(out) == cells

    def test_empty_d_range(self):
        # d_min is above n - delta for every length, so no cell is computed
        spec = TableSpec(q=2, delta=2, n_min=7, n_max=8, d_min=9, fmt="markdown")
        out = render_table(spec)
        assert out.splitlines()[0].startswith("|")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TableSpec(q=12, delta=2, n_min=7, n_max=8)
        with pytest.raises(ValueError):
            TableSpec(q=2, delta=2, n_min=7, n_max=80)
        with pytest.raises(ValueError):
            TableSpec(q=2, delta=2, n_min=7, n_max=8, fmt="html")
        with pytest.raises(ValueError, match="^delta must be positive$"):
            TableSpec(2, 0, 5, 6)

    def test_reversed_length_range_refused(self):
        with pytest.raises(ValueError, match="n_min 5 is above n_max 4"):
            TableSpec(q=2, delta=2, n_min=5, n_max=4)

    def test_reversed_distance_range_refused(self):
        with pytest.raises(ValueError, match="d_max 3 is below d_min 5"):
            TableSpec(q=2, delta=2, n_min=8, n_max=9, d_min=5, d_max=3)

    def test_distance_below_one_refused(self):
        # refused by the spec itself, not by the first cell's TwoDistParams
        with pytest.raises(ValueError, match="^d_min must be at least 1$"):
            TableSpec(q=2, delta=1, n_min=5, n_max=6, d_min=0)


def reference_cells_json(cells) -> str:
    """The indented layout `cells_to_json` wrote before it went one cell per line."""
    payload = [
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
        for c in cells
    ]
    return json.dumps({"cells": payload}, indent=2) + "\n"


@pytest.fixture(scope="module")
def paper_grids():
    """The cells of every (q, delta) grid of the paper's range, 3,266 in all."""
    return [table_cells(spec) for spec in paper_range_specs()]


class TestCellsJson:
    def test_paper_range_one_cell_per_line_matches_reference(self, paper_grids):
        assert sum(map(len, paper_grids)) == 3266
        for cells in paper_grids:
            text = cells_to_json(cells)
            expected = json.loads(reference_cells_json(cells))
            assert json.loads(text) == expected
            lines = text.splitlines()
            assert len(lines) == len(cells) + 2
            assert lines[0] == '{"cells": [' and lines[-1] == "]}"
            middle = lines[1:-1]
            assert all(line.endswith(",") for line in middle[:-1])
            assert not middle[-1].endswith(",")
            assert [json.loads(line.removesuffix(",")) for line in middle] == expected["cells"]

    def test_empty_cell_list(self):
        text = cells_to_json([])
        assert json.loads(text) == json.loads(reference_cells_json([])) == {"cells": []}
        assert text.splitlines() == ['{"cells": [', "]}"]

    def test_cells_from_json_roundtrips_every_status(self, paper_grids):
        cells = [c for grid in paper_grids for c in grid]
        assert {c.status for c in cells} == {"not_well_defined", "value", "range"}
        assert any(c.equidistant_size is not None for c in cells)
        for grid in paper_grids:
            assert cells_from_json(cells_to_json(grid)) == grid


class TestCellsFromJsonGuards:
    """`cells_from_json` reads cells from outside the program: a bad one raises."""

    @staticmethod
    def one_cell(status="range", lower=3, upper=8):
        cell = {"q": 2, "n": 8, "d": 4, "delta": 2, "status": status,
                "lower": {"value": lower, "tag": "construction"},
                "upper": {"value": upper, "tag": "lp"}}
        return json.dumps({"cells": [cell]})

    def test_well_formed_cell_reads(self):
        (cell,) = cells_from_json(self.one_cell())
        assert (cell.status, cell.lower, cell.upper) == (
            "range", CellBound(3, "construction"), CellBound(8, "lp"))

    def test_unknown_status(self):
        with pytest.raises(ValueError, match="bad status 'exact'"):
            cells_from_json(self.one_cell(status="exact"))

    def test_value_cell_with_different_bounds(self):
        with pytest.raises(ValueError, match="^bad status 'value': the bounds make it 'range'$"):
            cells_from_json(self.one_cell(status="value"))

    @pytest.mark.parametrize("status,lower,upper,message", [
        # `cell_text` would read the missing upper bound's value
        ("range", {"value": 3, "tag": "construction"}, None, "a cell has both bounds or neither"),
        # rendered "--" while its csv row printed both bounds
        ("not_well_defined", {"value": 3, "tag": "construction"}, {"value": 8, "tag": "lp"},
         "bad status 'not_well_defined': the bounds make it 'range'"),
        # rendered "5-5^lp"
        ("range", {"value": 5, "tag": "construction"}, {"value": 5, "tag": "lp"},
         "bad status 'range': the bounds make it 'value'"),
    ])
    def test_status_must_match_the_bounds(self, status, lower, upper, message):
        cell = {"q": 2, "n": 8, "d": 4, "delta": 2, "status": status, "lower": lower, "upper": upper}
        # any other exception, an AttributeError included, propagates and fails the test
        with pytest.raises(ValueError, match=f"^{message}$"):
            cells_from_json(json.dumps({"cells": [cell]}))

    @pytest.mark.parametrize("change,message", [
        # read and rendered "3.5-8^lp"
        ({"lower": {"value": 3.5, "tag": "construction"}},
         r"\$\.cells\[0\]\.lower\.value must be an integer, got 3\.5"),
        # rendered "x^e-8^lp"
        ({"equidistant_size": "x"},
         r"\$\.cells\[0\]\.equidistant_size must be an integer or null, got 'x'"),
        # a TypeError from the bounds' comparison
        ({"upper": {"value": "8", "tag": "lp"}}, r"\$\.cells\[0\]\.upper\.value must be an integer, got '8'"),
        # a KeyError
        ({"upper": {"value": 8}}, r"\$\.cells\[0\]\.upper\.tag is missing"),
        # a TypeError from `TwoDistParams`
        ({"q": "2"}, r"\$\.cells\[0\]\.q must be an integer, got '2'"),
        ({"q": True}, r"\$\.cells\[0\]\.q must be an integer, got True"),
        ({"methods": [["lp", 8], ["d2"]]}, r"\$\.cells\[0\]\.methods\[1\] must be a \[tag, value\] pair, got \['d2'\]"),
        ({"note": None}, r"\$\.cells\[0\]\.note must be a string, got None"),
    ])
    def test_ill_typed_fields_are_refused(self, change, message):
        cell = dict(json.loads(self.one_cell())["cells"][0], **change)
        # any other exception, a TypeError or KeyError included, propagates and fails the test
        with pytest.raises(ValueError, match=f"^{message}$"):
            cells_from_json(json.dumps({"cells": [cell]}))

    def test_missing_field_is_refused(self):
        cell = json.loads(self.one_cell())["cells"][0]
        del cell["status"]
        with pytest.raises(ValueError, match=r"^\$\.cells\[0\]\.status is missing$"):
            cells_from_json(json.dumps({"cells": [cell]}))

    def test_lower_above_upper(self):
        with pytest.raises(ValueError, match="cell lower bound exceeds upper bound"):
            cells_from_json(self.one_cell(lower=9))

    def test_range_status_with_lower_above_upper(self):
        with pytest.raises(ValueError, match="range needs lo <= hi"):
            BoundStatus.range_(5, 3)


class TestReferenceSweep:
    """Method-tagged reference upper bounds beyond the q=2, delta=2 grid."""

    CELLS = [
        # (params, value, method tag)
        ((2, 8, 4, 4), 16, "d2"),
        ((2, 12, 6, 4), 19, "dd"),
        ((2, 14, 4, 4), 64, "lp"),
        ((2, 18, 8, 4), 64, "d2"),
        ((2, 19, 8, 4), 96, "d2"),
        ((2, 20, 10, 4), 27, "dd"),
        ((2, 13, 6, 6), 24, "lp"),
        ((2, 16, 8, 6), 27, "dd"),
        ((3, 7, 3, 3), 27, "lp"),
        ((3, 9, 6, 3), 27, "d2"),
        ((3, 10, 6, 3), 81, "d2"),
        ((3, 11, 6, 3), 243, "d2"),
        ((3, 12, 6, 3), 243, "lp"),
        ((3, 13, 9, 3), 27, "d2"),
        ((3, 9, 5, 2), 35, "d2"),
        ((3, 10, 6, 2), 36, "d2"),
        ((4, 7, 4, 2), 64, "d2"),
        ((4, 8, 6, 2), 32, "d2"),
        ((4, 9, 6, 2), 64, "d2"),
        ((4, 11, 8, 2), 49, "d2"),
        ((4, 12, 9, 3), 48, "d2"),
    ]

    def test_cells_match(self):
        for args, value, tag in self.CELLS:
            cell = compute_cell(P(*args))
            methods = dict(cell.methods)
            assert methods.get(tag) == value, (args, value, tag, methods)
            assert cell.upper.value == value, (args, cell)
            assert cell.lower.value <= value


class TestSoundnessSweep:
    def test_ranges_stay_consistent(self):
        # TableCell construction raises when any lower bound would exceed an
        # upper bound, so building whole grids doubles as a soundness sweep
        for q, delta in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            spec = TableSpec(q=q, delta=delta, n_min=7, n_max=14, fmt="csv")
            cells = table_cells(spec)
            assert cells
            for c in cells:
                if c.status == "range":
                    assert c.lower.value <= c.upper.value


class TestCli:
    def test_bound_ok(self, capsys):
        assert main(["bound", "--q", "2", "--n", "12", "--d", "6", "--delta", "4"]) == 0
        out = capsys.readouterr().out
        assert "best     19" in out and "dd" in out

    def test_bound_not_well_defined_exits_2(self, capsys):
        assert main(["bound", "--q", "2", "--n", "9", "--d", "3", "--delta", "4"]) == 2
        out = capsys.readouterr().out
        assert "  not well defined: no three-word code realizes both distances\n" in out

    def test_bound_exact_exits_0(self, capsys):
        assert main(["bound", "--q", "2", "--n", "9", "--d", "3", "--delta", "3"]) == 0
        assert "\n  exact    4\n" in capsys.readouterr().out

    def test_bound_json(self, capsys):
        assert main(["--format", "json", "bound", "--q", "2", "--n", "12", "--d", "6", "--delta", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"] == 19 and payload["methods"]["dd"] == 19

    def test_table_csv(self, capsys):
        rc = main([
            "--format", "csv", "table", "--q", "2", "--delta", "2",
            "--n-min", "9", "--n-max", "9", "--d-min", "4", "--d-max", "4",
        ])
        assert rc == 0
        assert "2,9,4,2,16" in capsys.readouterr().out

    def test_table_with_search_skips_capped_cells(self, capsys):
        # every cell here has more than 200000 candidate words
        rc = main([
            "--format", "csv", "table", "--q", "2", "--delta", "2", "--n-min", "20",
            "--n-max", "21", "--d-min", "8", "--d-max", "9", "--search-restarts", "2",
        ])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 4 and not any(",search," in r for r in rows)

    def test_construct_and_check_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert main(["construct", "dm", "2", "1", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out), "--d", "4", "--delta", "4"]) == 0
        text = capsys.readouterr().out
        assert "antipodal: True" in text and "strength: 3" in text
        code = read_code(out.read_text())
        assert code.size == 16

    def test_check_wrong_distances_exits_2(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        main(["construct", "dm", "2", "1", "2", "-o", str(out)])
        capsys.readouterr()
        assert main(["check", str(out), "--d", "2", "--delta", "2"]) == 2

    def test_check_one_distance_code_exits_2(self, tmp_path, capsys):
        out = tmp_path / "simplex.txt"
        assert main(["construct", "simplex", "2", "3", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(out)]) == 2
        assert "observed distances: [4]\n" in capsys.readouterr().out
        assert main(["check", str(out), "--d", "4", "--delta", "2"]) == 2
        assert capsys.readouterr().out.endswith("\nequidistant: only one of the two distances occurs\n")

    def test_construct_generator_format(self, capsys):
        assert main(["construct", "su2", "2", "2", "3", "--generator"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "4 9 2"
        assert len(lines) == 5 and all(len(l) == 9 for l in lines[1:])

    def test_construct_complement(self, capsys):
        assert main(["construct", "su2", "2", "2", "3", "--complement", "--generator"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "4 6 2"

    @pytest.mark.parametrize("argv,build", [
        (["dm", "2", "1", "1"], lambda: constructions.dm_code(2, 1, 1)),
        (["simplex", "3", "2"], lambda: constructions.seed_code("simplex", 3, 2).span()),
        (["mds2", "4", "3"], lambda: constructions.seed_code("mds2", 4, 3).span()),
        (["su1", "2", "4", "2", "1", "1"], lambda: constructions.su1_code(2, 4, 2, 1, 1).span()),
        (["su1", "2", "4", "2", "1", "1", "--union"],
         lambda: constructions.su1_code(2, 4, 2, 1, 1, mode="union").span()),
        (["su2", "2", "2", "3"], lambda: constructions.su2_code(2, 2, 3).span()),
        (["arc", "4"], lambda: constructions.arc_code(4).span()),
        (["pencil", "3", "2"], lambda: constructions.pencil_code(3, 2).span()),
        (["weight2", "6", "--q", "3"], lambda: constructions.small_family_code("weight2", 6, q=3)),
        (["bin-2-2d", "10", "4"], lambda: constructions.small_family_code("bin-2-2d", 10, delta=4)),
        (["disjoint", "15", "3"], lambda: constructions.small_family_code("disjoint", 15, d=3)),
        (["ternary13", "5"], lambda: constructions.small_family_code("ternary13", 5)),
    ])
    def test_construct_dispatches_each_family(self, capsys, argv, build):
        assert main(["construct", *argv]) == 0
        assert capsys.readouterr().out == write_code(build())

    @pytest.mark.parametrize("family,count", [
        ("dm", 3), ("simplex", 2), ("mds2", 2), ("su1", 5), ("su2", 3), ("arc", 1),
        ("pencil", 2), ("weight2", 1), ("bin-2-2d", 2), ("disjoint", 2), ("ternary13", 1),
    ])
    def test_construct_parameter_count_is_tool_error(self, capsys, family, count):
        assert main(["construct", family, *["2"] * (count + 1)]) == 1
        expect = f"error: {family} expects {count} integer parameters, got {count + 1}\n"
        assert capsys.readouterr().err == expect

    def test_search_writes_code(self, tmp_path, capsys):
        out = tmp_path / "found.txt"
        rc = main([
            "--seed", "1", "search", "--q", "2", "--n", "8", "--d", "4", "--delta", "4",
            "--restarts", "200", "--stop-at", "16", "-o", str(out),
        ])
        assert rc == 0
        assert "best 16 words" in capsys.readouterr().out
        assert read_code(out.read_text()).size == 16

    def test_search_has_no_time_budget_flag(self, capsys):
        # the search reads no clock; a wall-clock stop is a usage error
        rc = main([
            "search", "--q", "2", "--n", "8", "--d", "4", "--delta", "4",
            "--restarts", "1", "--time-budget-ms", "5",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: twodist")
        assert "twodist: error: unrecognized arguments: --time-budget-ms 5" in err

    def test_search_stop_at_below_one_is_usage_error(self, capsys):
        rc = main([
            "search", "--q", "2", "--n", "8", "--d", "4", "--delta", "4", "--stop-at", "0",
        ])
        assert rc == 1
        assert "error: stop_at must be at least 1" in capsys.readouterr().err

    def test_search_output_above_q9_is_refused_before_the_search(self, tmp_path, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(search, "random_greedy", no_search)
        out = tmp_path / "x.txt"
        rc = main([
            "search", "--q", "17", "--n", "4", "--d", "2", "--delta", "1",
            "--restarts", "3", "--seed", "1", "-o", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: file format supports q <= 9\n")
        assert not out.exists()

    def test_table_reversed_ranges_are_usage_errors(self, capsys):
        rc = main(["table", "--q", "2", "--delta", "2", "--n-min", "5", "--n-max", "4"])
        assert rc == 1
        assert "error: n_min 5 is above n_max 4" in capsys.readouterr().err
        rc = main([
            "table", "--q", "2", "--delta", "2", "--n-min", "8", "--n-max", "9",
            "--d-min", "5", "--d-max", "3",
        ])
        assert rc == 1
        assert "error: d_max 3 is below d_min 5" in capsys.readouterr().err

    def test_table_distance_below_one_is_a_tool_error(self, capsys):
        rc = main(["table", *"--q 2 --delta 1 --n-min 5 --n-max 6 --d-min 0".split()])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: d_min must be at least 1\n")

    def test_oracle(self, capsys):
        assert main(["oracle", "--q", "2", "--n", "5", "--d", "2", "--delta", "2"]) == 0
        assert "= 16" in capsys.readouterr().out

    def test_negative_oracle_caps_are_usage_errors(self, capsys):
        rc = main([
            "oracle", "--q", "2", "--n", "5", "--d", "2", "--delta", "2", "--max-vertices", "-1",
        ])
        assert rc == 1
        assert "error: oracle cap must not be negative" in capsys.readouterr().err
        rc = main([
            "table", "--q", "2", "--delta", "2", "--n-min", "6", "--n-max", "7",
            "--oracle-max", "-3",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: oracle cap must not be negative" in captured.err
        assert captured.out == ""

    def test_feasible_pass(self, capsys):
        rc = main([
            "feasible", "--q", "2", "--k", "4", "--n", "9", "--w1", "4", "--w2", "6", "--s", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "srg-integrality" in out

    def test_feasible_fail_exits_2(self, capsys):
        rc = main([
            "feasible", "--q", "2", "--k", "3", "--n", "6", "--w1", "2", "--w2", "5",
        ])
        assert rc == 2

    @pytest.mark.parametrize("build", TWO_WEIGHT_BUILDS, ids=lambda b: "-".join(map(str, b)))
    def test_feasible_passes_linear_catalog_codes(self, capsys, build):
        # the projective screens run only at s = 1, so no catalog code is refuted,
        # whether the column multiplicity s is given or left out
        g = construct(build)
        w1, w2 = sorted(g.weight_distribution())
        s = int(constructions.point_multiplicities(g).max())
        args = ["feasible", "--q", g.q, "--k", g.k, "--n", g.n, "--w1", w1, "--w2", w2]
        for extra in (["--s", s], []):
            assert main([str(a) for a in args + extra]) == 0, capsys.readouterr().out

    def test_feasible_non_projective_skips_projective_screens(self, capsys):
        # su1_code(2, 4, 2, 1, 1, "union") has s = 2; srg-integrality, a projective screen, would refute it
        assert main(["feasible", *"--q 2 --k 4 --n 18 --w1 8 --w2 10 --s 2".split()]) == 0
        out = capsys.readouterr().out
        for screen in ("delsarte-form", "srg-integrality"):
            assert f"SKIP       {screen}: projective screen needs s=1\n" in out

    def test_feasible_omitted_s_without_s1_says_it_does_not_fit(self, capsys):
        # [17, 3, {8, 12}]_2 with s left out has candidates s = 3..9
        assert main(["feasible", *"--q 2 --k 3 --n 17 --w1 8 --w2 12".split()]) == 0
        out = capsys.readouterr().out
        for screen in ("delsarte-form", "srg-integrality"):
            assert f"SKIP       {screen}: s=1 does not fit\n" in out
        assert "projective screen needs" not in out

    @pytest.mark.parametrize("argv,rc", [
        ("--q 2 --k 4 --n 14 --w1 7 --w2 8 --s 1", 0),
        ("--q 2 --k 3 --n 17 --w1 8 --w2 12 --s 5", 0),
        ("--q 2 --k 2 --n 12 --w1 6 --w2 12", 0),
        ("--q 2 --k 3 --n 17 --w1 8 --w2 12", 0),
        ("--q 2 --k 4 --n 8 --w1 5 --w2 7 --s 1", 2),
        ("--q 2 --k 3 --n 5 --w1 2 --w2 4", 0),
    ])
    def test_feasible_prints_the_library_verdict(self, capsys, argv, rc):
        # existing codes exit 0; the exit status is linear_screens' refuted flag
        assert main(["feasible", *argv.split()]) == rc
        q, k, n, w1, w2, *s = map(int, argv.split()[1::2])
        result = feasibility.linear_screens(feasibility.LinearParams(q, k, n, w1, w2, *s))
        assert result.refuted == (rc == 2)
        expected = "".join(f"{l.verdict.upper():<10} {l.screen}: {l.detail}\n" for l in result.lines)
        assert capsys.readouterr().out == expected

    def test_feasible_json(self, capsys):
        rc = main([
            "--format", "json", "feasible",
            "--q", "2", "--k", "4", "--n", "9", "--w1", "4", "--w2", "6", "--s", "1",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        names = {s["screen"] for s in payload["screens"]}
        assert {"delsarte-form", "macwilliams-mu", "srg-integrality", "gcd-valuation"} <= names

    @pytest.mark.parametrize("argv", [
        ["--format", "xml", "bound", "--q", "2", "--n", "8", "--d", "4", "--delta", "2"],
        ["--format", "csv", "bound", "--q", "2", "--n", "8", "--d", "4", "--delta", "2"],
        ["--format", "xml", "feasible", "--q", "2", "--k", "4", "--n", "9", "--w1", "4",
         "--w2", "6"],
        ["--format", "json", "search", "--q", "2", "--n", "8", "--d", "4", "--delta", "2"],
        ["--format", "json", "oracle", "--q", "2", "--n", "5", "--d", "2", "--delta", "2"],
        ["--format", "json", "check", "code.txt"],
        ["--format", "json", "construct", "dm", "2", "1", "2"],
        ["--format", "JSON", "table", "--q", "2", "--delta", "2", "--n-min", "6", "--n-max", "6"],
    ])
    def test_unrendered_format_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: unsupported format {argv[1]!r}\n"

    @pytest.mark.parametrize("flag", ["--d", "--delta"])
    def test_check_lone_distance_flag_is_usage_error(self, tmp_path, capsys, flag):
        path = tmp_path / "dm.txt"
        assert main(["construct", "dm", "2", "1", "2", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path), flag, "3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: check takes --d and --delta together or neither\n"

    def test_check_refuses_bad_distances_before_any_report(self, tmp_path, capsys):
        path = tmp_path / "three.txt"
        path.write_text("q=2 n=3\n000\n111\n")
        assert main(["check", str(path), "--d", "3", "--delta", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: d + delta must not exceed n\n"

    def test_usage_error_exits_1(self, capsys):
        assert main(["bound", "--q", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: twodist bound")
        assert "twodist: error: the following arguments are required: --n, --d, --delta" in err

    def test_tool_error_exits_1(self, capsys):
        assert main(["construct", "arc", "3"]) == 1

    @pytest.mark.parametrize("argv,expect", [
        # GF(4096) and GF(2048) are refused before any table is built
        (["dm", "2", "1", "11"], "error: GF(4096) is too large: fields up to order 1024 are supported\n"),
        (["arc", "2048", "--generator"], "error: GF(2048) is too large: fields up to order 1024 are supported\n"),
        # one digit per symbol, as in the code file format
        (["arc", "16", "--generator"], "error: file format supports q <= 9\n"),
        (["arc", "16", "--complement", "--generator"], "error: file format supports q <= 9\n"),
        # --q is weight2's alphabet, --union su1's mode, --generator a linear family's form
        (["disjoint", "9", "3", "--q", "3"], "error: --q applies to weight2 only\n"),
        (["ternary13", "5", "--q", "5"], "error: --q applies to weight2 only\n"),
        (["weight2", "5", "--generator"], "error: --generator needs a linear family\n"),
        (["dm", "2", "1", "1", "--union"], "error: --union applies to su1 only\n"),
        # bad in two ways: the flag, which the family table settles, is reported first
        (["dm", "2", "1", "11", "--generator"], "error: --generator needs a linear family\n"),
        (["weight2", "3", "--complement"], "error: --complement needs a linear family\n"),
        # 2^13 words of length 8191: only the generator form is written
        (["simplex", "2", "13"], "error: code too large to expand; use --generator\n"),
    ])
    def test_construct_refusals_are_tool_errors(self, capsys, argv, expect):
        assert main(["construct", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == expect

    @pytest.mark.parametrize("argv", [
        ["dm", "2", "1", "9", "--generator"],
        ["dm", "2", "1", "9", "--complement"],
        ["weight2", "5", "--generator"],
    ])
    def test_construct_refuses_before_building(self, capsys, monkeypatch, argv):
        def no_build(*args, **kwargs):
            raise AssertionError("built a code for a refused flag")

        monkeypatch.setattr(constructions, "dm_code", no_build)
        monkeypatch.setattr(constructions, "small_family_code", no_build)
        assert main(["construct", *argv]) == 1
        assert capsys.readouterr().err == f"error: {argv[-1]} needs a linear family\n"

    def test_construct_unallocatable_size_is_tool_error(self, capsys):
        # 10^8 words of 10^8 bytes: numpy refuses the 8.9 PiB array before allocating
        assert main(["construct", "disjoint", "100000000", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: Unable to allocate ")
        assert len(out.err.splitlines()) == 1

    def test_construct_generator_pins(self, capsys):
        assert main(["construct", "arc", "4", "--generator"]) == 0
        assert capsys.readouterr().out == "3 6 4\n111100\n012310\n013201\n"
        assert main(["construct", "pencil", "3", "2", "--generator"]) == 0
        assert capsys.readouterr().out == "2 6 3\n011100\n101211\n"

    # the small families' words, in the order they had when built one tuple at a time
    @pytest.mark.parametrize("argv,words", [
        ("weight2 5", "00000 11000 10100 10010 10001 01100 01010 01001 00110 00101 00011"),
        ("bin-2-2d 6 3", "000000 101111 110111 111011 111101 111110 011111"),
        ("bin-2-2d 8 3", "00000000 10111100 11011100 11101100 11110100 11111000 10000010 10000001"),
        ("disjoint 7 3", "0000000 1110000 0001110"),
        ("ternary13 5", "00000 10000 21100 21200 22010 22020"),
    ])
    def test_construct_small_family_pins(self, capsys, argv, words):
        assert main(["construct", *argv.split()]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == words.split()

    def test_external_bounds_flag(self, tmp_path, capsys):
        csv = tmp_path / "ext.csv"
        csv.write_text("q,n,d,bound\n2,13,8,4\n")
        rc = main([
            "--external-bounds", str(csv),
            "bound", "--q", "2", "--n", "13", "--d", "8", "--delta", "2",
        ])
        assert rc == 0
        assert "best     4" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_external_bounds_is_tool_error(self, tmp_path, capsys, name):
        rc = main([
            "--external-bounds", str(tmp_path / name),
            "bound", "--q", "2", "--n", "13", "--d", "8", "--delta", "2",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("rows", ["2,12,6,18\n2,12,6,30\n", "2,12,6,30\n2,12,6,18\n"])
    def test_repeated_external_bound_is_tool_error(self, tmp_path, capsys, rows):
        # with the last row winning, row order would decide between 18 [ext] and 19 [dd]
        csv = tmp_path / "ext.csv"
        csv.write_text("q,n,d,bound\n" + rows)
        rc = main([
            "--external-bounds", str(csv),
            "bound", "--q", "2", "--n", "12", "--d", "6", "--delta", "4",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: repeated (q, n, d) = (2, 12, 6)\n"

    @pytest.mark.parametrize("row,oracle,message", [
        # the exact oracle finds 10 words at (2, 8, {4, 6}), above an external 5
        ("2,8,4,5", ["--oracle-max", "300"],
         "error: oracle value 10 exceeds upper bound 5 (ext) at (q, n, d, delta) = (2, 8, 4, 2)\n"),
        # the weight-2 code has 29 words at (2, 8, {2, 4}), above an external 3
        ("2,8,2,3", [],
         "error: cell lower bound exceeds upper bound at (q, n, d, delta) = (2, 8, 2, 2): "
         "29 (construction) > 3 (ext)\n"),
    ], ids=["oracle", "lower"])
    def test_external_bound_below_a_lower_bound_is_tool_error(
        self, tmp_path, capsys, row, oracle, message
    ):
        csv = tmp_path / "low.csv"
        csv.write_text(f"q,n,d,bound\n{row}\n")
        rc = main([
            "table", "--q", "2", "--delta", "2", "--n-min", "8", "--n-max", "8",
            *oracle, "--external-bounds", str(csv),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message and "Traceback" not in captured.err

    def test_search_output_into_missing_directory_is_tool_error(self, tmp_path, capsys):
        rc = main([
            "search", "--q", "2", "--n", "8", "--d", "4", "--delta", "4",
            "--restarts", "1", "-o", str(tmp_path / "no" / "such" / "x"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_check_missing_file_is_tool_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.txt")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_closed_pipe_is_quiet(self, capsys, monkeypatch, fails):
        class ClosedPipe(io.StringIO):
            """A stdout whose reader has gone, found on `write` or on `flush`."""

            def write(self, text):
                if fails == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def flush(self):
                if fails == "flush":
                    raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        argv = ["search", "--q", "2", "--n", "8", "--d", "4", "--delta", "4", "--restarts", "3"]
        assert main(argv + ["--seed", "1"]) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_process_is_quiet(self):
        # the reading end is closed before the process starts, so its first
        # write to stdout fails, whatever the timing
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": str(Path(twodist.__file__).parents[1])}
        argv = ["bound", "--q", "2", "--n", "12", "--d", "6", "--delta", "4"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "twodist.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_construct_oversized_space_is_refused(self, capsys):
        assert main(["construct", "simplex", "2", "40"]) == 1
        assert "exceeds" in capsys.readouterr().err
