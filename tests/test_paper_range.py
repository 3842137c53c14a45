"""The paper's table range, rendered once and compared byte for byte.

`tests/data/paper_range.tex` holds the latex table of every (q, delta)
grid for q in {2, 3, 4} and n <= 49 // q (qn < 50), computed with the
default `CellOptions`: 3,266 cells.  Any change to a bound, a tag or the
rendering shows up as a diff of that file.  A change that alters cells on
purpose rewrites it with

    PYTHONPATH=src python tests/test_paper_range.py

and the git diff of the file lists the changed cells.

`tests/data/paper_range_oracle300.csv` holds the same grids as one csv,
with the exhaustive oracle run on every cell of at most 300 candidate
words (`CellOptions(oracle_max_vertices=300)`), so it also pins the
cells whose oracle value is exact or caps the upper bound.  The same
command rewrites it.
"""
import dataclasses
from pathlib import Path

from twodist.tables import CellOptions, TableSpec, render_table

GOLDEN = Path(__file__).parent / "data" / "paper_range.tex"
ORACLE_GOLDEN = Path(__file__).parent / "data" / "paper_range_oracle300.csv"
ORACLE_OPTIONS = CellOptions(oracle_max_vertices=300)


def paper_range_specs():
    """The latex spec of every (q, delta) grid of the paper's range."""
    for q in (2, 3, 4):
        n_max = 49 // q
        for delta in range(1, n_max):
            yield TableSpec(q, delta, delta + 1, n_max, fmt="latex")


def render_paper_range() -> str:
    parts = []
    for spec in paper_range_specs():
        parts.append(f"% q={spec.q} delta={spec.delta}\n")
        parts.append(render_table(spec))
    return "".join(parts)


def render_paper_range_csv(options: CellOptions) -> str:
    """Every grid's csv rows under one header line."""
    blocks = [
        render_table(dataclasses.replace(spec, fmt="csv"), options).split("\n", 1)
        for spec in paper_range_specs()
    ]
    return blocks[0][0] + "\n" + "".join(rows for _, rows in blocks)


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(render_paper_range().encode())
    ORACLE_GOLDEN.write_bytes(render_paper_range_csv(ORACLE_OPTIONS).encode())


def test_paper_range_latex_matches_golden():
    assert render_paper_range().encode() == GOLDEN.read_bytes()


def test_paper_range_oracle_csv_matches_golden():
    assert render_paper_range_csv(ORACLE_OPTIONS).encode() == ORACLE_GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden()
