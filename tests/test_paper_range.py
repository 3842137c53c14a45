"""The paper's table range, rendered once and compared byte for byte.

`tests/data/paper_range.tex` holds the latex table of every (q, delta)
grid for q in {2, 3, 4} and n <= 49 // q (qn < 50), computed with the
default `CellOptions`: 3,266 cells.  Any change to a bound, a tag or the
rendering shows up as a diff of that file.  A change that alters cells on
purpose rewrites it with

    PYTHONPATH=src python tests/test_paper_range.py

and the git diff of the file lists the changed cells.
"""
from pathlib import Path

from twodist.tables import TableSpec, render_table

GOLDEN = Path(__file__).parent / "data" / "paper_range.tex"


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


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(render_paper_range().encode())


def test_paper_range_latex_matches_golden():
    assert render_paper_range().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden()
