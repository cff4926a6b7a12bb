"""CLI tables against small goldens, one per subcommand, compared by tolerance.

Each golden in ``tests/data`` is the CSV the argv below wrote before the
refactor that gave every physical formula a single implementation; the
levels golden was written before the level-set grid and its marching
squares moved from the CLI into ``trivortex.reduction``.  Text
cells must match exactly and numeric cells to a relative 1e-9, which
leaves integer cells no room either.  Cells at rounding level, such as the
reduced table's casimir_residual, therefore only match while the
arithmetic that produced them is unchanged.  That column alone was
re-recorded when the stepper moved from NumPy stage products to Python
float sums, which moved 15 of its 16 cells by up to 7% while every other
cell of every golden still matched; a separate bound keeps it at
rounding level.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest

from trivortex.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "simulate": ["simulate", "--positions", "-1,0.5,1,-0.5,0.2,2", "--gammas",
                 "1,0.7,-0.6", "--t-end", "5", "--samples", "11"],
    "reduced": ["reduced", "--rho", "0.5", "--L", "12", "--t-end", "30",
                "--samples", "16"],
    "levels": ["reduced", "--levels", "2", "--gamma", "0.4", "--theta", "1.3"],
    "sweep": ["sweep", "--rho", "-1.5,0.5,2.5"],
    "critical": ["critical", "--gammas", "0.4,0.9,1.0,1.7"],
    "equilibria": ["equilibria", "--gamma", "1.3", "--theta", "-1"],
    "bifurcation": ["bifurcation", "--gammas", "0.75:1.45:0.1", "--theta", "-1"],
    "closed-form": ["closed-form", "--rho", "-2:5:0.5"],
}


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _same_cell(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(b):
        return math.isnan(a)
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_golden(name, tmp_path):
    out = tmp_path / "table.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    got = _read(out)
    want = _read(DATA / f"golden_{name.replace('-', '_')}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(ref), f"row {i}"
        bad = [(c, x, y) for c, x, y in zip(want[0], row, ref) if not _same_cell(x, y)]
        assert not bad, f"row {i}: (column, got, golden) {bad}"


def test_reduced_casimir_residual_stays_at_rounding_level(tmp_path):
    out = tmp_path / "table.csv"
    assert main(CASES["reduced"] + ["--out", str(out)]) == 0
    header, *rows = _read(out)
    col = header.index("casimir_residual")
    assert len(rows) == 16
    assert max(float(row[col]) for row in rows) <= 1e-10
