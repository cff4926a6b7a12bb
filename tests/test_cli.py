"""Command line behavior: schemas, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from trivortex import cli
from trivortex.cli import MAX_VALUES, _parse_values, main
from trivortex.errors import StepBudgetExceeded


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_exit_codes():
    code, _, err = run_cli(["sweep"])  # missing --rho
    assert code == 1 and "rho" in err
    code, _, _ = run_cli(["simulate", "--bogus", "1"])
    assert code == 1
    code, _, err = run_cli(
        ["reduced", "--levels", "--gammas", "1,1,1", "--theta", "0"]
    )
    assert code == 2 and "BoundaryTheta" in err
    code, _, _ = run_cli(["critical", "--gamma", "1"])
    assert code == 0


def test_csv_is_crlf_with_17_digit_cells():
    code, text, _ = run_cli(
        ["simulate", "--rho", "2.5", "--t-end", "5", "--samples", "3"]
    )
    assert code == 0
    assert text.count("\r\n") == text.count("\n") == 4
    header, rows = parse_csv(text)
    assert header == [
        "t", "x1", "y1", "x2", "y2", "x3", "y3", "H", "Theta", "Mx", "My",
    ]
    for cell in rows[1]:
        assert f"{float(cell):.17g}" == cell


def test_output_is_byte_deterministic(tmp_path):
    args = ["sweep", "--rho", "-1.2,3.7", "--format", "json", "--jobs", "2"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second
    serial = run_cli(["sweep", "--rho", "-1.2,3.7", "--format", "json"])
    assert json.loads(serial[1])["rows"] == json.loads(first[1])["rows"]

    out = tmp_path / "table.csv"
    code, _, _ = run_cli(["critical", "--gamma", "1.7", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"Gamma,rho_minus,rho_plus\r\n")


def test_json_schema_and_config_echo():
    code, text, _ = run_cli(
        ["closed-form", "--rho", "0.5,2.5", "--format", "json", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"config", "columns", "rows"}
    assert doc["config"]["subcommand"] == "closed-form"
    assert doc["config"]["seed"] == 7
    assert doc["columns"] == [
        "rho", "Theta", "regime", "delta_alpha_closed",
        "delta_alpha_quadrature",
    ]
    by_rho = {row[0]: row for row in doc["rows"]}
    assert by_rho[0.5][2] == "RealImag"
    assert by_rho[0.5][3] == pytest.approx(-math.pi / 3.0, rel=1e-12)
    assert by_rho[0.5][4] == pytest.approx(by_rho[0.5][3], abs=1e-9)
    assert by_rho[2.5][1] == 6.0


def test_negative_range_values_parse():
    code, text, _ = run_cli(["closed-form", "--rho", "-2:-1.6:0.2"])
    assert code == 0
    _, rows = parse_csv(text)
    assert [float(r[0]) for r in rows] == pytest.approx([-2.0, -1.8, -1.6])
    assert all(r[2] == "ComplexPair" for r in rows)


def test_simulate_keeps_invariants_flat():
    code, text, _ = run_cli(
        [
            "simulate", "--rho", "-0.999", "--t-end", "200",
            "--samples", "201", "--rtol", "1e-12",
        ]
    )
    assert code == 0
    _, rows = parse_csv(text)
    table = np.array([[float(c) for c in r] for r in rows])
    h, theta = table[:, 7], table[:, 8]
    impulse = table[:, 9:11]
    assert np.max(np.abs(h - h[0])) <= 1e-8 * max(1.0, abs(h[0]))
    assert np.max(np.abs(theta - theta[0])) <= 1e-8 * max(1.0, abs(theta[0]))
    assert np.max(np.abs(impulse)) <= 1e-8


def test_simulate_explicit_start_matches_known_motion():
    # from this start the middle vortex drifts at unit speed while the
    # first one stalls: x1 = (t - sqrt(t^2+4))/2, x3 = t
    code, text, _ = run_cli(
        [
            "simulate",
            "--positions", "-1,-1,1,-1,0,-2",
            "--gammas", "1,1,-1",
            "--t-end", "20",
            "--samples", "41",
        ]
    )
    assert code == 0
    _, rows = parse_csv(text)
    for r in rows:
        t, x1, x3 = float(r[0]), float(r[1]), float(r[5])
        assert x1 == pytest.approx(
            0.5 * (t - math.sqrt(t * t + 4.0)), abs=1e-6
        )
        assert x3 == pytest.approx(t, abs=1e-6)


def test_reduced_trajectory_columns_and_residuals():
    code, text, _ = run_cli(
        ["reduced", "--rho", "2.5", "--t-end", "50", "--samples", "101"]
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == [
        "t", "X", "Y", "Z", "H_red", "casimir_residual", "alpha",
    ]
    table = np.array([[float(c) for c in r] for r in rows])
    h = table[:, 4]
    assert np.max(np.abs(h - h[0])) <= 1e-8 * max(1.0, abs(h[0]))
    assert np.max(table[:, 5]) <= 1e-8
    assert table[0, 6] == 0.0


def test_reduced_other_family_has_no_alpha_column():
    code, text, _ = run_cli(
        [
            "reduced",
            "--positions", "1,0,-0.5,0.866,-0.5,-0.866",
            "--gammas", "1,1,1",
            "--t-end", "5",
            "--samples", "11",
        ]
    )
    assert code == 0
    header, _ = parse_csv(text)
    assert header == ["t", "X", "Y", "Z", "H_red", "casimir_residual"]


def test_levels_mode_includes_saddle_energy():
    code, text, _ = run_cli(
        ["reduced", "--levels", "--gamma", "1", "--theta", "-1"]
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["level", "segment", "X", "Y", "Z"]
    levels = sorted({float(r[0]) for r in rows})
    assert any(abs(v - math.log(2.0)) < 1e-9 for v in levels)
    # samples live on the leaf
    for r in rows[::500]:
        x, y, z = float(r[2]), float(r[3]), float(r[4])
        assert z * z - x * x - y * y == pytest.approx(1.0, abs=1e-9)


def test_levels_mode_sphere_with_explicit_values():
    code, text, _ = run_cli(
        [
            "reduced", "--levels", "0.2,0.5",
            "--gammas", "1,1,1", "--theta", "1",
        ]
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert {float(r[0]) for r in rows} == {0.2, 0.5}
    for r in rows[::300]:
        x, y, z = float(r[2]), float(r[3]), float(r[4])
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-9)


def test_sweep_flags_and_outcome_flip():
    code, text, _ = run_cli(["sweep", "--rho", "-1.2,-0.8,3.3,3.7"])
    assert code == 0
    _, rows = parse_csv(text)
    outcomes = [r[3] for r in rows]
    assert outcomes == ["Direct", "Exchange", "Exchange", "Direct"]
    code, text, _ = run_cli(["sweep", "--rho", "0", "--t-end", "50"])
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][4] == "near-separatrix"
    assert rows[0][2] == "nan"


def test_critical_table():
    code, text, _ = run_cli(["critical", "--gammas", "0.4,1.0"])
    assert code == 0
    _, rows = parse_csv(text)
    assert [float(rows[0][0]), float(rows[0][1])] == [0.4, -1.0]
    assert rows[0][2] == ""  # no upper offset below the saddle-node
    assert float(rows[1][1]) == -1.0
    assert float(rows[1][2]) == 3.5


def test_equilibria_table_lists_catalog():
    code, text, _ = run_cli(["equilibria", "--gamma", "1", "--theta", "-1"])
    assert code == 0
    header, rows = parse_csv(text)
    labels = {r[0] for r in rows}
    assert labels == {"E_tri+", "E_tri-", "S_11"}
    sing = next(r for r in rows if r[0] == "S_11")
    assert sing[1] == "singularity"
    assert sing[7] == "1-2"
    assert sing[9] == ""  # singularities carry no eigenvalues


def test_bifurcation_table_shape():
    code, text, _ = run_cli(
        ["bifurcation", "--gammas", "0.75:0.95:0.05", "--theta", "1"]
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header[0] == "Gamma"
    assert len(rows) == 5
    # branches appear once the strength crosses the fold
    exists = {float(r[0]): int(r[4]) for r in rows}
    assert exists[0.75] == 0
    assert exists[0.95] == 1


def test_oversized_inputs_are_usage_errors_before_any_work():
    # the range length is computed, never built: a billion-element range
    # fails as fast as a short one
    with pytest.raises(ValueError, match="more than"):
        _parse_values(f"0:{10 * MAX_VALUES}:1", "--rho")
    assert len(_parse_values(f"1:{MAX_VALUES}:1", "--rho")) == MAX_VALUES
    for args in (
        ["sweep", "--rho", "0:1e9:1"],
        ["sweep", "--rho", "0:1e308:1e-308"],
        ["sweep", "--rho", "0.5", "--jobs", "0"],
        ["sweep", "--rho", "0.5", "--jobs", "-3"],
        ["simulate", "--rho", "0.5", "--samples", str(MAX_VALUES + 1)],
        ["reduced", "--rho", "0.5", "--samples", "2000000000"],
        ["reduced", "--levels", str(MAX_VALUES + 1), "--gamma", "1", "--theta", "-1"],
        ["bifurcation", "--gammas", "0.5:1e9:1e-3"],
    ):
        code, out, err = run_cli(args)
        assert (code, out) == (1, ""), args
        assert err


def test_time_budgets_and_tolerances_out_of_range_are_usage_errors():
    for args in (
        *(["sweep", "--rho", "0.5", "--t-end", v] for v in ("-5", "0", "nan", "inf")),
        ["reduced", "--rho", "0.5", "--t-end", "200", "--atol", "inf"],
        ["simulate", "--rho", "0.5", "--rtol", "nan"],
    ):
        code, out, err = run_cli(args)
        assert (code, out) == (1, ""), args
        assert err


def test_step_budget_exhaustion_exits_numerical(monkeypatch):
    def exhausted(*args, **kwargs):
        raise StepBudgetExceeded(1.5, 3)

    monkeypatch.setattr(cli, "integrate", exhausted)
    code, out, err = run_cli(["simulate", "--rho", "2.5", "--t-end", "5"])
    assert (code, out) == (2, "")
    assert "StepBudgetExceeded" in err
