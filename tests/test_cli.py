"""Command line behavior: schemas, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_golden import CASES
from trivortex import cli, reduction
from trivortex.cli import MAX_VALUES, _parse_values, main
from trivortex.errors import StepBudgetExceeded
from trivortex.reduction import reduce_state


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
    # only the subcommands that integrate take tolerances
    for argv in (
        ["critical"], ["equilibria", "--theta", "1"],
        ["bifurcation", "--gammas", "0.8:0.9:0.1"], ["closed-form", "--rho", "1"],
    ):
        assert run_cli(argv + ["--rtol", "1e-8"])[0] == 1


def test_values_past_the_float_range_fail_with_a_typed_error():
    # a critical offset past the float range, and strengths so large that
    # the integrator's first trial step underflows
    code, out, err = run_cli(["critical", "--gammas", "1e3,1e200"])
    assert (code, out) == (2, "") and "NonFiniteResult" in err
    code, out, err = run_cli(["simulate", "--positions", "0,0,1,0,0,1", "--gammas",
                              "1e150,1e150,1", "--t-end", "1", "--samples", "3"])
    assert (code, out) == (2, "") and "StepSizeUnderflow" in err


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
    assert run_cli(["closed-form", "--rho", "0.5", "--seed", "7"])[0] == 1
    code, text, _ = run_cli(
        ["closed-form", "--rho", "0.5,2.5", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"config", "columns", "rows"}
    assert doc["config"]["subcommand"] == "closed-form"
    assert not {"out", "rtol", "atol", "seed"} & set(doc["config"])
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


def test_reduced_modes_exclude_each_other():
    for args in (
        ["reduced", "--levels", "2", "--gamma", "1", "--theta", "-1", "--rho", "3"],
        ["reduced", "--levels", "--positions", "1,0,-0.5,0.866,-0.5,-0.866",
         "--gammas", "1,1,1", "--theta", "1"],
        ["reduced", "--rho", "1", "--positions", "1,0,-0.5,0.866,-0.5,-0.866"],
        ["reduced", "--rho", "1", "--theta", "5"],
    ):
        code, out, err = run_cli(args)
        assert (code, out) == (1, ""), args
        assert err


def test_catalogs_cover_only_the_spec_families():
    # uniform strength 2 runs (1, 1, 1)'s motion four times faster, so its
    # table is not (1, 1, 1)'s; relabeled and time-reversed triples are not
    # in a catalog's labelling
    for family in (
        ["--gammas", "2,2,2"], ["--gammas", "-1,-1,-1"], ["--gammas", "1,-1,0.4"],
        ["--gammas", "1,1,-2"], ["--gamma", "0"],
    ):
        for sub in (["equilibria"], ["reduced", "--levels"]):
            code, out, err = run_cli([*sub, *family, "--theta", "1"])
            assert (code, out) == (1, ""), (sub, family)
            assert "--gamma must be positive" in err or "catalogs cover" in err


def test_levels_mode_on_the_singular_leaf():
    # Theta = 0 has no isolated critical points for any Gamma
    for gamma in ("0.4", "1", "2"):
        code, text, err = run_cli(
            ["reduced", "--levels", "2", "--gamma", gamma, "--theta", "0"]
        )
        assert (code, err) == (0, ""), gamma
        header, rows = parse_csv(text)
        assert header == ["level", "segment", "X", "Y", "Z"] and rows


def test_launch_mode_rejects_gammas():
    for sub in ("simulate", "reduced"):
        code, out, err = run_cli([sub, "--rho", "2.5", "--gammas", "5,5,5"])
        assert (code, out) == (1, ""), sub
        assert "--gammas" in err


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


def test_bifurcation_prints_a_comma_list_as_given():
    code, text, _ = run_cli(["bifurcation", "--gammas", "0.8,0.9,1.3", "--theta", "1"])
    assert code == 0
    _, rows = parse_csv(text)
    assert [float(r[0]) for r in rows] == [0.8, 0.9, 1.3]


def test_bifurcation_keeps_a_descending_range_in_order():
    code, text, _ = run_cli(["bifurcation", "--gammas", "1.3:0.8:-0.25", "--theta", "1"])
    assert code == 0
    _, rows = parse_csv(text)
    assert [float(r[0]) for r in rows] == [1.3, 1.05, 0.8]


def test_gammas_take_ranges_on_every_subcommand():
    start = ["--positions", "-1,0.5,1,-0.5,0.2,2"]
    for argv, as_range, as_list in (
        (["critical"], "0.4:1.0:0.6", "0.4,1.0"),
        (["simulate", *start, "--t-end", "1", "--samples", "3"], "0.5:1.5:0.5", "0.5,1,1.5"),
    ):
        code, text, _ = run_cli([*argv, "--gammas", as_range])
        assert code == 0
        assert run_cli([*argv, "--gammas", as_list]) == (0, text, "")
    for argv in (["simulate", *start], ["reduced", *start], ["critical"],
                 ["equilibria", "--theta", "1"], ["bifurcation"]):
        for bad in (f"1:{10 * MAX_VALUES}:1", "", ","):
            code, out, err = run_cli([*argv, "--gammas", bad])
            assert (code, out) == (1, ""), (argv, bad)
            assert err


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


def test_sweep_rejects_a_strength_that_is_not_positive_and_finite():
    for gamma in ("nan", "inf", "0", "-1"):
        code, out, err = run_cli(["sweep", "--rho", "0,1", f"--gamma={gamma}"])
        assert (code, out) == (1, ""), gamma
        assert "--gamma" in err


def test_value_lists_reject_blank_parts():
    for args in (
        ["simulate", "--positions", "1,2,,3,4,5,6", "--gammas", "1,0.7,-0.6"],
        ["critical", "--gammas", "1,,2"],
        ["critical", "--gammas", "1,2,"],
        ["sweep", "--rho", ""],
        ["sweep", "--rho", "0.5,"],
        ["closed-form", "--rho", ","],
        ["reduced", "--levels", "0.1,,0.2", "--gamma", "1", "--theta", "1"],
    ):
        code, out, err = run_cli(args)
        assert (code, out) == (1, ""), args
        assert err


def test_a_bad_gammas_keeps_the_parser_reason():
    _, _, rho_err = run_cli(["sweep", "--rho", "0:1e9:1e-3"])
    code, out, err = run_cli(["critical", "--gammas", "0.5:1e9:1e-3"])
    assert (code, out) == (1, "")
    want = f"asks for more than {MAX_VALUES} values"
    assert want in rho_err and want in err
    assert "cannot read --gammas '1,x'" in run_cli(["critical", "--gammas", "1,x"])[2]


_INTEGRATION_FLAGS = {"--rtol": "5", "--atol": "1e-12", "--L": "-3", "--d": "1",
                      "--t-end": "100", "--samples": "0"}


def test_levels_mode_rejects_the_integration_flags():
    leaf = ["reduced", "--levels", "2", "--gamma", "0.4", "--theta", "1.3"]
    code, out, err = run_cli([*leaf, "--rtol", "5", "--L", "-3", "--samples", "0"])
    assert (code, out) == (1, "") and "--rtol" in err
    # given alone, abbreviated, glued with '=' or equal to its default, each
    # flag is refused by its name
    for flag, value in _INTEGRATION_FLAGS.items():
        for argv in ([*leaf, flag, value], [*leaf, f"{flag}={value}"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (1, ""), argv
            assert f"{flag} does not apply to --levels mode" in err, argv
    code, out, err = run_cli([*leaf, "--samp", "1001"])
    assert (code, out) == (1, "") and "--samples does not" in err
    # the config echo still holds every default, and nothing else
    code, text, _ = run_cli([*leaf, "--format", "json"])
    config = json.loads(text)["config"]
    assert code == 0 and "given" not in config
    assert {k: config[k] for k in ("rtol", "atol", "launch", "spacing", "t_end", "samples")} == {
        "rtol": 1e-10, "atol": 1e-12, "launch": 100.0, "spacing": 1.0, "t_end": 100.0,
        "samples": 1001}
    # launch mode and the other integrating subcommands still take them
    for sub in ("reduced", "simulate"):
        argv = [sub, "--rho", "0.5", "--rtol", "1e-9", "--L", "12", "--t-end", "5",
                "--samples", "3", "--format", "json"]
        code, text, _ = run_cli(argv)
        assert code == 0 and "given" not in json.loads(text)["config"]


def test_levels_table_stops_past_max_values_rows(monkeypatch):
    argv = ["reduced", "--levels", "3", "--gamma", "1", "--theta", "1"]
    code, text, _ = run_cli(argv)
    rows = text.count("\r\n") - 1
    assert code == 0 and rows > 3
    monkeypatch.setattr(cli, "MAX_VALUES", rows)
    assert run_cli(argv) == (0, text, "")
    monkeypatch.setattr(cli, "MAX_VALUES", rows - 1)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "") and f"passes {rows - 1} rows" in err

    # the check runs as each level is traced: a long level list stops at
    # the first level that passes the bound
    traced = []
    contour_cells = reduction.contour_cells

    def counting(h, levels):
        for cell in contour_cells(h, levels):
            traced.append(cell)
            yield cell

    monkeypatch.setattr(reduction, "contour_cells", counting)
    monkeypatch.setattr(cli, "MAX_VALUES", 50)
    argv[2] = "50"
    code, out, _ = run_cli(argv)
    assert (code, out, len(traced)) == (1, "", 1)


def test_time_budgets_and_tolerances_out_of_range_are_usage_errors():
    for args in (
        *(["sweep", "--rho", "0.5", "--t-end", v] for v in ("-5", "0", "nan", "inf")),
        ["reduced", "--rho", "0.5", "--t-end", "200", "--atol", "inf"],
        ["simulate", "--rho", "0.5", "--rtol", "nan"],
    ):
        code, out, err = run_cli(args)
        assert (code, out) == (1, ""), args
        assert err


@pytest.mark.parametrize("t_end", ["1e-15", "1e-16"])
def test_span_below_the_minimum_step_simulates(t_end):
    # the one clamped step is shorter than the integrator's minimum step
    code, text, err = run_cli(
        ["simulate", "--rho", "2.5", "--t-end", t_end, "--samples", "2"]
    )
    assert (code, err) == (0, "")
    _, rows = parse_csv(text)
    assert [float(r[0]) for r in rows] == [0.0, float(t_end)]
    assert np.allclose(
        [float(c) for c in rows[1][1:7]], [float(c) for c in rows[0][1:7]],
        rtol=0.0, atol=1e-12,
    )


def test_step_budget_exhaustion_exits_numerical(monkeypatch):
    def exhausted(*args, **kwargs):
        raise StepBudgetExceeded(1.5, 3)

    monkeypatch.setattr(cli, "integrate", exhausted)
    code, out, err = run_cli(["simulate", "--rho", "2.5", "--t-end", "5"])
    assert (code, out) == (2, "")
    assert "StepBudgetExceeded" in err


def _reference_cell(cell):
    # the per-cell JSON mapping every row went through before float rows
    # were passed on as they are
    if cell is None or isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return bool(cell)
    if isinstance(cell, (int, np.integer)):
        return int(cell)
    x = float(cell)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _reference_fmt(cell):
    c = _reference_cell(cell)
    if c is None:
        return ""
    if isinstance(c, bool):
        return "1" if c else "0"
    if isinstance(c, float):
        return format(c, ".17g")
    return str(c)


def _reference_render(ns, columns, rows):
    """The per-cell writer that cli._render replaced: every cell of every
    row through _reference_cell, and in CSV through csv.writer."""
    if ns.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\r\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_reference_fmt(c) for c in row])
        return buf.getvalue()
    payload = {
        "config": {k: v for k, v in vars(ns).items() if k != "out"},
        "columns": list(columns),
        "rows": [[_reference_cell(c) for c in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


_EDGE_FLOATS = (
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max, 0.1,
)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(),
    st.floats(min_value=-1e-300, max_value=1e-300),
)
_FLOAT_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_OTHER_KINDS = (
    st.one_of(
        st.integers(),
        st.integers(min_value=2**53 - 2, max_value=2**70),
        st.sampled_from((2**53 + 1, -(2**60) - 1, 2**1024)),
        st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    ),
    st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    st.none(),
    st.text(alphabet='a1 ,"\'-', max_size=6),
)
# a row holds floats only, floats and one other kind of cell, or any mix
_ROWS = st.lists(
    st.sampled_from(
        (st.nothing(), *_OTHER_KINDS, st.one_of(*_OTHER_KINDS))
    ).flatmap(lambda other: st.lists(st.one_of(_FLOAT_CELLS, other), max_size=7)),
    max_size=8,
)


# a float64 table, as simulate and reduced hand it over: any shape,
# zero rows and zero or one column included
_FLOAT_TABLES = st.tuples(st.integers(0, 6), st.integers(0, 7)).flatmap(
    lambda shape: st.lists(_FLOATS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda cells: np.array(cells, dtype=np.float64).reshape(shape))
)
_EDGE_TABLE = np.array(_EDGE_FLOATS).reshape(3, 4)


# half the examples are float64 tables, so _ROWS keeps its 200
@settings(max_examples=400, deadline=None)
@given(rows=st.one_of(_ROWS, _FLOAT_TABLES), fmt=st.sampled_from(("csv", "json")))
@example(rows=_EDGE_TABLE, fmt="csv")
@example(rows=_EDGE_TABLE, fmt="json")
@example(rows=_EDGE_TABLE[1:], fmt="json")  # finite cells only
@example(rows=_EDGE_TABLE.reshape(-1, 1), fmt="csv")
@example(rows=_EDGE_TABLE.reshape(-1, 1), fmt="json")
@example(rows=np.empty((0, 3)), fmt="csv")
@example(rows=np.empty((0, 3)), fmt="json")
def test_render_is_the_per_cell_writer_byte_for_byte(rows, fmt):
    ns = argparse.Namespace(subcommand="test", format=fmt, out=None)
    columns = ("a", "b,c", 'd"e')
    assert cli._render(ns, columns, rows) == _reference_render(ns, columns, rows)


_NONFINITE_SAMPLE = ["bifurcation", "--gammas", "5e-324,0.5,2", "--theta", "1"]
_EMPTY_CELL_SAMPLE = ["critical", "--gammas", "5e-324,0.4,2"]
_TRAJECTORY_TAIL = ["--rho", "1.3", "--gamma", "0.4", "--t-end", "400",
                    "--samples", "4001"]


@pytest.mark.parametrize("argv", [
    *CASES.values(),
    ["simulate", *_TRAJECTORY_TAIL],
    ["reduced", *_TRAJECTORY_TAIL],
    _NONFINITE_SAMPLE,
    _EMPTY_CELL_SAMPLE,
], ids=[*CASES, "simulate-trajectory", "reduced-trajectory", "nonfinite", "empty-cell"])
def test_stdout_is_the_per_cell_writers(argv, monkeypatch):
    for fmt in ("csv", "json"):
        code, text, _ = run_cli(argv + ["--format", fmt])
        assert code == 0
        with monkeypatch.context() as m:
            m.setattr(cli, "_render", _reference_render)
            assert run_cli(argv + ["--format", fmt]) == (0, text, "")


def test_nonfinite_sample_spells_out_its_cells():
    _, text, _ = run_cli(_NONFINITE_SAMPLE)
    assert text.splitlines()[1] == (
        "4.9406564584124654e-324,-4.9406564584124654e-324,0,nan,0,nan,0,0,0,"
        "-9.8813129168249309e-324,0"
    )
    _, text, _ = run_cli(_EMPTY_CELL_SAMPLE)
    assert text.splitlines()[1:3] == ["4.9406564584124654e-324,-1,", "0.40000000000000002,-1,"]


def _refuse(cell):
    raise AssertionError(f"per-cell path reached with {cell!r}")


@pytest.mark.parametrize(
    "argv", [CASES["levels"], ["simulate", *_TRAJECTORY_TAIL], ["reduced", *_TRAJECTORY_TAIL]],
    ids=["levels", "simulate", "reduced"],
)
def test_tables_of_floats_and_ints_skip_the_per_cell_path(argv, monkeypatch):
    # in CSV; JSON takes every cell through _cell
    code, text, _ = run_cli(argv)
    assert code == 0
    monkeypatch.setattr(cli, "_fmt", _refuse)
    monkeypatch.setattr(cli, "_cell", _refuse)
    assert run_cli(argv) == (0, text, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_int_past_the_float_range_is_spelled_in_full(fmt):
    # math.isfinite raises on such an int, which json still prints exactly
    ns = argparse.Namespace(subcommand="test", format=fmt, out=None)
    rows = [[0.5, 2**1024, 3], [-(2**1100), 1.5]]
    assert cli._render(ns, ("a", "b", "c"), rows) == _reference_render(ns, ("a", "b", "c"), rows)


@pytest.mark.parametrize("odd", ["x", None, True, np.bool_(False), np.int64(3)])
def test_other_cells_still_take_the_per_cell_path(odd, monkeypatch):
    monkeypatch.setattr(cli, "_fmt", _refuse)
    monkeypatch.setattr(cli, "_cell", _refuse)
    ns = argparse.Namespace(subcommand="test", format="csv", out=None)
    cli._render(ns, ("a", "b", "c"), [[0.5, 2, 1.5]])
    with pytest.raises(AssertionError, match="per-cell path"):
        cli._render(ns, ("a", "b", "c"), [[0.5, 2, 1.5], [0.5, odd, 1.5]])


# the upper outcome flip at Gamma = 1 for a launch at L = 100, and a margin
# around it; the lab-vs-reduced gap grows as 1 / |rho - flip| near the flip
_FLIP_AT_L100 = 3.4964118281
_FLIP_MARGIN = 0.05


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
def test_launches_a_margin_from_the_flip_agree_in_both_routes(side):
    tail = ["--rho", repr(_FLIP_AT_L100 + side * _FLIP_MARGIN), "--gamma", "1",
            "--t-end", "400", "--samples", "4001"]
    tables = []
    for sub in ("simulate", "reduced"):
        code, text, _ = run_cli([sub, *tail])
        assert code == 0
        tables.append(np.array(parse_csv(text)[1], dtype=float)[::4])
    lab, red = tables
    assert np.array_equal(lab[:, 0], red[:, 0])
    worst = 0.0
    for lab_row, red_row in zip(lab, red):
        _, s = reduce_state(lab_row[1:7].reshape(3, 2), [1.0, 1.0, -1.0])
        p = np.array([s.X, s.Y, s.Z])
        worst = max(worst, np.max(np.abs(p - red_row[1:4])) / max(1.0, np.max(np.abs(p))))
    print(f"lab vs reduced {side * _FLIP_MARGIN:+} from the flip: {worst:.3g}")
    assert worst < 1e-6
