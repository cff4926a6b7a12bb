"""The benchmark's own checks: oracles catch corruption, seeds fix inputs,
traced counts repeat, and the metric lists agree with BENCHMARK.json."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import pytest

import measure
import run
import spans
import workloads
from stopwatch import Stopwatch
from trivortex import scattering

ROOT = Path(__file__).resolve().parent.parent


def _rounds(make_rounds, seed, n=4):
    return list(itertools.islice(make_rounds(seed), n))


@pytest.mark.parametrize("make_rounds", [
    workloads.sweep_rounds, workloads.trajectory_rounds, workloads.portrait_rounds,
])
def test_seed_fixes_the_inputs(make_rounds):
    assert _rounds(make_rounds, 7) == _rounds(make_rounds, 7)
    assert _rounds(make_rounds, 7) != _rounds(make_rounds, 8)


def test_sweep_offsets_are_stratified():
    lo, hi = workloads.RHO_RANGE
    width = (hi - lo) / workloads.ROWS_PER_BATCH
    for gamma, rhos in _rounds(workloads.sweep_rounds, 3, 6):
        assert gamma in workloads.GAMMAS
        assert [int((r - lo) // width) for r in rhos] == list(
            range(workloads.ROWS_PER_BATCH))


@pytest.fixture(scope="module")
def unit_row():
    return scattering.run(scattering.ScatteringSetup(rho=2.5, gamma=1.0))


def test_row_oracle_flags_a_perturbed_angle(unit_row):
    assert not workloads.check_row(2.5, 1.0, unit_row).failed
    bent = dataclasses.replace(unit_row, delta_alpha=unit_row.delta_alpha + 1e-4)
    item = workloads.check_row(2.5, 1.0, bent)
    assert item.failed and any("two_route" in p for p in item.problems)


def test_row_oracle_flags_an_outcome_outside_the_window(unit_row):
    direct = dataclasses.replace(unit_row, outcome=scattering.DIRECT)
    item = workloads.check_row(2.5, 1.0, direct)
    assert item.failed and any("window" in p for p in item.problems)


def _sphere_levels(theta, shift=0.0):
    rows = ["level,segment,X,Y,Z"]
    for k in range(12):
        u, v = 0.3 + 0.2 * k, 0.5 * k
        x = theta * math.sin(u) * math.cos(v)
        y = theta * math.sin(u) * math.sin(v)
        z = theta * math.cos(u) + (shift if k == 5 else 0.0)
        rows.append(f"-0.5,{k},{x!r},{y!r},{z!r}")
    return "\r\n".join(rows) + "\r\n"


def test_leaf_oracle_flags_a_point_off_the_leaf():
    (rc, eq), = workloads.cli_calls([["equilibria", "--gammas", "1,1,1", "--theta", "1.5"]])
    assert rc == 0
    assert not workloads.check_portrait("1,1,1", 1.5, _sphere_levels(1.5), eq, None).failed
    item = workloads.check_portrait("1,1,1", 1.5, _sphere_levels(1.5, 1e-6), eq, None)
    assert item.failed and any("leaf" in p for p in item.problems)


def test_trajectory_oracle_flags_a_shifted_lab_row():
    tail = ["--rho", "1.5", "--t-end", "30", "--samples", "61"]
    (rc1, lab), (rc2, red) = workloads.cli_calls([["simulate", *tail], ["reduced", *tail]])
    assert rc1 == rc2 == 0
    assert not workloads.check_trajectory(1.0, lab, red).failed
    lines = lab.split("\r\n")
    # one checked lab row a sample late: the next row's positions under its time
    k = 1 + 7 * workloads.ORACLE_STRIDE
    lines[k] = ",".join(lines[k].split(",")[:1] + lines[k + 1].split(",")[1:])
    item = workloads.check_trajectory(1.0, "\r\n".join(lines), red)
    assert item.failed and any("lab_reduced" in p for p in item.problems)


def _counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith(("_s", "per_call",
                                                               "per_attempt"))}


def test_traced_counts_repeat_for_a_seed():
    sweep = workloads.make("sweep", 1)
    rounds = [(0.4, [2.3]), (1.0, [1.7])]
    seen = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            measure.run_rounds(sweep, rounds, tracer=tracer)
        assert spans.assertions("sweep", tracer) == []
        seen.append(_counts(spans.layer_metrics(tracer.spans)))
    assert seen[0] == seen[1]
    assert seen[0]["scattering.runs"] == 2
    assert seen[0]["integrate.interpolate.calls"] == 0


def test_tracing_covers_timed_calls_only():
    argv = [["equilibria", "--gammas", "1,1,1", "--theta", "1.5"]]
    with spans.Tracer() as tracer, Stopwatch(tracer=tracer) as watch:
        ((rc, eq),), _ = watch.time(workloads.cli_calls, argv)
        timed = len(tracer.spans)
        # the equilibrium oracle calls nambu_rhs, which reaches a traced site
        workloads.check_portrait("1,1,1", 1.5, _sphere_levels(1.5), eq, None)
    assert rc == 0 and timed > 0 and len(tracer.spans) == timed


def test_tracer_restores_every_site():
    from trivortex import cli, core

    before = (core.rhs, cli.main)
    with spans.Tracer():
        assert (core.rhs, cli.main) != before
    assert (core.rhs, cli.main) == before


def test_every_site_is_expected_somewhere():
    for *_, expected in spans.SITES:
        assert expected and set(expected) <= set(run.NAMES)
    assert set(spans.BYPASSES) == set(run.NAMES)


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == measure.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == spans.LAYER_METRICS
    produced = set(spans.layer_metrics([])) | set(measure.TRACE_EXTRAS)
    assert produced == set(spans.LAYER_METRICS)
