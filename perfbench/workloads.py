"""Seeded inputs, timed items and physics oracles of the four workloads.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``WORKLOADS.md`` beside this
file.  Inputs come from ``random.Random(seed)`` only; the library receives
nothing but the generated launch offsets, strengths and leaves.

Every workload is a stream of *rounds*, the unit a run finishes whole.
Rounds take the strengths (or leaf kinds) in a fixed turn and draw the
offsets stratified over their range, so the mix of work in a run depends
on its length, not on the seed: that keeps the per-run cost steady from
seed to seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from trivortex import cli, scattering
from trivortex.equilibria import critical_rho
from trivortex.errors import VortexError
from trivortex.grobli import from_positions, grobli_invariant
from trivortex.reduction import (
    HYPERBOLOID,
    NambuState,
    ReducedSystemSpec,
    nambu_rhs,
    reduce_state,
)

GAMMAS = (0.4, 1.0, 2.0)
RHO_RANGE = (-1.2, 3.7)
ROWS_PER_BATCH = 8          # sweep rows per strength in one round
LAUNCHES_PER_GAMMA = 2      # trajectory launches per strength in one round
T_END = 400.0               # long enough for the encounter to finish
SAMPLES = 4001
# the lab-to-reduced and Groebli oracles read every fourth sample, which
# keeps their cost below half of the launch they check
ORACLE_STRIDE = 4
CLOSED_FORM_POINTS = 8      # offsets tabulated on each Gamma = 1 leaf
# outcome windows are not checked this close to a critical offset
CRITICAL_MARGIN = 0.05

# Largest admissible oracle figure.  Integration figures sit near 1e-8 at
# the default tolerances (rtol 1e-10), so 1e-6 leaves room for rounding but
# catches a speed-up bought with looser tolerances.  Formula figures are
# pure arithmetic and sit near 1e-15.
GATES = {
    "drift": 1e-6,           # relative drift of H, Theta, M and the Groebli invariant
    "two_route": 1e-6,       # |delta_alpha - delta_alpha_reduced|, Gamma = 1 rows
    "lab_reduced": 1e-6,     # lab rows mapped to shape space vs reduced rows
    "casimir": 1e-6,         # emitted casimir_residual of the reduced table
    "leaf": 1e-12,           # level-set points off their leaf
    "closed_quad": 1e-8,     # closed form vs quadrature deflection
    "equilibrium": 1e-8,     # |nambu_rhs| at catalogued equilibria
}


@dataclass
class Item:
    """One unit of user work: its timed call and what its oracles found.

    ``record`` indexes the stopwatch record of the call that delivered the
    item; ``latency`` is filled in from it once the run is over.
    """

    record: int = -1
    latency: float = 0.0
    figures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    error: str = ""          # the program reported a failure
    digest: str = ""         # output fingerprint, compared across passes
    rows_out: int = 0
    bytes_out: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)

    def judge(self) -> "Item":
        for name, value in self.figures.items():
            if not value <= GATES[name]:
                self.problems.append(f"{name} = {value:.3e} above {GATES[name]:g}")
        return self


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi)."""
    w = (hi - lo) / n
    return [lo + (i + rng.random()) * w for i in range(n)]


def _away(x: float, points, margin: float) -> bool:
    return all(abs(x - p) >= margin for p in points)


def cli_calls(argvs: list[list[str]]) -> list[tuple[int, str]]:
    """``cli.main`` in-process on each argv, stdout captured: (code, text)."""
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.append((rc, buf.getvalue()))
    return out


def _table(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))[1:]


def _numeric(text: str) -> np.ndarray:
    return np.array(_table(text), dtype=float)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _num(x) -> str:
    return repr(float(x))


# --------------------------------------------------------------------- sweep

def outcome_problem(rho: float, gamma: float, outcome: str) -> str | None:
    """Outcome against the exchange window of ``equilibria.critical_rho``.

    Inside (rho_minus, rho_plus) the pair passes the saddle level: an
    exchange at Gamma = 1, a temporary swap otherwise.  Without a closed-form
    upper offset only the side below rho_minus is decided.
    """
    lo, hi = critical_rho(gamma)
    if not _away(rho, [lo] if hi is None else [lo, hi], CRITICAL_MARGIN):
        return None
    if rho > lo and hi is None:
        return None
    inside = hi is not None and lo < rho < hi
    swap = scattering.EXCHANGE if gamma == 1.0 else scattering.EXTENDED_DIRECT
    want = swap if inside else scattering.DIRECT
    if outcome != want:
        return f"rho={rho!r} Gamma={gamma}: outcome {outcome}, window says {want}"
    return None


def sweep_rounds(seed: int):
    """One (gamma, offsets) batch per round, strengths in turn, rho
    stratified over RHO_RANGE."""
    rng = random.Random(seed)
    for i in itertools.count():
        yield GAMMAS[i % len(GAMMAS)], _strata(rng, *RHO_RANGE, ROWS_PER_BATCH)


def check_row(rho: float, gamma: float, res) -> Item:
    """Oracles of one ``ScatteringResult``."""
    item = Item(digest=repr((rho, gamma, res.delta_alpha, res.outcome)))
    item.figures["drift"] = max(res.energy_drift, res.theta_drift, res.impulse_drift)
    if res.delta_alpha_reduced is not None:
        item.figures["two_route"] = abs(res.delta_alpha - res.delta_alpha_reduced)
    problem = outcome_problem(rho, gamma, res.outcome)
    if problem:
        item.problems.append(problem)
    return item.judge()


def _scatter(rho: float, gamma: float):
    """One ``scattering.run``: (result, "") or (None, error name)."""
    try:
        return scattering.run(scattering.ScatteringSetup(rho=rho, gamma=gamma)), ""
    except VortexError as exc:
        return None, type(exc).__name__


class Sweep:
    """Serial ``scattering.run`` calls; one item is one row.

    ``kernel`` names the stopwatch kernel closest to the workload's mix;
    ``cycle`` is the number of rounds that cover every kind of input.
    """

    name = "sweep"
    kernel = "numpy"
    rounds = staticmethod(sweep_rounds)
    cycle = len(GAMMAS)

    def run(self, rnd, watch) -> list[Item]:
        gamma, rhos = rnd
        items = []
        for rho in rhos:
            (res, error), record = watch.time(_scatter, rho, gamma)
            item = Item(error=error) if error else check_row(rho, gamma, res)
            item.record = record
            items.append(item)
        return items


class SweepPool:
    """One ``scattering.sweep`` call per round with ``jobs`` workers.

    One item is one row.  A row reaches the caller when its ``sweep`` call
    returns, so its latency is that call's wall time.
    """

    name = "sweep-pool"
    # the timer samples run beside the workers, so they also absorb the
    # steady share of CPU the workers take: corrected pool times read
    # about 20% lower than on an idle host, the same in every run
    kernel = "numpy"
    rounds = staticmethod(sweep_rounds)
    cycle = len(GAMMAS)

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def run(self, rnd, watch) -> list[Item]:
        gamma, rhos = rnd
        (_, rows), record = watch.time(scattering.sweep, rhos, gamma, jobs=self.jobs)
        items = []
        for row in rows:
            rho, _, _, outcome, flags = row
            item = Item(record, error=flags, digest=repr(row))
            if not flags:
                problem = outcome_problem(rho, gamma, outcome)
                if problem:
                    item.problems.append(problem)
            items.append(item)
        if self.jobs > 1 and gamma == GAMMAS[0]:
            # once a cycle, the first row against the serial path
            _, serial = scattering.sweep(rhos[:1], gamma, jobs=1)
            if repr(serial[0]) != items[0].digest:
                items[0].problems.append(
                    f"pool row {items[0].digest} differs from serial {serial[0]!r}"
                )
        return items


# ---------------------------------------------------------------- trajectory

def trajectory_rounds(seed: int):
    """Rounds of (rho, gamma) launches, rho stratified per strength."""
    rng = random.Random(seed)
    while True:
        yield [
            (rho, g)
            for g in GAMMAS
            for rho in _strata(rng, *RHO_RANGE, LAUNCHES_PER_GAMMA)
        ]


def relative_drift(column: np.ndarray) -> float:
    return float(np.max(np.abs(column - column[0]))) / max(1.0, abs(column[0]))


def check_trajectory(gamma: float, lab_text: str, red_text: str) -> Item:
    """Oracles of one launch's lab and reduced tables."""
    item = Item()
    lab = _numeric(lab_text)   # t, x1, y1, x2, y2, x3, y3, H, Theta, Mx, My
    red = _numeric(red_text)   # t, X, Y, Z, H_red, casimir_residual[, alpha]
    if lab.shape[0] != red.shape[0] or lab.shape[0] < 2:
        item.problems.append(f"tables have {lab.shape[0]} and {red.shape[0]} rows")
        return item
    if not np.array_equal(lab[:, 0], red[:, 0]):
        item.problems.append("lab and reduced tables sample different times")
    g = np.array([1.0, gamma, -1.0])
    spec = ReducedSystemSpec.for_circulations(g)
    checked = slice(None, None, ORACLE_STRIDE)
    groebli = np.array([grobli_invariant(from_positions(p.reshape(3, 2)), g)
                        for p in lab[checked, 1:7]])
    item.figures["drift"] = max(
        *(relative_drift(lab[:, c]) for c in (7, 8, 9, 10)), relative_drift(groebli)
    )
    worst = 0.0
    for lab_row, red_row in zip(lab[checked], red[checked]):
        _, s = reduce_state(lab_row[1:7].reshape(3, 2), g, spec)
        p = np.array([s.X, s.Y, s.Z])
        gap = float(np.max(np.abs(p - red_row[1:4]))) / max(1.0, float(np.max(np.abs(p))))
        worst = max(worst, gap)
    item.figures["lab_reduced"] = worst
    item.figures["casimir"] = float(np.max(red[:, 5]))
    return item.judge()


class TrajectoryWorkload:
    """``simulate`` and ``reduced --rho`` per launch; one item is one launch."""

    name = "trajectory"
    kernel = "numpy"
    rounds = staticmethod(trajectory_rounds)
    cycle = 1

    def run(self, rnd, watch) -> list[Item]:
        items = []
        for rho, gamma in rnd:
            tail = ["--rho", _num(rho), "--gamma", _num(gamma),
                    "--t-end", _num(T_END), "--samples", str(SAMPLES)]
            ((rc_lab, lab), (rc_red, red)), record = watch.time(
                cli_calls, [["simulate", *tail], ["reduced", *tail]])
            if rc_lab or rc_red:
                items.append(Item(record, error=f"exit codes {rc_lab}, {rc_red}"))
                continue
            item = check_trajectory(gamma, lab, red)
            item.record = record
            item.digest = _digest(lab + red)
            item.rows_out = lab.count("\r\n") + red.count("\r\n") - 2
            item.bytes_out = len(lab) + len(red)
            items.append(item)
        return items


# ------------------------------------------------------------------ portrait

def portrait_rounds(seed: int):
    """One leaf per round, in turn: the (1,1,1) sphere and hyperboloids at
    Gamma = 1, 0.4 and 2.  Leaves keep clear of the singular leaf Theta = 0
    and of the closed form's boundary Theta = -1."""
    rng = random.Random(seed)

    def theta(lo, hi, avoid):
        while True:
            t = rng.uniform(lo, hi)
            if _away(t, avoid, 0.3):
                return t

    def offsets(leaf_rho):
        found = [leaf_rho]
        while len(found) < CLOSED_FORM_POINTS:
            r = rng.uniform(-2.0, 5.0)
            if _away(r, (-1.0, -0.5, 3.5), CRITICAL_MARGIN):
                found.append(r)
        return found

    while True:
        yield "1,1,1", theta(0.5, 3.0, ()), None
        t1 = theta(-3.0, 6.0, (0.0, -1.0))
        yield "1", t1, offsets((t1 - 1.0) / 2.0)
        yield "0.4", theta(-3.0, 4.0, (0.0,)), None
        yield "2.0", theta(-3.0, 4.0, (0.0,)), None


def _leaf_residual(geometry: str, theta: float, x, y, z) -> np.ndarray:
    if geometry == HYPERBOLOID:
        raw = z * z - x * x - y * y - theta * theta
    else:
        raw = x * x + y * y + z * z - theta * theta
    return np.abs(raw) / np.maximum(
        1.0, np.maximum(theta * theta, x * x + y * y + z * z)
    )


def check_portrait(strengths: str, theta: float, levels: str, equilibria: str,
                   closed: str | None) -> Item:
    """Oracles of one leaf's tables."""
    item = Item()
    g = [float(s) for s in strengths.split(",")] if "," in strengths else [
        1.0, float(strengths), -1.0]
    spec = ReducedSystemSpec.for_circulations(g)
    pts = _numeric(levels)        # level, segment, X, Y, Z
    if pts.shape[0] == 0:
        item.problems.append("no level-set points")
        return item
    item.figures["leaf"] = float(np.max(
        _leaf_residual(spec.geometry, theta, pts[:, 2], pts[:, 3], pts[:, 4])
    ))
    worst = 0.0
    for row in _table(equilibria):
        if row[1] != "equilibrium":
            continue
        x, y, z = (float(v) for v in row[3:6])
        rate = nambu_rhs(spec, NambuState(x, y, z, theta, row[2]))
        worst = max(worst, max(map(abs, rate)) / max(1.0, abs(x), abs(y), abs(z)))
    item.figures["equilibrium"] = worst
    if closed is not None:
        worst = 0.0
        for rho, _, _, a, b in _table(closed):
            if not (a and b):
                item.problems.append(f"closed-form row at rho={rho} has no value")
                continue
            worst = max(worst, abs(float(a) - float(b)) / max(1.0, abs(float(b))))
        item.figures["closed_quad"] = worst
    return item.judge()


class Portrait:
    """``reduced --levels`` and ``equilibria`` per leaf, plus ``closed-form``
    on Gamma = 1 leaves; one item is one leaf."""

    name = "portrait"
    kernel = "interpreter"
    rounds = staticmethod(portrait_rounds)
    cycle = 4

    def run(self, rnd, watch) -> list[Item]:
        strengths, theta, rhos = rnd
        family = ["--gammas", strengths] if "," in strengths else ["--gamma", strengths]
        leaf = [*family, "--theta", _num(theta)]
        argvs = [["reduced", "--levels", *leaf], ["equilibria", *leaf]]
        if rhos is not None:
            argvs.append(["closed-form", "--rho", ",".join(map(_num, rhos))])
        calls, record = watch.time(cli_calls, argvs)
        if any(rc for rc, _ in calls):
            return [Item(record, error=f"exit codes {[rc for rc, _ in calls]}")]
        texts = [text for _, text in calls]
        item = check_portrait(strengths, theta, texts[0], texts[1],
                              texts[2] if rhos is not None else None)
        item.record = record
        item.digest = _digest("".join(texts))
        item.rows_out = sum(t.count("\r\n") - 1 for t in texts)
        item.bytes_out = sum(map(len, texts))
        return [item]


def make(name: str, jobs: int):
    """The workload object for a name."""
    if name == "sweep-pool":
        return SweepPool(jobs)
    return {"sweep": Sweep, "trajectory": TrajectoryWorkload,
            "portrait": Portrait}[name]()
