"""In-memory span tracing of trivortex from outside the package.

Each traced call site is a module attribute that a caller looks up at call
time (``core.rhs`` is reached through the ``flat_rhs`` closure,
``cli.integrate`` through ``cmd_simulate``, and so on).  The tracer swaps
that attribute for a wrapper while it is installed and restores it after.
A span is ``[name, start, end, parent_index, note]``; spans stay in memory
until the run ends.  A layer's self time is its span time minus the time
of its child spans.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name, workloads expected to reach the site).
# Names are resolved through importlib because ``trivortex.integrate``
# as an attribute is the function, not the module.
SITES = (
    ("trivortex.core", "rhs", "core.rhs", ("sweep", "sweep-pool", "trajectory")),
    ("trivortex.cli", "conserved", "core.conserved", ("trajectory",)),
    ("trivortex.scattering", "integrate", "integrate", ("sweep", "sweep-pool")),
    ("trivortex.cli", "integrate", "integrate", ("trajectory",)),
    ("trivortex.integrate", "Trajectory.interpolate", "integrate.interpolate",
     ("trajectory",)),
    ("trivortex.scattering", "reduce_state", "reduction.reduce_state",
     ("sweep", "sweep-pool")),
    ("trivortex.cli", "reduce_state", "reduction.reduce_state", ("trajectory",)),
    ("trivortex.reduction", "reduced_gradients", "reduction.reduced_gradients",
     ("trajectory",)),
    ("trivortex.cli", "reduced_hamiltonian", "reduction.reduced_hamiltonian",
     ("trajectory", "portrait")),
    ("trivortex.scattering", "run", "scattering.run", ("sweep", "sweep-pool")),
    ("trivortex.cli", "equilibria_11m1", "equilibria.catalog", ("portrait",)),
    ("trivortex.cli", "equilibria_gamma", "equilibria.catalog", ("portrait",)),
    ("trivortex.cli", "equilibria_111", "equilibria.catalog", ("portrait",)),
    ("trivortex.cli", "delta_alpha_closed", "elliptic.closed", ("portrait",)),
    ("trivortex.cli", "delta_alpha_quadrature", "elliptic.quadrature",
     ("portrait",)),
    ("trivortex.cli", "main", "cli.main", ("trajectory", "portrait")),
)

# spans that must not occur at all on a workload
BYPASSES = {
    "sweep": ("integrate.interpolate",),
    "sweep-pool": ("integrate.interpolate",),
    "trajectory": ("scattering.run",),
    "portrait": ("core.rhs", "integrate", "scattering.run"),
}

# what the returned value tells about the work done inside the span
NOTES = {
    "integrate": lambda traj: len(traj.ts) - 1,  # accepted steps
    "scattering.run": lambda res: res.escape_time,
}

RHS_SPANS = ("core.rhs", "reduction.reduced_gradients")

# per-layer metrics the traced run reports: name -> (unit, better)
LAYER_METRICS = {
    "core.rhs.calls": ("count", "lower"),
    "core.rhs.self_s": ("s", "lower"),
    "core.rhs.us_per_call": ("us", "lower"),
    "core.conserved.calls": ("count", "lower"),
    "core.conserved.self_s": ("s", "lower"),
    "integrate.calls": ("count", "lower"),
    "integrate.self_s": ("s", "lower"),
    "integrate.step_attempts": ("count", "lower"),
    "integrate.accepted_steps": ("count", "lower"),
    "integrate.accept_ratio": ("ratio", "higher"),
    "integrate.self_us_per_attempt": ("us", "lower"),
    "integrate.interpolate.calls": ("count", "lower"),
    "integrate.interpolate.self_s": ("s", "lower"),
    "reduction.reduce_state.calls": ("count", "lower"),
    "reduction.reduce_state.self_s": ("s", "lower"),
    "reduction.reduced_gradients.calls": ("count", "lower"),
    "reduction.reduced_gradients.self_s": ("s", "lower"),
    "reduction.reduced_hamiltonian.calls": ("count", "lower"),
    "reduction.reduced_hamiltonian.self_s": ("s", "lower"),
    "scattering.runs": ("count", "lower"),
    "scattering.self_s": ("s", "lower"),
    "scattering.chunks_per_run": ("count", "lower"),
    "scattering.sim_time": ("time_unit", "lower"),
    "equilibria.catalog.calls": ("count", "lower"),
    "equilibria.catalog.self_s": ("s", "lower"),
    "elliptic.closed.calls": ("count", "lower"),
    "elliptic.closed.self_s": ("s", "lower"),
    "elliptic.quadrature.calls": ("count", "lower"),
    "elliptic.quadrature.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.rows_out": ("rows", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "pool.overhead_s": ("s", "lower"),
    "pool.efficiency": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while ``active``; a context manager installs it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.site_calls: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attribute, name, _ in SITES:
            owner, attr = _resolve(module, attribute)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, (module, attribute), original))
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, site, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.site_calls[site] += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(out)
            return out

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the duration of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _rhs_in_integrate(spans: list[list]) -> int:
    return sum(
        1 for name, _, _, parent, _ in spans
        if name in RHS_SPANS and parent >= 0 and spans[parent][0] == "integrate"
    )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass."""
    own = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        calls[name] += 1
        busy[name] += t
    attempts = (_rhs_in_integrate(spans) - 2 * calls["integrate"]) / 6
    accepted = sum(s[4] or 0 for s in spans if s[0] == "integrate")
    chunks = sum(
        1 for name, _, _, parent, _ in spans
        if name == "integrate" and parent >= 0 and spans[parent][0] == "scattering.run"
    )
    runs = calls["scattering.run"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("core.rhs", "core.conserved", "integrate", "integrate.interpolate",
                  "reduction.reduce_state", "reduction.reduced_gradients",
                  "reduction.reduced_hamiltonian", "equilibria.catalog",
                  "elliptic.closed", "elliptic.quadrature"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = busy[layer]
    out["core.rhs.us_per_call"] = 1e6 * ratio(busy["core.rhs"], calls["core.rhs"])
    out["integrate.step_attempts"] = attempts
    out["integrate.accepted_steps"] = accepted
    out["integrate.accept_ratio"] = ratio(accepted, attempts)
    out["integrate.self_us_per_attempt"] = 1e6 * ratio(busy["integrate"], attempts)
    out["scattering.runs"] = runs
    out["scattering.self_s"] = busy["scattering.run"]
    out["scattering.chunks_per_run"] = ratio(chunks, runs)
    out["scattering.sim_time"] = sum(
        s[4] or 0.0 for s in spans if s[0] == "scattering.run"
    )
    out["cli.self_s"] = busy["cli.main"]
    return out


def assertions(workload: str, tracer: Tracer) -> list[str]:
    """Bypass, count-identity and coverage checks; returns what failed."""
    problems = []
    names = Counter(s[0] for s in tracer.spans)
    for name in BYPASSES[workload]:
        if names[name]:
            problems.append(f"{name} ran {names[name]} times; expected bypass")
    extra = _rhs_in_integrate(tracer.spans) - 2 * names["integrate"]
    if extra % 6:
        problems.append(f"RHS calls inside integrate minus 2 per call = {extra}, "
                        "not a multiple of 6")
    for module, attribute, name, expected in SITES:
        if workload in expected and not tracer.site_calls[(module, attribute)]:
            problems.append(f"{module}.{attribute} ({name}) was never reached")
    return problems
