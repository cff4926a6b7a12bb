"""Command line front end emitting CSV or JSON tables.

Every subcommand funnels through the same writer so identical configs
produce byte-identical files: CSV cells carry 17 significant digits
(lossless double round-trip), JSON wraps one object with the echoed
config, the column names and the row data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import conserved, flat_rhs
from .elliptic import delta_alpha_closed, delta_alpha_quadrature, p4_factor
from .equilibria import (
    bifurcation_sweep,
    critical_rho,
    equilibria_111,
    equilibria_11m1,
    equilibria_gamma,
)
from .errors import BadSetup, BoundaryTheta, VortexError
from .integrate import IntegratorOptions, integrate
from .reduction import (
    LeafGrid,
    ReducedSystemSpec,
    heading_rate,
    leaf_residual,
    reduce_state,
    reduced_hamiltonian,
    reduced_rhs_flat,
)
from .scattering import DEFAULT_TIME_BUDGET, ScatteringSetup, initial_state, sweep

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

# longest value list, sample count or level count any option may ask for;
# checked before anything of that length is built
MAX_VALUES = 1_000_000

SIMULATE_COLUMNS = (
    "t", "x1", "y1", "x2", "y2", "x3", "y3", "H", "Theta", "Mx", "My",
)
REDUCED_COLUMNS = ("t", "X", "Y", "Z", "H_red", "casimir_residual")
LEVEL_COLUMNS = ("level", "segment", "X", "Y", "Z")
CRITICAL_COLUMNS = ("Gamma", "rho_minus", "rho_plus")
EQUILIBRIA_COLUMNS = (
    "label", "kind", "geometry", "X", "Y", "Z", "Theta", "pair",
    "degenerate",
    "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im",
)
CLOSED_FORM_COLUMNS = (
    "rho", "Theta", "regime", "delta_alpha_closed",
    "delta_alpha_quadrature",
)


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: subcommand, its options, output routing."""

    subcommand: str
    options: dict
    out: str | None
    format: str
    seed: int

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "format": self.format,
            **self.options,
        }


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for
    # numerical failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_values(text: str, what: str) -> list[float]:
    """One number, a comma list, or an inclusive start:stop:step range."""
    text = text.strip()
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",") if p.strip()]
        start, stop, step = (float(p) for p in text.split(":"))
        if step == 0.0 or not (stop - start) * step >= 0.0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"cannot read {what} {text!r}: use a number, a comma list, "
            "or start:stop:step"
        ) from None
    span = (stop - start) / step + 1e-9
    if not span < MAX_VALUES:
        raise ValueError(f"{what} {text!r} asks for more than {MAX_VALUES} values")
    return [start + i * step for i in range(int(math.floor(span)) + 1)]


def _parse_positions(text: str) -> np.ndarray:
    vals = [float(p) for p in text.split(",")]
    if len(vals) != 6:
        raise ValueError("positions need exactly six numbers x1,y1,...,y3")
    return np.array(vals).reshape(3, 2)


def _fmt(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    x = float(cell)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_cell(cell):
    if cell is None or isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return bool(cell)
    if isinstance(cell, (int, np.integer)):
        return int(cell)
    x = float(cell)
    if math.isnan(x) or math.isinf(x):
        return _fmt(x)  # strict JSON has no non-finite literals
    return x


def _emit(config: RunConfig, columns, rows) -> None:
    if config.format == "csv":
        text = _render_csv(columns, rows)
    else:
        payload = {
            "config": config.as_dict(),
            "columns": list(columns),
            "rows": [[_json_cell(c) for c in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="") as f:
            f.write(text)


def _render_csv(columns, rows) -> str:
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def _launch_or_positions(ns) -> tuple[np.ndarray, np.ndarray]:
    if (ns.rho is None) == (ns.positions is None):
        raise ValueError("give exactly one of --rho or --positions")
    if ns.positions is not None:
        if ns.gammas is None:
            raise ValueError("--positions requires --gammas a,b,c")
        g = np.array(ns.gammas)
        if g.shape != (3,):
            raise ValueError("--gammas needs exactly three strengths")
        return _parse_positions(ns.positions), g
    rhos = _parse_values(ns.rho, "--rho")
    if len(rhos) != 1:
        raise ValueError("this subcommand takes a single --rho value")
    setup = ScatteringSetup(
        rho=rhos[0], gamma=ns.gamma, launch=ns.launch, spacing=ns.spacing
    )
    return initial_state(setup)


def _uniform_times(t_end: float, samples: int) -> np.ndarray:
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError("--t-end must be positive and finite")
    if not 2 <= samples <= MAX_VALUES:
        raise ValueError(f"--samples must be between 2 and {MAX_VALUES}")
    return np.linspace(0.0, t_end, samples)


def cmd_simulate(ns) -> tuple[tuple, list]:
    positions, g = _launch_or_positions(ns)
    ts = _uniform_times(ns.t_end, ns.samples)
    traj = integrate(
        flat_rhs(g),
        positions.reshape(6),
        IntegratorOptions(rtol=ns.rtol, atol=ns.atol, t_end=ns.t_end),
    )
    ys = traj.interpolate(ts)
    c = conserved(ys.reshape(-1, 3, 2), g)
    rows = [
        (float(t), *y, *inv)
        for t, y, inv in zip(ts, ys, zip(c.H, c.Theta, *c.M))
    ]
    return SIMULATE_COLUMNS, rows


def cmd_reduced(ns) -> tuple[tuple, list]:
    if ns.levels is not None:
        return _reduced_levels(ns)
    positions, g = _launch_or_positions(ns)
    ts = _uniform_times(ns.t_end, ns.samples)
    spec, s0 = reduce_state(positions, g)
    theta = s0.Theta
    with_alpha = spec.selector == "specialized-11m1"
    f3 = reduced_rhs_flat(spec, theta)

    if with_alpha:
        def f(t, v):
            return np.append(f3(t, v[:3]), heading_rate(v[0], v[1], theta))

        y0 = np.array([s0.X, s0.Y, s0.Z, 0.0])
    else:
        f = f3
        y0 = np.array([s0.X, s0.Y, s0.Z])
    traj = integrate(
        f, y0, IntegratorOptions(rtol=ns.rtol, atol=ns.atol, t_end=ns.t_end)
    )
    columns = REDUCED_COLUMNS + (("alpha",) if with_alpha else ())
    vs = traj.interpolate(ts)
    res, scale = leaf_residual(s0.geometry, vs[:, 0], vs[:, 1], vs[:, 2], theta)
    rows = []
    for t, v, r in zip(ts, vs.tolist(), np.abs(res) / scale):
        h = reduced_hamiltonian(
            spec, SimpleNamespace(X=v[0], Y=v[1], Z=v[2], Theta=theta)
        )
        rows.append((float(t), *v[:3], h, float(r), *v[3:]))
    return columns, rows


def _family(ns):
    """Equilibrium catalog plus reduction spec for the requested strengths."""
    if ns.gammas is not None:
        g = list(ns.gammas)
        if len(g) != 3:
            raise ValueError("--gammas needs exactly three strengths")
        if g[0] == g[1] == g[2] and g[0] > 0:
            return (
                lambda th: equilibria_111(th),
                ReducedSystemSpec.for_circulations([1.0, 1.0, 1.0]),
            )
        if g[0] == 1.0 and g[2] == -1.0 and g[1] > 0.0:
            return _gamma_family(g[1])
        raise ValueError(
            "equilibrium catalogs cover strengths (1,Gamma,-1) and (1,1,1)"
        )
    return _gamma_family(ns.gamma)


def _gamma_family(gamma: float):
    if gamma <= 0.0:
        raise ValueError("--gamma must be positive")
    if abs(gamma - 1.0) < 1e-12:
        catalog = equilibria_11m1
    else:
        def catalog(th):
            return equilibria_gamma(gamma, th)
    return catalog, ReducedSystemSpec.for_circulations([1.0, gamma, -1.0])


def _auto_levels(h_grid: np.ndarray, anchors: list[float], count: int):
    finite = h_grid[np.isfinite(h_grid)]
    if finite.size == 0:
        raise VortexError("no finite energies on the sampled leaf")
    lo, hi = np.percentile(finite, [5.0, 95.0])
    base = list(np.linspace(lo, hi, count)) + anchors
    seen = []
    for v in sorted(float(b) for b in base):
        if not seen or abs(v - seen[-1]) > 1e-9 * max(1.0, abs(v)):
            seen.append(v)
    return seen


def _reduced_levels(ns) -> tuple[tuple, list]:
    catalog, spec = _family(ns)
    if ns.theta is None:
        raise ValueError("--levels mode needs --theta")
    theta = ns.theta
    sphere = spec.kappa2 > 0.0
    if sphere and theta == 0.0:
        raise BoundaryTheta("the spherical leaf degenerates at Theta = 0")
    # a lone positive integer asks for that many automatic levels
    count, values = 9, None
    if ns.levels != "auto":
        values = _parse_values(ns.levels, "--levels")
        if (
            len(values) == 1 and float(values[0]).is_integer() and values[0] > 0
            and ":" not in ns.levels and "," not in ns.levels
        ):
            count, values = int(values[0]), None
            if count > MAX_VALUES:
                raise ValueError(f"--levels asks for more than {MAX_VALUES} levels")

    try:
        points = [p for p in catalog(theta) if p.kind == "equilibrium"]
    except VortexError:
        points = []
    anchors = []
    for p in points:
        try:
            anchors.append(reduced_hamiltonian(spec, p.as_state()))
        except VortexError:
            continue
    window = None
    if not sphere:
        saddle_x = [
            p.coords[0] for p in points if p.label.startswith(("E_tri", "E_-1"))
        ]
        window = max(4.0 * max(1.0, abs(theta)),
                     *(1.3 * abs(x) for x in saddle_x or [0.0]))
    grid = LeafGrid.sample(spec, theta, window)

    levels = (
        _auto_levels(grid.energy, anchors, count) if values is None else sorted(values)
    )
    rows = []
    for level in levels:
        # segment k runs from row 2k to row 2k + 1
        X, Y, Z = (c.ravel().tolist() for c in grid.level_set(level))
        rows += [(level, k // 2, x, y, z) for k, (x, y, z) in enumerate(zip(X, Y, Z))]
    return LEVEL_COLUMNS, rows


def cmd_sweep(ns) -> tuple[tuple, list]:
    if ns.rho is None:
        raise ValueError("sweep needs --rho (value, list, or range)")
    rhos = _parse_values(ns.rho, "--rho")
    if ns.gamma <= 0.0:
        raise ValueError("--gamma must be positive")
    if ns.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    t_max = ns.t_end if ns.t_end is not None else DEFAULT_TIME_BUDGET
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError("--t-end must be positive and finite")
    return sweep(
        rhos,
        ns.gamma,
        IntegratorOptions(rtol=ns.rtol, atol=ns.atol),
        launch=ns.launch,
        spacing=ns.spacing,
        t_max=t_max,
        jobs=ns.jobs,
    )


def cmd_critical(ns) -> tuple[tuple, list]:
    gammas = ns.gammas if ns.gammas is not None else [ns.gamma]
    rows = []
    for g in gammas:
        lo, hi = critical_rho(float(g))
        rows.append((float(g), lo, hi))
    return CRITICAL_COLUMNS, rows


def cmd_equilibria(ns) -> tuple[tuple, list]:
    catalog, _ = _family(ns)
    if ns.theta is None:
        raise ValueError("equilibria needs --theta")
    rows = []
    for p in catalog(ns.theta):
        x, y, z = p.coords
        pair = "" if p.pair is None else f"{p.pair[0] + 1}-{p.pair[1] + 1}"
        eig = []
        if p.eigenvalues is None:
            eig = [None] * 6
        else:
            for lam in p.eigenvalues:
                eig.extend([lam.real, lam.imag])
        rows.append(
            (p.label, p.kind, p.geometry, x, y, z, p.theta, pair,
             p.degenerate, *eig)
        )
    return EQUILIBRIA_COLUMNS, rows


def cmd_bifurcation(ns) -> tuple[tuple, list]:
    if ns.gammas is None or len(ns.gammas) < 2:
        raise ValueError(
            "bifurcation needs --gammas as a range start:stop:step"
        )
    theta = ns.theta if ns.theta is not None else 1.0
    g = ns.gammas
    return bifurcation_sweep(theta, float(g[0]), float(g[-1]), len(g))


def cmd_closed_form(ns) -> tuple[tuple, list]:
    if ns.rho is None:
        raise ValueError("closed-form needs --rho (value, list, or range)")
    rows = []
    for rho in _parse_values(ns.rho, "--rho"):
        theta = 1.0 + 2.0 * rho
        try:
            regime = p4_factor(theta).regime
        except BoundaryTheta:
            regime = "boundary"
        try:
            closed = delta_alpha_closed(theta)
        except VortexError:
            closed = None
        try:
            quad = delta_alpha_quadrature(theta)
        except VortexError:
            quad = None
        rows.append((rho, theta, regime, closed, quad))
    return CLOSED_FORM_COLUMNS, rows


_HANDLERS = {
    "simulate": cmd_simulate,
    "reduced": cmd_reduced,
    "sweep": cmd_sweep,
    "critical": cmd_critical,
    "equilibria": cmd_equilibria,
    "bifurcation": cmd_bifurcation,
    "closed-form": cmd_closed_form,
}

_CONFIG_SKIP = {"func", "out", "format", "seed"}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="trivortex",
        description="Three-vortex dynamics: simulate, reduce, sweep, "
        "classify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def common(p, *, times=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the config echo for reproducibility")
        p.add_argument("--rtol", type=float, default=1e-10)
        p.add_argument("--atol", type=float, default=1e-12)
        if times:
            p.add_argument("--L", dest="launch", type=float, default=100.0,
                           help="launch distance of the incoming pair")
            p.add_argument("--d", dest="spacing", type=float, default=1.0,
                           help="length scale of the setup")

    p = sub.add_parser("simulate", help="lab-frame trajectory table")
    common(p, times=True)
    p.add_argument("--rho", help="impact offset (launch mode)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=lambda s: [float(x) for x in s.split(",")],
                   help="three strengths for --positions mode")
    p.add_argument("--positions", help="x1,y1,x2,y2,x3,y3 start (explicit mode)")
    p.add_argument("--t-end", dest="t_end", type=float, default=200.0)
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("reduced", help="shape-plane trajectory or level sets")
    common(p, times=True)
    p.add_argument("--rho", help="impact offset (launch mode)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=lambda s: [float(x) for x in s.split(",")],
                   help="three strengths")
    p.add_argument("--positions", help="x1,y1,x2,y2,x3,y3 start")
    p.add_argument("--theta", type=float, default=None,
                   help="leaf for --levels mode")
    p.add_argument("--levels", nargs="?", const="auto", default=None,
                   help="emit energy level sets: a count, a comma list of "
                   "values, or bare for automatic levels")
    p.add_argument("--t-end", dest="t_end", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("sweep", help="scattering angle over offsets")
    common(p, times=True)
    p.add_argument("--rho", help="offsets: value, comma list, or start:stop:step")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="time budget per run (default 1e5)")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("critical", help="offsets bounding the exchange window")
    common(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=lambda s: [float(x) for x in s.split(",")],
                   help="several strengths at once")

    p = sub.add_parser("equilibria", help="critical points on one leaf")
    common(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=lambda s: [float(x) for x in s.split(",")])
    p.add_argument("--theta", type=float, default=None, required=True)

    p = sub.add_parser("bifurcation", help="branch positions over strengths")
    common(p)
    p.add_argument("--gammas", type=lambda s: _parse_values(s, "--gammas"),
                   help="strength grid start:stop:step", required=True)
    p.add_argument("--theta", type=float, default=1.0)

    p = sub.add_parser("closed-form", help="deflection angle, two routes")
    common(p)
    p.add_argument("--rho", help="offsets: value, comma list, or start:stop:step")

    return parser


# flags whose values may begin with a minus sign (ranges, lists, starts);
# argparse reads such tokens as options, so glue them on with '='
_VALUE_FLAGS = ("--rho", "--gammas", "--positions", "--levels")


def _merge_dash_values(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parser.parse_args(_merge_dash_values(list(argv)))
    except SystemExit as e:
        return int(e.code or 0)
    options = {
        k: v for k, v in sorted(vars(ns).items()) if k not in _CONFIG_SKIP
        and k != "subcommand"
    }
    config = RunConfig(
        subcommand=ns.subcommand,
        options=options,
        out=ns.out,
        format=ns.format,
        seed=ns.seed,
    )
    try:
        columns, rows = _HANDLERS[ns.subcommand](ns)
    except (ValueError, BadSetup) as exc:
        sys.stderr.write(f"trivortex {ns.subcommand}: {exc}\n")
        return USAGE_ERROR
    except VortexError as exc:
        sys.stderr.write(
            f"trivortex {ns.subcommand}: {type(exc).__name__}: {exc}\n"
        )
        return NUMERICAL_ERROR
    _emit(config, columns, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
