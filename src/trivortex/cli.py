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
from .errors import BadSetup, BoundaryTheta, DegenerateCirculationSum, VortexError
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for
    # numerical failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


class _Given(argparse.Action):
    # stores the value and notes the flag in ns.given, so a mode can refuse a
    # flag it does not use even when its value equals the default
    def __call__(self, parser, ns, values, option_string=None):
        setattr(ns, self.dest, values)
        ns.given = (*getattr(ns, "given", ()), self.option_strings[0])


def _parse_values(text: str, what: str) -> list[float]:
    """One number, a comma list, or an inclusive start:stop:step range."""
    text = text.strip()
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",")]
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
    vals = _parse_values(text, "--positions")
    if len(vals) != 6:
        raise ValueError("positions need exactly six numbers x1,y1,...,y3")
    return np.array(vals).reshape(3, 2)


def _cell(cell):
    """A table cell as None, str, bool, int or float; non-finite floats
    become "nan", "inf" and "-inf", since strict JSON has no literal for them."""
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


def _fmt(cell) -> str:
    c = _cell(cell)
    if c is None:
        return ""
    if isinstance(c, bool):
        return "1" if c else "0"
    if isinstance(c, float):
        return format(c, ".17g")
    return str(c)


def _emit(ns, columns, rows) -> None:
    text = _render(ns, columns, rows)
    if ns.out is None:
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", newline="") as f:
            f.write(text)


# a row template's spelling per cell type: "%.17g" prints nan, inf, -inf and -0
# as format(x, ".17g") does, and "%d" prints an int as str(n)
_SPELLINGS = {float: "%.17g", np.float64: "%.17g", int: "%d"}
_NUMBERS = frozenset(_SPELLINGS)


def _render(ns, columns, rows) -> str:
    """The table as text in ``ns.format``; JSON echoes the parsed options.
    ``rows`` is a sequence of rows or a 2-D float64 array."""
    table = getattr(rows, "dtype", None) == np.float64
    if ns.format == "csv":
        return _render_csv(columns, rows, table)
    rows = rows.tolist() if table else rows
    payload = {
        "config": {k: v for k, v in vars(ns).items() if k != "out"},
        "columns": list(columns),
        "rows": [_json_row(row) for row in rows],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _json_row(row):
    # json prints a finite float, np.float64 too, and an int as _cell
    # returns them, so such a row goes in as it is
    try:
        if _NUMBERS.issuperset(map(type, row)) and all(map(math.isfinite, row)):
            return row
    except OverflowError:  # an int past the float range takes _cell
        pass
    return [_cell(c) for c in row]


def _render_csv(columns, rows, table) -> str:
    """A float64 ``table`` goes through one template for every row; in any
    other table, a row of floats and ints goes through one template per type
    signature, and any other row cell by cell through _fmt and the csv writer."""
    parts = []
    w = csv.writer(SimpleNamespace(write=parts.append), lineterminator="\r\n")
    w.writerow(columns)
    if table:
        template = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        return "".join([*parts, *map(template.__mod__, map(tuple, rows.tolist()))])
    templates = {}
    key = template = None
    for row in rows:
        # a run of rows of one signature looks its template up once
        sig = tuple(map(type, row))
        if sig != key:
            key, template = sig, templates.get(sig)
            if template is None:
                # "" marks a signature holding a cell no template spells
                cells = [_SPELLINGS.get(t) for t in key]
                template = templates[key] = "" if None in cells else ",".join(cells) + "\r\n"
        if template:
            parts.append(template % tuple(row))
        else:
            w.writerow([_fmt(c) for c in row])
    return "".join(parts)


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
    if ns.gammas is not None:
        raise ValueError("--gammas goes with --positions; --rho launches (1, --gamma, -1)")
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


def cmd_simulate(ns) -> tuple[tuple, np.ndarray]:
    positions, g = _launch_or_positions(ns)
    ts = _uniform_times(ns.t_end, ns.samples)
    traj = integrate(
        flat_rhs(g),
        positions.reshape(6),
        IntegratorOptions(rtol=ns.rtol, atol=ns.atol, t_end=ns.t_end),
    )
    ys = traj.interpolate(ts)
    c = conserved(ys.reshape(-1, 3, 2), g)
    return SIMULATE_COLUMNS, np.column_stack((ts, ys, c.H, c.Theta, *c.M))


def cmd_reduced(ns) -> tuple[tuple, np.ndarray | list]:
    if ns.levels is not None:
        if getattr(ns, "given", ()):
            raise ValueError(f"{ns.given[0]} does not apply to --levels mode")
        return _reduced_levels(ns)
    if ns.theta is not None:
        raise ValueError("--theta picks the leaf of --levels mode")
    positions, g = _launch_or_positions(ns)
    ts = _uniform_times(ns.t_end, ns.samples)
    spec, s0 = reduce_state(positions, g)
    theta = s0.Theta
    with_alpha = spec.selector == "specialized-11m1"
    f3 = reduced_rhs_flat(spec, theta)
    f, y0 = f3, [s0.X, s0.Y, s0.Z]
    if with_alpha:
        def f(t, v):
            return (*f3(t, v[:3]), heading_rate(v[0], v[1], theta))

        y0.append(0.0)
    traj = integrate(
        f, y0, IntegratorOptions(rtol=ns.rtol, atol=ns.atol, t_end=ns.t_end)
    )
    columns = REDUCED_COLUMNS + (("alpha",) if with_alpha else ())
    vs = traj.interpolate(ts)
    res, scale = leaf_residual(s0.geometry, *vs[:, :3].T, theta)
    h = reduced_hamiltonian(spec, SimpleNamespace(X=vs[:, 0], Z=vs[:, 2], Theta=theta))
    return columns, np.column_stack((ts, vs[:, :3], h, np.abs(res) / scale, vs[:, 3:]))


def _family(ns):
    """Equilibrium catalog plus reduction spec for the requested strengths."""
    if ns.gammas is None:
        if not ns.gamma > 0.0:
            raise ValueError("--gamma must be positive")
        g = [1.0, ns.gamma, -1.0]
    else:
        g = ns.gammas
        if len(g) != 3:
            raise ValueError("--gammas needs exactly three strengths")
    try:
        spec = ReducedSystemSpec.for_circulations(g)
    except (ValueError, DegenerateCirculationSum):
        spec = None
    catalog = None
    # the selector names the family; a relabeled or time-reversed triple
    # is outside every catalog's labelling
    if spec and spec.permutation == (0, 1, 2) and not spec.time_reversed:
        catalog = {
            "specialized-111": equilibria_111,
            "specialized-11m1": equilibria_11m1,
            "specialized-gamma": lambda th: equilibria_gamma(g[1], th),
        }.get(spec.selector)
    if catalog is None:
        raise ValueError(
            "equilibrium catalogs cover strengths (1,Gamma,-1) and (1,1,1)"
        )
    return catalog, spec


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
    for level, ends in zip(levels, grid.level_sets(levels)):
        # segment k runs from row 2k to row 2k + 1
        X, Y, Z = (c.ravel().tolist() for c in ends)
        rows += [(level, k // 2, x, y, z) for k, (x, y, z) in enumerate(zip(X, Y, Z))]
        if len(rows) > MAX_VALUES:
            raise ValueError(f"--levels table passes {MAX_VALUES} rows")
    return LEVEL_COLUMNS, rows


def cmd_sweep(ns) -> tuple[tuple, list]:
    if ns.rho is None:
        raise ValueError("sweep needs --rho (value, list, or range)")
    rhos = _parse_values(ns.rho, "--rho")
    if not (ns.gamma > 0.0 and math.isfinite(ns.gamma)):
        raise ValueError("--gamma must be positive and finite")
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
    return CRITICAL_COLUMNS, [(float(g), *critical_rho(float(g))) for g in gammas]


def cmd_equilibria(ns) -> tuple[tuple, list]:
    catalog, _ = _family(ns)
    rows = []
    for p in catalog(ns.theta):
        x, y, z = p.coords
        pair = "" if p.pair is None else f"{p.pair[0] + 1}-{p.pair[1] + 1}"
        eig = [None] * 6 if p.eigenvalues is None else [
            part for lam in p.eigenvalues for part in (lam.real, lam.imag)
        ]
        rows.append(
            (p.label, p.kind, p.geometry, x, y, z, p.theta, pair,
             p.degenerate, *eig)
        )
    return EQUILIBRIA_COLUMNS, rows


def cmd_bifurcation(ns) -> tuple[tuple, list]:
    return bifurcation_sweep(ns.theta, ns.gammas)


def cmd_closed_form(ns) -> tuple[tuple, list]:
    if ns.rho is None:
        raise ValueError("closed-form needs --rho (value, list, or range)")
    rows = []
    for rho in _parse_values(ns.rho, "--rho"):
        theta = ScatteringSetup(rho=rho).theta()
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

def build_parser() -> _Parser:
    parser = _Parser(
        prog="trivortex",
        description="Three-vortex dynamics: simulate, reduce, sweep, "
        "classify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def common(p, *, integrates=False):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if integrates:
            p.add_argument("--rtol", type=float, default=1e-10, action=_Given)
            p.add_argument("--atol", type=float, default=1e-12, action=_Given)
            p.add_argument("--L", dest="launch", type=float, default=100.0,
                           action=_Given, help="launch distance of the incoming pair")
            p.add_argument("--d", dest="spacing", type=float, default=1.0,
                           action=_Given, help="length scale of the setup")

    def strengths(text):
        try:
            return _parse_values(text, "--gammas")
        except ValueError as exc:  # argparse would print only the type's name
            raise argparse.ArgumentTypeError(str(exc)) from None

    p = sub.add_parser("simulate", help="lab-frame trajectory table")
    common(p, integrates=True)
    p.add_argument("--rho", help="impact offset (launch mode)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=strengths,
                   help="three strengths for --positions mode")
    p.add_argument("--positions", help="x1,y1,x2,y2,x3,y3 start (explicit mode)")
    p.add_argument("--t-end", dest="t_end", type=float, default=200.0)
    p.add_argument("--samples", type=int, default=1001)

    p = sub.add_parser("reduced", help="shape-plane trajectory or level sets")
    common(p, integrates=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--rho", help="impact offset (launch mode)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=strengths, help="three strengths")
    mode.add_argument("--positions", help="x1,y1,x2,y2,x3,y3 start")
    p.add_argument("--theta", type=float, default=None,
                   help="leaf for --levels mode")
    mode.add_argument("--levels", nargs="?", const="auto", default=None,
                      help="emit energy level sets: a count, a comma list of "
                      "values, or bare for automatic levels")
    p.add_argument("--t-end", dest="t_end", type=float, default=100.0, action=_Given)
    p.add_argument("--samples", type=int, default=1001, action=_Given)

    p = sub.add_parser("sweep", help="scattering angle over offsets")
    common(p, integrates=True)
    p.add_argument("--rho", help="offsets: value, comma list, or start:stop:step")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="time budget per run (default 1e5)")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("critical", help="offsets bounding the exchange window")
    common(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=strengths,
                   help="several strengths: comma list or start:stop:step")

    p = sub.add_parser("equilibria", help="critical points on one leaf")
    common(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--gammas", type=strengths, help="three strengths")
    p.add_argument("--theta", type=float, default=None, required=True)

    p = sub.add_parser("bifurcation", help="branch positions over strengths")
    common(p)
    p.add_argument("--gammas", type=strengths, required=True,
                   help="strengths: value, comma list, or start:stop:step")
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
    vars(ns).pop("given", None)  # bookkeeping, not a parsed option to echo
    _emit(ns, columns, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
