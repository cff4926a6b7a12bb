"""Planar three-vortex dynamics and its canonical two-dimensional reduction."""

from trivortex.core import ConservedSet, conserved, flat_rhs, hamiltonian
from trivortex.elliptic import (
    delta_alpha_closed,
    delta_alpha_quadrature,
    p4_factor,
)
from trivortex.equilibria import (
    CriticalPoint,
    bifurcation_sweep,
    critical_rho,
    equilibria_111,
    equilibria_11m1,
    equilibria_gamma,
    separatrix_energy,
)
from trivortex.errors import VortexError
from trivortex.grobli import (
    TriangleState,
    from_positions,
    grobli_invariant,
    grobli_rhs,
)
from trivortex.integrate import IntegratorOptions, Trajectory, integrate
from trivortex.reduction import (
    NambuState,
    ReducedSystemSpec,
    integrate_reduced,
    reduce_state,
    reduced_hamiltonian,
)
from trivortex.scattering import (
    ScatteringResult,
    ScatteringSetup,
    asymptotic_reduced_energy,
    run,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConservedSet",
    "CriticalPoint",
    "IntegratorOptions",
    "NambuState",
    "ReducedSystemSpec",
    "ScatteringResult",
    "ScatteringSetup",
    "Trajectory",
    "TriangleState",
    "VortexError",
    "asymptotic_reduced_energy",
    "bifurcation_sweep",
    "conserved",
    "critical_rho",
    "delta_alpha_closed",
    "delta_alpha_quadrature",
    "equilibria_111",
    "equilibria_11m1",
    "equilibria_gamma",
    "flat_rhs",
    "from_positions",
    "grobli_invariant",
    "grobli_rhs",
    "hamiltonian",
    "integrate",
    "integrate_reduced",
    "p4_factor",
    "reduce_state",
    "reduced_hamiltonian",
    "run",
    "separatrix_energy",
    "sweep",
    "__version__",
]
