"""Exception types shared across the package."""

from __future__ import annotations


class VortexError(Exception):
    """Base class for every error this package raises on purpose."""


class CoincidentVortices(VortexError):
    """Two vortices sit closer than the collision floor."""

    def __init__(self, i: int, j: int, distance: float):
        self.pair = (i, j)
        self.distance = distance
        super().__init__(
            f"vortices {i} and {j} are {distance:.3e} apart, below the collision floor"
        )


class StepSizeUnderflow(VortexError):
    """Adaptive integrator drove the step below the hard minimum."""

    def __init__(self, t: float, h: float):
        self.t = t
        self.h = h
        super().__init__(f"step size underflow at t={t!r} (h={h:.3e})")


class StepBudgetExceeded(VortexError):
    """Adaptive integrator used up its step budget before the end time."""

    def __init__(self, t: float, max_steps: int):
        self.t = t
        self.max_steps = max_steps
        super().__init__(f"step budget of {max_steps} steps exhausted at t={t!r}")


class NonFiniteRHS(VortexError):
    """Right-hand side returned a NaN or infinity."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"non-finite derivative encountered at t={t!r}")


class NonFiniteResult(VortexError):
    """A closed form's value is not a finite float."""


class InvalidTriangle(VortexError):
    """Squared side lengths violate the triangle inequality."""


class ZeroSide(VortexError):
    """A squared side length is zero (or negative), so the pair kernel blows up."""


class ZeroCirculationProduct(VortexError):
    """An operation needs all three circulations nonzero."""


class DegenerateCirculationSum(VortexError):
    """A circulation partial sum vanishes, so the coordinate change is undefined."""


class SingularState(VortexError):
    """Reduced Hamiltonian evaluated where a log argument is not positive.

    ``pair`` identifies which squared pair distance vanished.
    """

    def __init__(self, pair: tuple[int, int], value: float):
        self.pair = pair
        self.value = value
        super().__init__(
            f"log argument for vortex pair {pair} is {value:.3e} (must be positive)"
        )


class NotAnEquilibrium(VortexError):
    """Linearization requested at a point where the reduced flow is nonzero."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"reduced velocity has norm {residual:.3e} at this point")


class BadSetup(VortexError):
    """Scattering initial condition parameters are out of range."""


class NoEscape(VortexError):
    """Scattering run exhausted its budget before the outgoing state formed."""


class BoundaryTheta(VortexError):
    """Quartic factorization requested exactly on a regime boundary."""


class QuadratureNonConvergence(VortexError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, estimate: float, error: float, tol: float):
        self.estimate = estimate
        self.error = error
        self.tol = tol
        super().__init__(
            f"quadrature stalled at error {error:.3e} (tolerance {tol:.3e})"
        )
