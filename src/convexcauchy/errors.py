"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical failures exit 2, I/O failures exit 3.
"""

import numpy as np


class ConvexCauchyError(Exception):
    """Base class for all package errors."""


class ConfigError(ConvexCauchyError):
    """Invalid problem definition: bad schema, unknown ids, inconsistent geometry."""


class GeometryError(ConvexCauchyError):
    """Degenerate or empty level-set geometry (empty subdomain, closure violation)."""


class WeightOverflowError(ConvexCauchyError):
    """Carleman weight exponent exceeds the floating-point range."""

    def __init__(self, lam: float, max_level: float, exponent: float):
        self.lam = lam
        self.max_level = max_level
        self.exponent = exponent
        super().__init__(
            f"weight exponent {exponent:.3g} overflows float64 "
            f"(lambda={lam:.6g}, max level value on mask={max_level:.6g}); "
            "reduce lambda or the level-function range"
        )


class ConstraintViolationError(ConvexCauchyError):
    """Field does not match the imposed Cauchy trace layers."""


class SolverError(ConvexCauchyError):
    """Numerical failure: no convergence, no factor, or a value past the float range."""


def finite(value, quantity: str, cause=None):
    """value, after raising SolverError naming `quantity` and cause() if an
    entry of it is NaN or infinite: the one float-range check. Numerical code
    computes under np.errstate(all="ignore") and checks here what it makes;
    cause() names what scaled it out of range, only then and quietly."""
    if np.isfinite(value).all():  # the method: np.all of a scalar costs more than the test
        return value
    with np.errstate(all="ignore"):
        raise SolverError(f"{quantity} is not finite" + (f" at {cause()}" if cause else ""))
