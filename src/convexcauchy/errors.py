"""Exception types shared across the package, and the one float-range check.

The CLI maps these onto exit codes: ConfigError and GeometryError exit 1,
ConstraintViolationError and SolverError (which every value past the float
range raises, the Carleman weight's too) exit 2, I/O failures exit 3.
"""

import math

import numpy as np


class ConvexCauchyError(Exception):
    """Base class for all package errors."""


class ConfigError(ConvexCauchyError):
    """Invalid problem definition: bad schema, unknown ids, inconsistent geometry."""


class GeometryError(ConvexCauchyError):
    """Degenerate or empty level-set geometry (empty subdomain, closure violation)."""


class ConstraintViolationError(ConvexCauchyError):
    """Field does not match the imposed Cauchy trace layers."""


class SolverError(ConvexCauchyError):
    """Numerical failure: no convergence, no factor, or a value past the float range."""


def finite(value, quantity: str, cause=None):
    """value, after raising SolverError naming `quantity` and cause() if an
    entry of it is NaN or infinite: the one float-range check. Numerical code
    computes under np.errstate(all="ignore") and checks here what it makes;
    cause() names what scaled it out of range, only then and quietly."""
    # a float by math: numpy's all() of a scalar is slower and fills numpy's caches
    if (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        return value
    with np.errstate(all="ignore"):
        raise SolverError(f"{quantity} is not finite" + (f" at {cause()}" if cause else ""))
