"""Manufactured problems: closed-form solutions with matching source terms.

Each case supplies a field u* and a lower-order term built so the discrete
residual vanishes at u* (to machine precision for polynomial cases, to
stencil accuracy otherwise), plus a recommended geometry on which the masked
subdomain is well resolved at desk scale. Trace data is read off u* on the
two constrained layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .functional import CauchyData
from .grid import DomainMask, Field, Grid, LevelSpec
from .operators import QuasilinearOperator, lower_cubic


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    id: str
    family: str
    dim: int
    u_star: Callable[[np.ndarray], np.ndarray]
    make_operator: Callable[[], QuasilinearOperator]
    bounds: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    level: LevelSpec
    lam: float = 2.0
    beta: float = 1e-3
    description: str = ""


def _ell1d_cubic() -> ManufacturedCase:
    # u* = x^2 + 1 solves u_xx - u^3 + q = 0 with q = (x^2+1)^3 - 2
    def u_star(points):
        x = points[..., 0]
        return x * x + 1.0

    def source(points):
        x = points[..., 0]
        return (x * x + 1.0) ** 3 - 2.0

    def make_operator():
        return QuasilinearOperator(family="elliptic", dim=1, lower=lower_cubic(source))

    return ManufacturedCase(
        id="ELL1D-CUBIC",
        family="elliptic",
        dim=1,
        u_star=u_star,
        make_operator=make_operator,
        bounds=((0.0, 1.0),),
        resolution=(65,),
        level=LevelSpec(family="elliptic", a=0.15, c=0.45, nu=1.0, x_width=1.0),
        lam=1.5,
        beta=1e-3,
        description="1-D cubic reaction with quadratic exact solution",
    )


def _ell2d_harmonic() -> ManufacturedCase:
    # harmonic u* = exp(w x1) cos(w x2); w = 6 keeps the stencil truncation
    # visible at desk resolutions so refinement studies have signal
    w = 6.0

    def u_star(points):
        return np.exp(w * points[..., 0]) * np.cos(w * points[..., 1])

    def make_operator():
        return QuasilinearOperator(family="elliptic", dim=2)

    return ManufacturedCase(
        id="ELL2D-HARMONIC",
        family="elliptic",
        dim=2,
        u_star=u_star,
        make_operator=make_operator,
        bounds=((0.0, 1.0), (-1.0, 1.0)),
        resolution=(33, 33),
        level=LevelSpec(family="elliptic", a=0.25, c=0.48, nu=1.0, x_width=1.0, epsilon=0.1),
        lam=2.0,
        beta=5e-3,
        description="2-D Laplace with a harmonic exact solution",
    )


def _ell2d_cubic() -> ManufacturedCase:
    # u* = x1^2 - x2^2 + 3 is harmonic, so q = u*^3 makes the residual vanish
    def u_star(points):
        x1 = points[..., 0]
        x2 = points[..., 1]
        return x1 * x1 - x2 * x2 + 3.0

    def source(points):
        x1 = points[..., 0]
        x2 = points[..., 1]
        return (x1 * x1 - x2 * x2 + 3.0) ** 3

    def make_operator():
        return QuasilinearOperator(family="elliptic", dim=2, lower=lower_cubic(source))

    return ManufacturedCase(
        id="ELL2D-CUBIC",
        family="elliptic",
        dim=2,
        u_star=u_star,
        make_operator=make_operator,
        bounds=((0.0, 1.0), (-1.0, 1.0)),
        resolution=(33, 33),
        level=LevelSpec(family="elliptic", a=0.25, c=0.45, nu=1.0, x_width=1.0, epsilon=0.36),
        lam=2.0,
        beta=1e-3,
        description="2-D cubic reaction used by the convexity certificate sweep",
    )


def _par1d_cubic() -> ManufacturedCase:
    # u* = x^2 + t^2 + 1; residual u_t - u_xx + u^3 - q with q = 2t - 2 + u*^3
    def u_star(points):
        x = points[..., 0]
        t = points[..., 1]
        return x * x + t * t + 1.0

    def source(points):
        x = points[..., 0]
        t = points[..., 1]
        return 2.0 * t - 2.0 + (x * x + t * t + 1.0) ** 3

    def make_operator():
        return QuasilinearOperator(family="parabolic", dim=2, lower=lower_cubic(source))

    return ManufacturedCase(
        id="PAR1D-CUBIC",
        family="parabolic",
        dim=2,
        u_star=u_star,
        make_operator=make_operator,
        bounds=((0.0, 1.0), (-1.0, 1.0)),
        resolution=(33, 33),
        level=LevelSpec(family="parabolic", a=0.25, c=0.45, nu=1.0, x_width=1.0, t_span=1.0),
        lam=1.5,
        beta=1e-3,
        description="1+1-D cubic reaction-diffusion with lateral data",
    )


def _hyp1d_quad() -> ManufacturedCase:
    # u* = x^2 + t^2 satisfies u_tt - u_xx = 0 for unit wave coefficient
    def u_star(points):
        x = points[..., 0]
        t = points[..., 1]
        return x * x + t * t

    def make_operator():
        return QuasilinearOperator(family="hyperbolic", dim=2)

    return ManufacturedCase(
        id="HYP1D-QUAD",
        family="hyperbolic",
        dim=2,
        u_star=u_star,
        make_operator=make_operator,
        bounds=((0.0, 1.0), (-1.0, 1.0)),
        resolution=(33, 33),
        level=LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,)),
        lam=1.5,
        beta=1e-3,
        description="1+1-D wave equation with a quadratic exact solution",
    )


_BUILDERS = (_ell1d_cubic, _ell2d_harmonic, _ell2d_cubic, _par1d_cubic, _hyp1d_quad)
CASES: dict[str, ManufacturedCase] = {case.id: case for case in (b() for b in _BUILDERS)}


def get_case(case_id: str) -> ManufacturedCase:
    if case_id not in CASES:
        raise ConfigError(
            f"unknown manufactured case {case_id!r}; available: {sorted(CASES)}"
        )
    return CASES[case_id]


def manufactured_solution(case_id: str, grid: Grid, mask: DomainMask
                          ) -> tuple[Field, np.ndarray, np.ndarray]:
    """Sample the exact solution and read the trace data off its layers.

    Returns (u_star, g0, g1): u_star on the whole grid, g0 and g1 its values
    on the value and derivative layers (CauchyData order).
    """
    case = get_case(case_id)
    mask_family = mask.level.family
    # a generic level is a custom spatial threshold; elliptic cases fit it
    compatible = case.family == mask_family or (
        mask_family == "generic" and case.family == "elliptic"
    )
    if not compatible:
        raise ConfigError(
            f"case {case_id} is {case.family} but the mask was built for {mask_family}"
        )
    vals = np.asarray(case.u_star(grid.coords()), dtype=float)
    u_star = Field(grid, vals)
    return u_star, vals[mask.value_layer], vals[mask.deriv_layer]


def cauchy_data_from_case(case_id: str, grid: Grid, mask: DomainMask) -> tuple[Field, CauchyData]:
    u_star, g0, g1 = manufactured_solution(case_id, grid, mask)
    return u_star, CauchyData(g0=g0, g1=g1)
