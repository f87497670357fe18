"""The Carleman-weighted Tikhonov functional, its gradient, and convexity probes.

For a field u satisfying the Cauchy trace constraints,

    J(u) = sum_core [A(u)]^2 * shifted_weight_sq * quad_weight
         + beta * ||u||^2_{H^k(mask)}.

The Euclidean gradient is the exact derivative of this discrete J restricted
to the zero-trace subspace; the Sobolev gradient is its Riesz representative
in the H^k inner product. The Bregman gap J(u2) - J(u1) - J'(u1)(u2 - u1)
lower-bounded by (beta/2) ||u2 - u1||^2_{H^k} is the strict-convexity
certificate checked by the optimizer module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, ConstraintViolationError, ConvexCauchyError
from .grid import DomainMask, shift
from .operators import Field, OperatorStencil, QuasilinearOperator, check_finite
from .sobolev import SobolevSpace
from .weights import WeightSpec, mask_weight_sq

logger = logging.getLogger(__name__)

GRADIENT_MODES = ("euclidean", "sobolev")
BETA_POLICIES = ("clamp", "keep")


@dataclass(eq=False)
class CauchyData:
    """Trace data stored as node values on the two constrained layers.

    g0 carries the Dirichlet values on the data face; g1 carries the values
    on the first inward layer, which pins the normal derivative at
    second-order accuracy. Both arrays are full-grid with zeros off their
    layer.
    """

    g0: np.ndarray
    g1: np.ndarray

    def impose(self, mask: DomainMask, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float)
        out[mask.value_layer] = self.g0[mask.value_layer]
        out[mask.deriv_layer] = self.g1[mask.deriv_layer]
        return out

    def violation(self, mask: DomainMask, values: np.ndarray) -> float:
        dev = 0.0
        if np.any(mask.value_layer):
            dev = float(np.max(np.abs(values[mask.value_layer] - self.g0[mask.value_layer])))
        if np.any(mask.deriv_layer):
            dev = max(dev, float(np.max(np.abs(values[mask.deriv_layer] - self.g1[mask.deriv_layer]))))
        return dev


def beta_window(lam: float, epsilon: float) -> tuple[float, float]:
    """Admissible regularization range (exp(-lam*eps), 1)."""
    return float(np.exp(-lam * epsilon)), 1.0


@dataclass(eq=False)
class FunctionalParams:
    """Everything needed to evaluate J: operator, weight, geometry, data.

    beta outside the admissible window (exp(-lam*eps), 1) triggers a logged
    warning; under the default "clamp" policy the value is pulled to the
    nearest point inside the window, under "keep" it is used as given (the
    convexity certificate sweeps rely on a fixed beta across lambda).

    The fixed per-problem data of the masked DOF form is built here, once:
    the operator stencil, the data weight on the core nodes, and the trace
    values with their DOF positions and scale. Changing op, weight, mask,
    data or beta afterwards is not supported; build new params instead.
    """

    op: QuasilinearOperator
    weight: WeightSpec
    mask: DomainMask
    space: SobolevSpace
    beta: float
    data: CauchyData
    beta_policy: str = "clamp"
    constraint_tol: float = 1e-8

    def __post_init__(self):
        if self.beta_policy not in BETA_POLICIES:
            raise ConfigError(f"unknown beta policy {self.beta_policy!r}")
        lo, hi = beta_window(self.weight.lam, self.mask.epsilon)
        if not (lo < self.beta < hi):
            if self.beta_policy == "clamp":
                clamped = float(np.clip(self.beta, lo * (1.0 + 1e-6), hi - 1e-9))
                logger.warning(
                    "beta=%.6g outside the admissible window (%.6g, 1); clamped to %.6g",
                    self.beta, lo, clamped,
                )
                self.beta = clamped
            else:
                logger.warning(
                    "beta=%.6g outside the admissible window (%.6g, 1); kept as given",
                    self.beta, lo,
                )
        if not np.all(np.isfinite(self.data.g0)) or not np.all(np.isfinite(self.data.g1)):
            raise ConfigError("Cauchy data contains non-finite values")
        mask = self.mask
        self.stencil = OperatorStencil(self.op, mask)
        # fused weight * quadrature factor of the data term, on the core nodes
        self.core_weight = (mask_weight_sq(self.weight, mask) * mask.quad_weight)[mask.is_core]
        inside = mask.in_mask
        self._value_pos = np.flatnonzero(mask.value_layer[inside])
        self._deriv_pos = np.flatnonzero(mask.deriv_layer[inside])
        self._constrained_pos = np.flatnonzero(mask.constrained[inside])
        self._g0 = self.data.g0[mask.value_layer]
        self._g1 = self.data.g1[mask.deriv_layer]
        self._trace_scale = 1.0 + max(
            float(np.max(np.abs(self.data.g0))), float(np.max(np.abs(self.data.g1)))
        )
        self._inner_h1: SobolevSpace | None = None

    @property
    def data_weight(self) -> np.ndarray:
        """Full-grid data weight: core_weight on the core nodes, zero elsewhere."""
        return self.stencil.to_grid(self.core_weight)

    @property
    def inner_h1_space(self) -> SobolevSpace:
        """H^1 norm restricted to the inner subdomain (certificate diagnostic)."""
        if self._inner_h1 is None:
            self._inner_h1 = SobolevSpace(self.mask, order=1, node_subset=self.mask.is_inner)
        return self._inner_h1

    def check_dofs(self, v: np.ndarray, what: str = "field") -> None:
        """Raise when the DOF vector v is not finite or does not carry the Cauchy data."""
        check_finite(v, what)
        dev = 0.0
        if self._value_pos.size:
            dev = float(np.max(np.abs(v[self._value_pos] - self._g0)))
        if self._deriv_pos.size:
            dev = max(dev, float(np.max(np.abs(v[self._deriv_pos] - self._g1))))
        if dev > self.constraint_tol * self._trace_scale:
            raise ConstraintViolationError(
                f"{what} violates the Cauchy constraints: max deviation {dev:.3g}"
            )

    def impose_dofs(self, v: np.ndarray) -> np.ndarray:
        """v with the trace layers overwritten by the Cauchy data (in place)."""
        v[self._value_pos] = self._g0
        v[self._deriv_pos] = self._g1
        return v

    def impose(self, u: Field) -> Field:
        v = self.impose_dofs(self.mask.gather(u.values))
        return Field(self.mask.grid, self.mask.scatter(v))


def evaluate(params: FunctionalParams, u: Field) -> float:
    """Value of the weighted Tikhonov functional at a constrained field."""
    v = params.mask.gather(u.values)
    params.check_dofs(v)
    return dof_value(params, v)


def dof_value(params: FunctionalParams, v: np.ndarray) -> float:
    """J at the DOF vector v, which must carry the Cauchy data (unchecked)."""
    r = params.stencil.residual(v)
    data_term = float(np.sum(r * r * params.core_weight))
    if not np.isfinite(data_term):
        raise ConvexCauchyError("weighted residual overflowed; reduce lambda")
    return data_term + params.beta * params.space.dof_norm_sq(v)


def data_term_value(params: FunctionalParams, residual_like: np.ndarray) -> float:
    """Weighted square sum of a residual-shaped array (core support)."""
    return float(np.sum(residual_like * residual_like * params.data_weight))


def gradient(params: FunctionalParams, u: Field, mode: str = "euclidean") -> Field:
    """Exact discrete gradient of J at u, trace-projected.

    euclidean: the field g with <g, h> = dJ(u)[h] for every zero-trace h.
    sobolev:   the Riesz representative of the same functional in H^k.
    """
    if mode not in GRADIENT_MODES:
        raise ConfigError(f"unknown gradient mode {mode!r}")
    v = params.mask.gather(u.values)
    params.check_dofs(v)
    return Field(params.mask.grid, params.mask.scatter(dof_gradient(params, v, mode)))


def dof_gradient(params: FunctionalParams, v: np.ndarray, mode: str) -> np.ndarray:
    """`gradient` at the DOF vector v, as a DOF vector (mode and v unchecked)."""
    g = _euclidean_gradient(params, v)
    return g if mode == "euclidean" else params.space.dof_riesz(g)


def _euclidean_gradient(params: FunctionalParams, v: np.ndarray) -> np.ndarray:
    r = params.stencil.residual(v)
    g = 2.0 * params.stencil.linearize(v).adjoint(params.core_weight * r)
    g += 2.0 * params.beta * params.space.dof_gram(v)
    g[params._constrained_pos] = 0.0
    return g


def bregman_gap(params: FunctionalParams, u1: Field, u2: Field) -> tuple[float, float, float]:
    """Bregman gap of J between two constrained fields, plus the two norms
    entering the convexity certificate.

    Returns (gap, ||u2-u1||^2_{H^1(inner)}, ||u2-u1||^2_{H^k(mask)}).
    The certificate passes iff gap >= (beta/2) * the H^k term.
    """
    v1 = params.mask.gather(u1.values)
    v2 = params.mask.gather(u2.values)
    params.check_dofs(v1, "first field")
    params.check_dofs(v2, "second field")
    h = v2 - v1
    if np.max(np.abs(h[params._constrained_pos])) > params.constraint_tol:
        raise ConstraintViolationError(
            "the two fields carry different trace data; their difference is not zero-trace"
        )
    j1 = dof_value(params, v1)
    j2 = dof_value(params, v2)
    g1 = _euclidean_gradient(params, v1)
    gap = j2 - j1 - float(np.sum(g1 * h))
    h1_inner = params.inner_h1_space.dof_norm_sq(h)
    hk_full = params.space.dof_norm_sq(h)
    return gap, h1_inner, hk_full


def compact_support_ok(mask: DomainMask, values: np.ndarray) -> bool:
    """True when the field vanishes outside the once-eroded core region."""
    eroded = mask.is_core.copy()
    for off in product((-1, 0, 1), repeat=mask.grid.dim):
        if any(off):
            eroded &= shift(mask.is_core, off, fill=False)
    return not np.any(values[~eroded])


def carleman_ratio(op: QuasilinearOperator, weight: WeightSpec, mask: DomainMask,
                   h: Field) -> float:
    """Integrated Carleman quotient for a compactly supported field.

        ratio = sum (A0 h)^2 W / sum (lam |grad h|^2 [+ lam h_t^2] + lam^3 h^2) W

    with W the shifted squared weight times quadrature (the shift cancels in
    the quotient). The time-derivative term appears only for the hyperbolic
    family; the gradient is spatial for the time families. A strictly
    positive lower bound over lambda is the integrated trace of the pointwise
    weighted estimate, whose divergence terms vanish for compact support.
    """
    vals = h.values
    if not np.any(vals):
        raise ConfigError("carleman_ratio needs a nonzero field")
    if not compact_support_ok(mask, vals):
        raise ConfigError(
            "field is not compactly supported: values reach the boundary-adjacent layers"
        )
    core = mask.is_core
    w = (mask_weight_sq(weight, mask) * mask.quad_weight)[core]
    stencil = OperatorStencil(op, mask)
    v = mask.gather(vals)
    a0h = stencil.principal(v)
    num = float(np.sum(a0h * a0h * w))

    lam = weight.lam
    grad = stencil.gradient(v)
    first_order = np.sum(grad * grad, axis=-1)
    if op.family == "hyperbolic":
        ht = stencil.d1(v, mask.grid.dim - 1)
        first_order = first_order + ht * ht
    h_core = v[stencil.core_pos]
    den = float(np.sum((lam * first_order + lam**3 * h_core * h_core) * w))
    if den <= 0.0:
        raise ConvexCauchyError("degenerate Carleman denominator")
    return num / den


def data_extension(space: SobolevSpace, data: CauchyData) -> Field:
    """Minimum-H^k-norm field carrying the Cauchy trace data.

    Solves the constrained Gram system for the smoothest extension of the two
    trace layers into the mask. This is the natural center for drawing
    admissible fields: no data-consistent field has a smaller norm, so if the
    extension does not fit inside a ball, nothing does.
    """
    mask = space.mask
    v = mask.gather(data.impose(mask, np.zeros(mask.grid.shape)))
    free = space.free_pos
    v[free] += space.constrained_solver()(-space.dof_gram(v)[free])
    return Field(mask.grid, mask.scatter(v))
