"""The Carleman-weighted Tikhonov functional, its gradient, and convexity probes.

Every field here is a masked DOF vector (see grid.DomainMask). For a field
u satisfying the Cauchy trace constraints,

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

import numpy as np

from .errors import ConfigError, ConstraintViolationError, ConvexCauchyError
from .grid import DomainMask, check_finite, erode
from .operators import OperatorStencil, QuasilinearOperator
from .sobolev import SobolevSpace
from .weights import WeightSpec, mask_weight_sq

logger = logging.getLogger(__name__)

GRADIENT_MODES = ("euclidean", "sobolev")
BETA_POLICIES = ("clamp", "keep")


@dataclass(eq=False)
class CauchyData:
    """Trace data as node values on the two constrained layers.

    g0 holds the Dirichlet values on the value layer (the data face), g1 the
    values on the derivative layer (the first layer inward), which pins the
    normal derivative at second-order accuracy. Each is a vector over its
    layer's nodes in C order: mask.value_layer and mask.deriv_layer order.
    """

    g0: np.ndarray
    g1: np.ndarray


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

    The fixed per-problem data is built here, once: the operator stencil, the
    data weight on the core nodes, and the scale of the trace values.
    Changing op, weight, mask, data or beta afterwards is not supported;
    build new params instead.
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
        mask = self.mask
        for name, values, layer in (("g0", self.data.g0, mask.value_pos),
                                    ("g1", self.data.g1, mask.deriv_pos)):
            if np.shape(values) != layer.shape:
                raise ConfigError(f"Cauchy data {name} has shape {np.shape(values)}, "
                                  f"expected one value per layer node {layer.shape}")
            if not np.all(np.isfinite(values)):
                raise ConfigError("Cauchy data contains non-finite values")
        self.stencil = OperatorStencil(self.op, mask)
        # fused weight * quadrature factor of the data term, on the core nodes
        self.core_weight = (mask_weight_sq(self.weight, mask) * mask.quad_weight)[mask.is_core]
        self._trace_scale = 1.0 + max(
            float(np.max(np.abs(self.data.g0), initial=0.0)),
            float(np.max(np.abs(self.data.g1), initial=0.0)),
        )
        self._inner_h1: SobolevSpace | None = None

    @property
    def inner_h1_space(self) -> SobolevSpace:
        """H^1 norm restricted to the inner subdomain (certificate diagnostic)."""
        if self._inner_h1 is None:
            self._inner_h1 = SobolevSpace(self.mask, order=1, node_subset=self.mask.is_inner)
        return self._inner_h1

    def check_dofs(self, v: np.ndarray, what: str = "field") -> None:
        """Raise unless v is a finite DOF vector that carries the Cauchy data."""
        mask = self.mask
        if np.shape(v) != mask.dofs.shape:
            raise ConfigError(f"{what} has shape {np.shape(v)}, expected a DOF vector "
                              f"of {mask.dofs.size} masked nodes")
        check_finite(v, what)
        dev = 0.0
        if mask.value_pos.size:
            dev = float(np.max(np.abs(v[mask.value_pos] - self.data.g0)))
        if mask.deriv_pos.size:
            dev = max(dev, float(np.max(np.abs(v[mask.deriv_pos] - self.data.g1))))
        if dev > self.constraint_tol * self._trace_scale:
            raise ConstraintViolationError(
                f"{what} violates the Cauchy constraints: max deviation {dev:.3g}"
            )

    def impose_dofs(self, v: np.ndarray) -> np.ndarray:
        """v with the trace layers overwritten by the Cauchy data (in place)."""
        v[self.mask.value_pos] = self.data.g0
        v[self.mask.deriv_pos] = self.data.g1
        return v


def evaluate(params: FunctionalParams, v: np.ndarray) -> float:
    """Value of the weighted Tikhonov functional at a constrained field."""
    params.check_dofs(v)
    return _value(params, v)


def _value(params: FunctionalParams, v: np.ndarray) -> float:
    r = params.stencil.residual(v)
    data_term = float(np.sum(r * r * params.core_weight))
    if not np.isfinite(data_term):
        raise ConvexCauchyError("weighted residual overflowed; reduce lambda")
    return data_term + params.beta * params.space.norm_sq(v)


def gradient(params: FunctionalParams, v: np.ndarray, mode: str = "euclidean") -> np.ndarray:
    """Exact discrete gradient of J at the constrained field v, trace-projected.

    euclidean: the field g with <g, h> = dJ(v)[h] for every zero-trace h.
    sobolev:   the Riesz representative of the same functional in H^k.
    """
    if mode not in GRADIENT_MODES:
        raise ConfigError(f"unknown gradient mode {mode!r}")
    params.check_dofs(v)
    g = _euclidean_gradient(params, v)
    return g if mode == "euclidean" else params.space.riesz(g)


def _euclidean_gradient(params: FunctionalParams, v: np.ndarray) -> np.ndarray:
    r = params.stencil.residual(v)
    g = 2.0 * params.stencil.linearize(v).adjoint(params.core_weight * r)
    g += 2.0 * params.beta * params.space.apply_gram(v)
    g[params.mask.trace_pos] = 0.0
    return g


def bregman_gap(params: FunctionalParams, v1: np.ndarray,
                v2: np.ndarray) -> tuple[float, float, float]:
    """Bregman gap of J between two constrained fields, plus the two norms
    entering the convexity certificate.

    Returns (gap, ||v2-v1||^2_{H^1(inner)}, ||v2-v1||^2_{H^k(mask)}).
    The certificate passes iff gap >= (beta/2) * the H^k term.
    """
    params.check_dofs(v1, "first field")
    params.check_dofs(v2, "second field")
    h = v2 - v1
    if np.max(np.abs(h[params.mask.trace_pos])) > params.constraint_tol:
        raise ConstraintViolationError(
            "the two fields carry different trace data; their difference is not zero-trace"
        )
    j1 = _value(params, v1)
    j2 = _value(params, v2)
    g1 = _euclidean_gradient(params, v1)
    gap = j2 - j1 - float(np.sum(g1 * h))
    h1_inner = params.inner_h1_space.norm_sq(h)
    hk_full = params.space.norm_sq(h)
    return gap, h1_inner, hk_full


def compact_support_ok(mask: DomainMask, v: np.ndarray) -> bool:
    """True when the field vanishes outside the once-eroded core region."""
    return not np.any(v[~erode(mask.is_core)[mask.in_mask]])


def carleman_ratio(op: QuasilinearOperator, weight: WeightSpec, mask: DomainMask,
                   v: np.ndarray) -> float:
    """Integrated Carleman quotient for a compactly supported field.

        ratio = sum (A0 h)^2 W / sum (lam |grad h|^2 [+ lam h_t^2] + lam^3 h^2) W

    with W the shifted squared weight times quadrature (the shift cancels in
    the quotient). The time-derivative term appears only for the hyperbolic
    family; the gradient is spatial for the time families. A strictly
    positive lower bound over lambda is the integrated trace of the pointwise
    weighted estimate, whose divergence terms vanish for compact support.
    """
    if not np.any(v):
        raise ConfigError("carleman_ratio needs a nonzero field")
    if not compact_support_ok(mask, v):
        raise ConfigError(
            "field is not compactly supported: values reach the boundary-adjacent layers"
        )
    core = mask.is_core
    w = (mask_weight_sq(weight, mask) * mask.quad_weight)[core]
    stencil = OperatorStencil(op, mask)
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


def data_extension(space: SobolevSpace, data: CauchyData) -> np.ndarray:
    """Minimum-H^k-norm field carrying the Cauchy trace data.

    Solves the constrained Gram system for the smoothest extension of the two
    trace layers into the mask. This is the natural center for drawing
    admissible fields: no data-consistent field has a smaller norm, so if the
    extension does not fit inside a ball, nothing does.
    """
    mask = space.mask
    v = np.zeros(mask.dofs.size)
    v[mask.value_pos] = data.g0
    v[mask.deriv_pos] = data.g1
    free = mask.free_pos
    v[free] += space.constrained_solver()(-space.apply_gram(v)[free])
    return v
