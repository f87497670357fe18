"""The Carleman-weighted Tikhonov functional, its gradient, and convexity probes.

Every field here is a masked DOF vector (see grid.DomainMask). For a field
u satisfying the Cauchy trace constraints,

    J(u) = sum_core [A(u)]^2 * mask_weight_sq * quad_weight
         + beta * ||u||^2_{H^k(mask)}.

The Euclidean gradient is the exact derivative of this discrete J restricted
to the zero-trace subspace; the Sobolev gradient is its Riesz representative
in the H^k inner product. A gradient is taken from the Evaluation of its
point (evaluate), whose residual and H^k differences it reuses. The Bregman
gap J(u2) - J(u1) - J'(u1)(u2 - u1) lower-bounded by
(beta/2) ||u2 - u1||^2_{H^k} is the strict-convexity certificate checked by
the optimizer module. The regularizer is quadratic, so its gap is exactly
beta ||u2 - u1||^2_{H^k}, and the certificate's margin is the data term's
Bregman gap plus (beta/2) ||u2 - u1||^2_{H^k}: one sample pair costs two
residuals, one linearized action and two norms of the difference (see
bregman_gap).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConstraintViolationError, ConvexCauchyError, finite
from .grid import DomainMask
from .operators import OperatorStencil, QuasilinearOperator
from .sobolev import SobolevSpace
from .weights import mask_weight_sq

logger = logging.getLogger(__name__)

GRADIENT_MODES = ("euclidean", "sobolev")
BETA_POLICIES = ("clamp", "keep")
CONSTRAINT_TOL = 1e-8  # deviation from the trace data a field may carry (check_dofs)


@dataclass(eq=False)
class CauchyData:
    """Trace data as node values on the two constrained layers.

    g0 holds the Dirichlet values on the value layer (the data face), g1 the
    values on the derivative layer (the first layer inward), which pins the
    normal derivative at second-order accuracy. Each is a vector over its
    layer's nodes in C order: mask.value_pos and mask.deriv_pos order.
    """

    g0: np.ndarray
    g1: np.ndarray


def beta_window(lam: float, epsilon: float) -> tuple[float, float]:
    """Admissible regularization range (exp(-lam*eps), 1)."""
    return float(np.exp(-lam * epsilon)), 1.0


@dataclass(frozen=True, eq=False)
class FunctionalParams:
    """Everything needed to evaluate J: operator, weight strength, geometry, data.

    The Carleman weight is built from the mask's level function, so the
    weight strength lam (a finite number >= 1) is its only parameter.
    beta outside the admissible window (exp(-lam*eps), 1) triggers a logged
    warning; under the default "clamp" policy the value is pulled to the
    nearest point inside the window, under "keep" it is used as given (the
    convexity certificate sweeps rely on a fixed beta across lambda).

    Every per-problem structure is built here, once: the operator stencil, the
    core nodes' data weight, the H^order `space` (order None: sobolev_order(dim))
    and the trace values' scale. The params are frozen: a variant is
    dataclasses.replace(params, ...), which builds them anew. A lambda sweep
    keeps the params and passes each lambda's weight (core_weight_at) to bregman_gap.
    """

    op: QuasilinearOperator
    lam: float
    mask: DomainMask
    beta: float
    data: CauchyData
    beta_policy: str = "clamp"
    order: int | None = None

    def __post_init__(self):
        if self.beta_policy not in BETA_POLICIES:
            raise ConfigError(f"unknown beta policy {self.beta_policy!r}")
        if not np.isfinite(self.beta):
            raise ConfigError(f"beta must be a finite number, got {self.beta}")
        mask, derived = self.mask, partial(object.__setattr__, self)
        derived("stencil", OperatorStencil(self.op, mask))  # refuses before beta's warning
        derived("core_weight", _core_weight(mask, self.lam))  # checks lam
        derived("beta", _windowed_beta(self.beta, self.lam, mask.epsilon, self.beta_policy))
        derived("space", SobolevSpace(mask, self.order))
        for name, values, layer in (("g0", self.data.g0, mask.value_pos),
                                    ("g1", self.data.g1, mask.deriv_pos)):
            if np.shape(values) != layer.shape:
                raise ConfigError(f"Cauchy data {name} has shape {np.shape(values)}, "
                                  f"expected one value per layer node {layer.shape}")
            if not np.all(np.isfinite(values)):
                raise ConfigError("Cauchy data contains non-finite values")
        derived("_trace_scale", 1.0 + max(
            float(np.max(np.abs(self.data.g0), initial=0.0)),
            float(np.max(np.abs(self.data.g1), initial=0.0)),
        ))

    def core_weight_at(self, lam: float) -> np.ndarray:
        """The data weight on the core nodes at weight strength lam, with beta
        kept as it is (what a lambda sweep needs); logs a warning when beta
        lies outside lam's window."""
        weight = _core_weight(self.mask, lam)
        _windowed_beta(self.beta, lam, self.mask.epsilon, "keep")
        return weight

    @cached_property
    def inner_h1_space(self) -> SobolevSpace:
        """H^1 norm restricted to the inner subdomain (certificate diagnostic)."""
        return SobolevSpace(self.mask, order=1, node_subset=self.mask.inner_pos)

    def check_dofs(self, v: np.ndarray, what: str = "field") -> None:
        """Raise unless v is a finite DOF vector that carries the Cauchy data."""
        mask = self.mask
        if np.shape(v) != mask.dofs.shape:
            raise ConfigError(f"{what} has shape {np.shape(v)}, expected a DOF vector "
                              f"of {mask.dofs.size} masked nodes")
        finite(v, what, self.cause)
        dev = 0.0
        if mask.value_pos.size:
            dev = float(np.max(np.abs(v[mask.value_pos] - self.data.g0)))
        if mask.deriv_pos.size:
            dev = max(dev, float(np.max(np.abs(v[mask.deriv_pos] - self.data.g1))))
        if dev > CONSTRAINT_TOL * self._trace_scale:
            raise ConstraintViolationError(
                f"{what} violates the Cauchy constraints: max deviation {dev:.3g}"
            )

    def cause(self, weighted=np.inf, regularized=np.inf, pair=0.0, weight=None) -> str:
        """What put a value past the float range (errors.finite): the data
        `weight` (default: core_weight's largest) or beta, whichever most outgrows
        its nonzero factor made from the fields (of size `weighted`, `regularized`),
        if one does; else the size of a certificate `pair` (its largest entry in
        either field or their difference) when it is over twice the trace data's
        scale (a drawn field is the data's extension plus a draw, and the draw
        is then the larger part); else the trace data's scale."""
        weight = np.max(self.core_weight) if weight is None else weight
        factors = np.array([weighted, regularized])
        by_weight, by_beta = np.divide((weight, self.beta), factors, out=np.zeros(2),
                                       where=factors > 0)
        if by_weight >= max(by_beta, 1.0):
            return f"a data weight of {weight:.3g}; reduce lambda"
        if by_beta >= 1.0:
            return f"beta={self.beta:g}; reduce beta"
        if pair > 2.0 * self._trace_scale:
            return f"a field pair of size {pair:.3g}; reduce the certificate radius"
        return f"trace-data scale {self._trace_scale:.3g}; rescale the Cauchy data"

    def impose_dofs(self, v: np.ndarray) -> np.ndarray:
        """v with the trace layers overwritten by the Cauchy data (in place)."""
        v[self.mask.value_pos] = self.data.g0
        v[self.mask.deriv_pos] = self.data.g1
        return v


def _windowed_beta(beta: float, lam: float, epsilon: float, policy: str) -> float:
    """beta under the policy, with a logged warning when it lies outside the
    admissible window: clamped into the window, or kept as given."""
    lo, hi = beta_window(lam, epsilon)
    if lo < beta < hi:
        return beta
    if policy == "clamp":
        clamped = float(np.clip(beta, lo * (1.0 + 1e-6), hi - 1e-9))
        logger.warning("beta=%.6g outside the admissible window (%.6g, 1); clamped to %.6g",
                       beta, lo, clamped)
        return clamped
    logger.warning("beta=%.6g outside the admissible window (%.6g, 1); kept as given",
                   beta, lo)
    return beta


def _core_weight(mask: DomainMask, lam: float) -> np.ndarray:
    """Fused weight * quadrature factor of the data term, on the core nodes."""
    return mask_weight_sq(mask, lam, mask.core_pos) * mask.dof_quad_weight[mask.core_pos]


class Evaluation(float):
    """J at a field, as a float, that also keeps what the gradient there
    reuses: the field (`point`), its residual on the core nodes, its H^k
    monomial differences and its squared H^k norm. gradient(params, this)
    records the Euclidean gradient there as `euclidean_gradient`."""

    point: np.ndarray
    residual: np.ndarray
    differences: list[np.ndarray]
    norm_sq: float
    euclidean_gradient: np.ndarray | None = None


def evaluate(params: FunctionalParams, v: np.ndarray) -> Evaluation:
    """Value of the weighted Tikhonov functional at a constrained field."""
    params.check_dofs(v)
    with np.errstate(all="ignore"):
        r = params.stencil.residual(v)
        diffs = params.space.differences(v)
        norm_sq = params.space.norm_sq(v, diffs)
        data = float(np.sum(r * r * params.core_weight))
    finite(data, "weighted residual", lambda: params.cause(np.max(r * r)))
    j = Evaluation(data + params.beta * norm_sq)
    j.point, j.residual, j.differences, j.norm_sq = v, r, diffs, norm_sq
    return j


def gradient(params: FunctionalParams, at: Evaluation, mode: str = "euclidean") -> np.ndarray:
    """Exact discrete gradient of J at the evaluated field, trace-projected.

    euclidean: the field g with <g, h> = dJ(v)[h] for every zero-trace h.
    sobolev:   the Riesz representative of the same functional in H^k.

    `at` is evaluate(params, v): its residual and differences are reused,
    and the Euclidean gradient is recorded on it (so the dual norm of a
    Sobolev gradient g is one pairing, sum(at.euclidean_gradient * g)).
    """
    if mode not in GRADIENT_MODES:
        raise ConfigError(f"unknown gradient mode {mode!r}")
    v, r = at.point, at.residual
    with np.errstate(all="ignore"):
        g = 2.0 * params.stencil.linearize(v).adjoint(params.core_weight * r)
        g += 2.0 * params.beta * params.space.apply_gram(v, at.differences)
    finite(g, "gradient", lambda: params.cause(np.max(r * r), np.max(v * v)))
    g[params.mask.trace_pos] = 0.0
    at.euclidean_gradient = g
    return g if mode == "euclidean" else params.space.riesz(g)


def bregman_gap(params: FunctionalParams, v1: np.ndarray, v2: np.ndarray,
                core_weights: Sequence[np.ndarray]) -> tuple[list[float], float, float]:
    """Bregman gaps of J between two constrained fields at each lambda, plus
    the two norms entering the convexity certificate.

    core_weights holds the data weight of each lambda (params.core_weight_at,
    or params.core_weight at params.lam). Returns ([gap at each lambda],
    ||v2-v1||^2_{H^1(inner)}, ||v2-v1||^2_{H^k(mask)}). The certificate passes
    at a lambda iff its gap >= (beta/2) * the H^k term. In closed form, with
    h = v2 - v1, L the linearization at v1 and h's trace entries zeroed in
    L h (as the gradient zeroes them), the gap at data weight w is

        sum_core w * (r2^2 - r1^2 - 2 r1 * L h) + beta * ||h||^2_{H^k};

    only the weighted sum is taken per lambda. A gap past the float range, as
    any value of h, r1, r2, L h or ||h||^2 there leaves it, raises SolverError.
    """
    params.check_dofs(v1, "first field")
    params.check_dofs(v2, "second field")
    stencil = params.stencil
    with np.errstate(all="ignore"):
        h = v2 - v1
        h_free = h.copy()
        h_free[params.mask.trace_pos] = 0.0
        r1, r2 = stencil.residual(v1), stencil.residual(v2)
        data_gap = r2 * r2 - r1 * r1 - 2.0 * r1 * stencil.linearize(v1).forward(h_free)
        hk = params.space.norm_sq(h)
        gaps = [float(np.sum(data_gap * w)) + params.beta * hk for w in core_weights]
    finite(gaps, "Bregman gap", lambda: params.cause(
        np.max(np.abs(data_gap)), hk, max(np.max(np.abs(x)) for x in (v1, v2, h)),
        max(map(np.max, core_weights))))
    return gaps, params.inner_h1_space.norm_sq(h), hk


def compact_support_ok(mask: DomainMask, v: np.ndarray) -> bool:
    """True when the field vanishes outside the once-eroded core region."""
    return not np.any(np.delete(v, mask.erode(mask.core_pos)))


def carleman_ratio(op: QuasilinearOperator, lam: float, mask: DomainMask,
                   v: np.ndarray) -> float:
    """Integrated Carleman quotient for a compactly supported field.

        ratio = sum (A0 h)^2 W / sum (lam |grad h|^2 [+ lam h_t^2] + lam^3 h^2) W

    with W the mask's shifted squared weight at lam times quadrature (the
    shift cancels in the quotient). The time-derivative term appears only for
    the hyperbolic family; the gradient is spatial for the time families. A
    strictly positive lower bound over lambda is the integrated trace of the
    pointwise weighted estimate, whose divergence terms vanish for compact
    support.
    """
    if not np.any(v):
        raise ConfigError("carleman_ratio needs a nonzero field")
    if not compact_support_ok(mask, v):
        raise ConfigError(
            "field is not compactly supported: values reach the boundary-adjacent layers"
        )
    w = _core_weight(mask, lam)
    stencil = OperatorStencil(op, mask)
    a0h = stencil.principal(v)
    num = float(np.sum(a0h * a0h * w))

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
    extension does not fit inside a ball, nothing does. One SobolevSpace.solve.
    """
    mask = space.mask
    v = np.zeros(mask.dofs.size)
    v[mask.value_pos] = data.g0
    v[mask.deriv_pos] = data.g1
    free = mask.free_pos
    with np.errstate(all="ignore"):  # its users check it (FunctionalParams.check_dofs)
        v[free] += space.solve(-space.apply_gram(v)[free])
    return v
