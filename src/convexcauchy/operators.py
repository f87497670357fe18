"""Discrete quasilinear operators: residual, principal part, linearization, adjoint.

Residual conventions per family (core nodes only, centered second-order
differences everywhere):

    elliptic    A(u) = sum_ij a_ij(x) u_{xi xj} + N(x, grad u, u)
    parabolic   A(u) = u_t - sum_ij a_ij(x,t) u_{xi xj} - N(x,t, grad u, u)
    hyperbolic  A(u) = a(x) u_tt - laplace(u) - N(x,t, grad u, u)

Here N is the lower-order term (first and zeroth order in u), supplied with
analytic partial derivatives. `grad u` always means the spatial gradient.

The linearization freezes N's partials at a base field and is an exact
derivative of the discrete residual map, so its transpose
(LinearizedOperator.adjoint) satisfies the discrete duality identity to
rounding.

OperatorStencil does the arithmetic on masked DOF vectors (see DomainMask)
through per-offset gather tables, one elementwise difference at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvexCauchyError
from .grid import DomainMask, axis_offset, neighbor_table

logger = logging.getLogger(__name__)

OPERATOR_FAMILIES = ("elliptic", "parabolic", "hyperbolic")


@dataclass(eq=False)
class LowerOrderTerm:
    """Lower-order nonlinearity N(p, g, u) with analytic first partials.

    value, d_u: map (points (...,d), grad (...,n), u (...)) -> (...)
    d_grad:     same arguments -> (..., n), the partials in each gradient slot.
    bind:       optional map points -> the same term with its fixed coefficient
                fields (source q(p), scale b(p)) evaluated once at those points.
    """

    value: Callable
    d_u: Callable
    d_grad: Callable
    name: str = "custom"
    bind: Callable | None = None

    def at(self, points: np.ndarray) -> "LowerOrderTerm":
        """The term for repeated calls at `points`, and only there: its fixed
        coefficient fields are evaluated here, once, with the same arithmetic."""
        return self if self.bind is None else self.bind(points)


def _fixed(fn: Callable, points: np.ndarray) -> Callable:
    """fn evaluated once at points, as a function returning those values."""
    values = fn(points)
    return lambda _points: values


def lower_source(source: Callable) -> LowerOrderTerm:
    """N = q(p): a pure source, keeping the residual affine."""

    def _val(points, grad, u):
        return source(points) + np.zeros_like(u)

    def _du(points, grad, u):
        return np.zeros_like(u)

    def _dg(points, grad, u):
        return np.zeros_like(grad)

    return LowerOrderTerm(_val, _du, _dg, name="source",
                          bind=lambda points: lower_source(_fixed(source, points)))


def lower_cubic(source: Callable) -> LowerOrderTerm:
    """N = -u^3 + q(p)."""

    def _val(points, grad, u):
        return -u**3 + source(points)

    def _du(points, grad, u):
        return -3.0 * u**2

    def _dg(points, grad, u):
        return np.zeros_like(grad)

    return LowerOrderTerm(_val, _du, _dg, name="cubic",
                          bind=lambda points: lower_cubic(_fixed(source, points)))


def lower_sine(source: Callable) -> LowerOrderTerm:
    """N = sin(u) + q(p)."""

    def _val(points, grad, u):
        return np.sin(u) + source(points)

    def _du(points, grad, u):
        return np.cos(u)

    def _dg(points, grad, u):
        return np.zeros_like(grad)

    return LowerOrderTerm(_val, _du, _dg, name="sine",
                          bind=lambda points: lower_sine(_fixed(source, points)))


def lower_grad_sq(scale: Callable, source: Callable) -> LowerOrderTerm:
    """N = b(p) |grad u|^2 + q(p); partials stay bounded on C^1-bounded sets."""

    def _val(points, grad, u):
        return scale(points) * np.sum(grad * grad, axis=-1) + source(points)

    def _du(points, grad, u):
        return np.zeros_like(u)

    def _dg(points, grad, u):
        return 2.0 * scale(points)[..., None] * grad

    return LowerOrderTerm(
        _val, _du, _dg, name="grad_sq",
        bind=lambda points: lower_grad_sq(_fixed(scale, points), _fixed(source, points)),
    )


@dataclass(frozen=True, eq=False)
class QuasilinearOperator:
    """Family, principal coefficients, and lower-order term of the PDE.

    principal: for elliptic/parabolic a callable points -> (..., n, n) symmetric
    matrix of second-order coefficients (None means the identity, i.e. the
    Laplacian); for hyperbolic a callable points -> (...) giving the wave
    coefficient a(x) in a(x) u_tt - laplace(u) (None means 1).

    mu1/mu2 are the ellipticity bounds; a_lo/a_hi bound the hyperbolic
    coefficient.
    """

    family: str
    dim: int  # total grid dimension (spatial, or spatial + time)
    principal: Callable | None = None
    lower: LowerOrderTerm | None = None
    mu1: float = 1.0
    mu2: float = 1.0
    a_lo: float = 1.0
    a_hi: float = 1.0

    def __post_init__(self):
        if self.family not in OPERATOR_FAMILIES:
            raise ConfigError(f"unknown operator family {self.family!r}")
        if self.dim < 1 + (self.family in ("parabolic", "hyperbolic")):
            raise ConfigError(f"dimension {self.dim} too small for family {self.family!r}")

    @property
    def n_spatial(self) -> int:
        if self.family == "elliptic":
            return self.dim
        return self.dim - 1

    @property
    def lower_sign(self) -> float:
        """Sign with which the lower-order term enters the residual."""
        return 1.0 if self.family == "elliptic" else -1.0


def validate_operator(op: QuasilinearOperator, mask: DomainMask,
                      seed: int = 0, samples: int = 64) -> None:
    """Sample-check symmetry, ellipticity bounds, and hyperbolic conditions."""
    rng = np.random.default_rng(seed)
    pts = mask.grid.coords()[mask.in_mask]
    if pts.shape[0] > samples:
        pts = pts[rng.choice(pts.shape[0], size=samples, replace=False)]
    slack = 1e-9

    if op.family in ("elliptic", "parabolic"):
        coeff = _principal_matrix(op, pts)
        if np.max(np.abs(coeff - np.swapaxes(coeff, -1, -2))) > slack:
            raise ConfigError("principal coefficients are not symmetric")
        for _ in range(8):
            eta = rng.normal(size=op.n_spatial)
            eta /= np.linalg.norm(eta)
            quad = np.einsum("...ij,i,j->...", coeff, eta, eta)
            if np.any(quad < op.mu1 - slack) or np.any(quad > op.mu2 + slack):
                raise ConfigError(
                    f"ellipticity bounds violated: sampled form in "
                    f"[{float(np.min(quad)):.6g}, {float(np.max(quad)):.6g}], "
                    f"declared [{op.mu1}, {op.mu2}]"
                )
    else:
        a = _wave_coefficient(op, pts)
        if np.any(a < op.a_lo - slack) or np.any(a > op.a_hi + slack):
            raise ConfigError(
                f"wave coefficient outside [{op.a_lo}, {op.a_hi}]: "
                f"sampled range [{float(np.min(a)):.6g}, {float(np.max(a)):.6g}]"
            )
        # (grad a, x - x0) >= 0, probed with centered differences of a
        x0 = np.asarray(mask.level.x0, dtype=float)
        h = 1e-6
        sprod = np.zeros(pts.shape[0])
        for j in range(op.n_spatial):
            bump = np.zeros_like(pts)
            bump[:, j] = h
            da = (_wave_coefficient(op, pts + bump) - _wave_coefficient(op, pts - bump)) / (2 * h)
            sprod += da * (pts[:, j] - x0[j])
        if np.any(sprod < -1e-6):
            raise ConfigError(
                "hyperbolic monotonicity (grad a, x - x0) >= 0 fails at sampled nodes"
            )


def _principal_matrix(op: QuasilinearOperator, points: np.ndarray) -> np.ndarray:
    n = op.n_spatial
    if op.principal is None:
        eye = np.eye(n)
        return np.broadcast_to(eye, points.shape[:-1] + (n, n)).copy()
    return np.asarray(op.principal(points), dtype=float)


def _wave_coefficient(op: QuasilinearOperator, points: np.ndarray) -> np.ndarray:
    if op.principal is None:
        return np.ones(points.shape[:-1])
    return np.asarray(op.principal(points), dtype=float)


# ---------------------------------------------------------------------------
# stencils on masked DOFs


class OperatorStencil:
    """The discrete operator of (op, mask) acting on masked DOF vectors.

    The residual and the linearization live on the core nodes. A core node
    keeps its whole 3^d neighbourhood inside the mask, so its stencil reads
    masked DOFs only. Each difference is the same elementwise expression as
    on the full grid, with a gather in place of a shift, so the results agree
    with a full-grid computation bit for bit on every node.

    Coefficients are vectors over the core nodes, in C order:
        second_pure: list of (axis, coeff)
        second_mixed: list of (axis_i, axis_j, coeff), the symmetric pair summed
        first: list of (axis, coeff), the parabolic time derivative
    tables[off] maps each core node to the DOF at node + off; adjoint_tables[off]
    maps each DOF to the core node at DOF - off, or to the zero sentinel.
    """

    def __init__(self, op: QuasilinearOperator, mask: DomainMask):
        self.op = op
        self.mask = mask
        grid = mask.grid
        core = mask.is_core
        self.points = grid.coords()[core]
        n_core = self.points.shape[0]
        self.second_pure: list[tuple[int, np.ndarray]] = []
        self.second_mixed: list[tuple[int, int, np.ndarray]] = []
        self.first: list[tuple[int, np.ndarray]] = []

        if op.family in ("elliptic", "parabolic"):
            sgn = 1.0 if op.family == "elliptic" else -1.0
            coeff = _principal_matrix(op, self.points)
            for i in range(op.n_spatial):
                self.second_pure.append((i, sgn * coeff[:, i, i]))
                for j in range(i + 1, op.n_spatial):
                    arr = 2.0 * sgn * coeff[:, i, j]
                    if np.any(arr):
                        self.second_mixed.append((i, j, arr))
            if op.family == "parabolic":
                self.first.append((grid.dim - 1, np.ones(n_core)))
        else:
            self.second_pure.append((grid.dim - 1, _wave_coefficient(op, self.points)))
            for j in range(op.n_spatial):
                self.second_pure.append((j, np.full(n_core, -1.0)))

        center = axis_offset(grid.dim, 0, 0)
        offsets = {center}
        for axis in range(grid.dim):
            offsets |= {axis_offset(grid.dim, axis, 1), axis_offset(grid.dim, axis, -1)}
        for ai, aj, _ in self.second_mixed:
            offsets |= set(_mixed_offsets(grid.dim, ai, aj))
        self.tables = {off: neighbor_table(mask.in_mask, off, rows=core) for off in offsets}
        self.adjoint_tables = {
            off: neighbor_table(core, [-o for o in off], rows=mask.in_mask) for off in offsets
        }
        self.core_pos = self.tables[center]  # DOF position of each core node
        # the lower-order term with its fixed fields evaluated on the core nodes
        self.lower = None if op.lower is None else op.lower.at(self.points)

    def d1(self, v: np.ndarray, axis: int) -> np.ndarray:
        dim, h = self.mask.grid.dim, self.mask.grid.spacing[axis]
        plus = v[self.tables[axis_offset(dim, axis, 1)]]
        minus = v[self.tables[axis_offset(dim, axis, -1)]]
        return (plus - minus) / (2.0 * h)

    def d2(self, v: np.ndarray, axis: int) -> np.ndarray:
        dim, h = self.mask.grid.dim, self.mask.grid.spacing[axis]
        plus = v[self.tables[axis_offset(dim, axis, 1)]]
        minus = v[self.tables[axis_offset(dim, axis, -1)]]
        return (plus - 2.0 * v[self.core_pos] + minus) / (h * h)

    def d2_mixed(self, v: np.ndarray, ax_i: int, ax_j: int) -> np.ndarray:
        out = np.zeros(self.core_pos.size)
        for (si, sj), off in zip(_SIGN_PAIRS, _mixed_offsets(self.mask.grid.dim, ax_i, ax_j)):
            out += si * sj * v[self.tables[off]]
        spacing = self.mask.grid.spacing
        return out / (4.0 * spacing[ax_i] * spacing[ax_j])

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Centered first differences along the spatial axes, shape (n_core, n)."""
        return np.stack([self.d1(v, j) for j in range(self.op.n_spatial)], axis=-1)

    def principal(self, v: np.ndarray) -> np.ndarray:
        """Principal-part residual on the core nodes.

        Parabolic keeps the time derivative, hyperbolic keeps a(x) u_tt.
        """
        out = np.zeros(self.core_pos.size)
        for axis, c in self.second_pure:
            out += c * self.d2(v, axis)
        for ai, aj, c in self.second_mixed:
            out += c * self.d2_mixed(v, ai, aj)
        for axis, c in self.first:
            out += c * self.d1(v, axis)
        return out

    def residual(self, v: np.ndarray) -> np.ndarray:
        """Full residual including the lower-order term, on the core nodes."""
        out = self.principal(v)
        if self.lower is not None:
            nval = self.lower.value(self.points, self.gradient(v), v[self.core_pos])
            if not np.all(np.isfinite(nval)):
                raise ConvexCauchyError("lower-order term produced non-finite values")
            out += self.op.lower_sign * nval
        return out

    def linearize(self, base: np.ndarray) -> "LinearizedOperator":
        """Exact derivative of the residual map at the DOF vector `base`."""
        return LinearizedOperator(self, base)


_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _mixed_offsets(dim: int, ax_i: int, ax_j: int) -> list[tuple[int, ...]]:
    out = []
    for si, sj in _SIGN_PAIRS:
        off = [0] * dim
        off[ax_i] = si
        off[ax_j] = sj
        out.append(tuple(off))
    return out


class LinearizedOperator:
    """Frozen-coefficient linearization of the residual map around a base field.

    The forward action on core nodes is

        L h = A0 h + s * (sum_i dN/d(grad_i) * h_{xi} + dN/du * h)

    with s the family sign of the lower-order term. `forward` maps a DOF
    vector to core-node values and `adjoint` is its exact transpose, a gather
    at each negated stencil offset.
    """

    def __init__(self, stencil: OperatorStencil, base: np.ndarray):
        self.stencil = stencil
        self.mask = stencil.mask
        self.grid = stencil.mask.grid
        self.second_pure = list(stencil.second_pure)
        self.second_mixed = list(stencil.second_mixed)
        self.first = list(stencil.first)
        self.zeroth: np.ndarray | None = None

        op, lower = stencil.op, stencil.lower
        if lower is not None:
            pts = stencil.points
            grad = stencil.gradient(base)
            uvals = base[stencil.core_pos]
            sgn = op.lower_sign
            dg = sgn * np.asarray(lower.d_grad(pts, grad, uvals), dtype=float)
            du = sgn * np.asarray(lower.d_u(pts, grad, uvals), dtype=float)
            if not (np.all(np.isfinite(dg)) and np.all(np.isfinite(du))):
                raise ConvexCauchyError("lower-order partials are non-finite at the base field")
            dg = np.broadcast_to(dg, grad.shape)
            for i in range(op.n_spatial):
                if np.any(dg[:, i]):
                    self.first.append((i, dg[:, i]))
            self.zeroth = np.broadcast_to(du, uvals.shape)

    def _terms(self):
        """Yield (offset, coeff vector, scale) triples of the stencil."""
        d = self.grid.dim
        for axis, c in self.second_pure:
            h2 = self.grid.spacing[axis] ** 2
            for s, w in ((1, 1.0), (0, -2.0), (-1, 1.0)):
                yield axis_offset(d, axis, s), c, w / h2
        for ai, aj, c in self.second_mixed:
            denom = 4.0 * self.grid.spacing[ai] * self.grid.spacing[aj]
            for (si, sj), off in zip(_SIGN_PAIRS, _mixed_offsets(d, ai, aj)):
                yield off, c, si * sj / denom
        for axis, c in self.first:
            h2 = 2.0 * self.grid.spacing[axis]
            for s, w in ((1, 1.0), (-1, -1.0)):
                yield axis_offset(d, axis, s), c, w / h2
        if self.zeroth is not None:
            yield axis_offset(d, 0, 0), self.zeroth, 1.0

    def forward(self, v: np.ndarray) -> np.ndarray:
        """L v on the core nodes, for a DOF vector v."""
        out = np.zeros(self.stencil.core_pos.size)
        for off, c, w in self._terms():
            out += w * c * v[self.stencil.tables[off]]
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """L^T y as a DOF vector, for core-node values y."""
        out = np.zeros(self.mask.dofs.size)
        buf = np.zeros(y.size + 1)  # the last slot is the tables' zero sentinel
        for off, c, w in self._terms():
            np.multiply(c, y, out=buf[:-1])
            out += w * buf[self.stencil.adjoint_tables[off]]
        return out

    def to_matrix(self) -> "scipy.sparse.csr_matrix":
        """Assemble `forward` as a sparse core-node x DOF matrix."""
        import scipy.sparse as sp

        core = np.arange(self.stencil.core_pos.size)
        rows, cols, vals = [], [], []
        for off, c, w in self._terms():
            sel = c != 0.0
            rows.append(core[sel])
            cols.append(self.stencil.tables[off][sel])
            vals.append(w * c[sel])
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(core.size, self.mask.dofs.size),
        )
        return mat.tocsr()
