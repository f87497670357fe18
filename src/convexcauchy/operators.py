"""Discrete quasilinear operators: residual, principal part, linearization, adjoint.

Residual conventions per family (core nodes only, centered second-order
differences everywhere):

    elliptic    A(u) = sum_ij a_ij(x) u_{xi xj} + N(x, grad u, u)
    parabolic   A(u) = u_t - sum_ij a_ij(x,t) u_{xi xj} - N(x,t, grad u, u)
    hyperbolic  A(u) = a(x) u_tt - laplace(u) - N(x,t, grad u, u)

Here N is the lower-order term (first and zeroth order in u), one entry of
LOWER_TERMS with analytic partial derivatives plus the source q(p). `grad u`
always means the spatial gradient.

The linearization freezes N's partials at a base field and is an exact
derivative of the discrete residual map, so its transpose
(LinearizedOperator.adjoint) satisfies the discrete duality identity to
rounding.

OperatorStencil does the arithmetic on masked DOF vectors (see DomainMask)
through per-offset gather tables, one elementwise difference at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import DomainMask, axis_offset, walk

OPERATOR_FAMILIES = ("elliptic", "parabolic", "hyperbolic")


@dataclass(frozen=True)
class Nonlinearity:
    """The field part f(grad u, u; b) of a lower-order term N = f + q(p).

    value, d_u: map (grad (..., n), u (...), b) -> (...); d_grad maps the same
    arguments to (..., n). A partial of None vanishes identically, and f then
    does not depend on that argument (grad is passed as None without d_grad).
    """

    value: Callable
    d_u: Callable | None = None
    d_grad: Callable | None = None

    @property
    def affine(self) -> bool:
        """Whether f does not depend on the field, so N adds only a fixed term."""
        return self.d_u is None and self.d_grad is None


# the lower-order terms by config id; N = f + q, with b(p) read by gradsq only
LOWER_TERMS = {
    "source": Nonlinearity(lambda grad, u, b: np.zeros_like(u)),
    "cubic": Nonlinearity(lambda grad, u, b: -u**3, d_u=lambda grad, u, b: -3.0 * u**2),
    "sine": Nonlinearity(lambda grad, u, b: np.sin(u), d_u=lambda grad, u, b: np.cos(u)),
    # partials stay bounded on C^1-bounded sets
    "gradsq": Nonlinearity(lambda grad, u, b: b * np.sum(grad * grad, axis=-1),
                           d_grad=lambda grad, u, b: 2.0 * np.expand_dims(b, -1) * grad),
}


@dataclass(frozen=True, eq=False)
class LowerOrderTerm:
    """Lower-order term N(p, grad u, u) = f(grad u, u; b(p)) + q(p).

    kind names f in LOWER_TERMS; source is q and scale is b, both maps
    points (..., d) -> (...). Only gradsq takes a scale; None means b = 1.
    """

    kind: str
    source: Callable
    scale: Callable | None = None

    def __post_init__(self):
        if self.kind not in LOWER_TERMS:
            raise ConfigError(f"unknown lower-order term {self.kind!r}")
        if self.scale is not None and self.kind != "gradsq":
            raise ConfigError(f"only the gradsq term takes a scale b, not {self.kind!r}")

    @property
    def f(self) -> Nonlinearity:
        return LOWER_TERMS[self.kind]

    def fields(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        """q and b at points."""
        return self.source(points), 1.0 if self.scale is None else self.scale(points)

    # N and its partials at arbitrary points, each call evaluating q and b there
    def value(self, points, grad, u):
        q, b = self.fields(points)
        return self.f.value(grad, u, b) + q

    def d_u(self, points, grad, u):
        fn = self.f.d_u
        return np.zeros_like(u) if fn is None else fn(grad, u, self.fields(points)[1])

    def d_grad(self, points, grad, u):
        fn = self.f.d_grad
        return np.zeros_like(grad) if fn is None else fn(grad, u, self.fields(points)[1])


@dataclass(frozen=True, eq=False)
class QuasilinearOperator:
    """Family, principal coefficients, and lower-order term of the PDE.

    principal: for elliptic/parabolic a callable points -> (..., n, n) symmetric
    matrix of second-order coefficients (None means the identity, i.e. the
    Laplacian); for hyperbolic a callable points -> (...) giving the wave
    coefficient a(x) in a(x) u_tt - laplace(u) (None means 1). No bounds are
    declared: OperatorStencil measures the principal part at the core nodes.
    """

    family: str
    dim: int  # total grid dimension (spatial, or spatial + time)
    principal: Callable | None = None
    lower: LowerOrderTerm | None = None

    def __post_init__(self):
        if self.family not in OPERATOR_FAMILIES:
            raise ConfigError(f"unknown operator family {self.family!r}")
        if self.dim < 1 + (self.family in ("parabolic", "hyperbolic")):
            raise ConfigError(f"dimension {self.dim} too small for family {self.family!r}")

    @property
    def n_spatial(self) -> int:
        return self.dim - (self.family != "elliptic")

    @property
    def lower_sign(self) -> float:
        """Sign with which the lower-order term enters the residual."""
        return 1.0 if self.family == "elliptic" else -1.0


def _range(values: np.ndarray) -> str:
    return f"[{float(np.min(values)):.6g}, {float(np.max(values)):.6g}]"


def _principal_matrix(op: QuasilinearOperator, points: np.ndarray) -> np.ndarray:
    n = op.n_spatial
    if op.principal is None:
        return np.broadcast_to(np.eye(n), points.shape[:-1] + (n, n)).copy()
    return np.asarray(op.principal(points), dtype=float)


def _wave_coefficient(op: QuasilinearOperator, points: np.ndarray) -> np.ndarray:
    if op.principal is None:
        return np.ones(points.shape[:-1])
    return np.asarray(op.principal(points), dtype=float)


def _check_matrix(coeff: np.ndarray) -> None:
    """Refuse a principal matrix not symmetric to 1e-9 of its largest entry, or not elliptic."""
    skew = np.abs(coeff - np.swapaxes(coeff, -1, -2))
    if np.max(skew) > 1e-9 * np.max(np.abs(coeff)):
        raise ConfigError(f"principal part not symmetric: |a_ij - a_ji| in {_range(skew)}")
    eig = np.linalg.eigvalsh(coeff)
    if not np.min(eig) > 0.0:
        raise ConfigError(f"ellipticity fails: eigenvalues in {_range(eig)}")


def _check_wave(op: QuasilinearOperator, a: np.ndarray, points: np.ndarray, x0) -> None:
    """Refuse a wave coefficient a <= 0 at a node, or (grad a, x - x0) < -1e-6 max a at one."""
    if not np.min(a) > 0.0:
        raise ConfigError(f"wave coefficient not positive: range {_range(a)}")
    h = 1e-6  # the step of the centered differences of a
    sprod = np.zeros(points.shape[0])
    for j in range(op.n_spatial):
        bump = np.zeros_like(points)
        bump[:, j] = h
        da = (_wave_coefficient(op, points + bump) - _wave_coefficient(op, points - bump)) / (2 * h)
        sprod += da * (points[:, j] - x0[j])
    if np.any(sprod < -1e-6 * np.max(a)):
        raise ConfigError(f"hyperbolic monotonicity fails: (grad a, x - x0) in {_range(sprod)}")


# ---------------------------------------------------------------------------
# stencils on masked DOFs


class OperatorStencil:
    """The discrete operator of (op, mask) acting on masked DOF vectors.

    The residual and the linearization live on the core nodes. A core node
    keeps its whole 3^d neighbourhood inside the mask, so its stencil reads
    masked DOFs only. Each difference is the same elementwise expression as
    on the full grid, with a gather in place of a shift, so the results agree
    with a full-grid computation bit for bit on every node. The constructor
    checks the principal part it keeps (_check_matrix, _check_wave).

    Coefficients are vectors over the core nodes, in C order:
        second_pure: list of (axis, coeff)
        second_mixed: list of (axis_i, axis_j, coeff), the symmetric pair summed
        first: list of (axis, coeff), the parabolic time derivative
    tables[off] maps each core node to the DOF at node + off; adjoint_tables[off]
    maps each DOF to the core node at DOF - off, or to the zero sentinel. Both
    are walks through the mask's step tables, exact as every offset lies in
    the 3^d box of a core node, which is masked.
    """

    def __init__(self, op: QuasilinearOperator, mask: DomainMask):
        self.op = op
        self.mask = mask
        grid = mask.grid
        if op.dim != grid.dim:
            raise ConfigError(f"operator of dimension {op.dim} on a {grid.dim}-D grid")
        self.points = grid.coords(mask.dofs[mask.core_pos])
        n_core = self.points.shape[0]
        self.second_pure: list[tuple[int, np.ndarray]] = []
        self.second_mixed: list[tuple[int, int, np.ndarray]] = []
        self.first: list[tuple[int, np.ndarray]] = []

        if op.family in ("elliptic", "parabolic"):
            sgn = 1.0 if op.family == "elliptic" else -1.0
            coeff = _principal_matrix(op, self.points)
            _check_matrix(coeff)
            for i in range(op.n_spatial):
                self.second_pure.append((i, sgn * coeff[:, i, i]))
                for j in range(i + 1, op.n_spatial):
                    arr = 2.0 * sgn * coeff[:, i, j]
                    if np.any(arr):
                        self.second_mixed.append((i, j, arr))
            if op.family == "parabolic":
                self.first.append((grid.dim - 1, np.ones(n_core)))
        else:
            a = _wave_coefficient(op, self.points)
            _check_wave(op, a, self.points, mask.level.x0)
            self.second_pure.append((grid.dim - 1, a))
            for j in range(op.n_spatial):
                self.second_pure.append((j, np.full(n_core, -1.0)))

        center = axis_offset(grid.dim, 0, 0)
        offsets = {center} | {axis_offset(grid.dim, a, s) for a in range(grid.dim) for s in (1, -1)}
        for ai, aj, _ in self.second_mixed:
            offsets |= set(_mixed_offsets(grid.dim, ai, aj))
        self.tables = {off: walk(mask.steps, mask.core_pos, off) for off in offsets}
        # the core row of each DOF, else n_core: the adjoint's zero sentinel
        core_row = np.full(mask.dofs.size + 1, n_core, dtype=np.intp)
        core_row[mask.core_pos] = np.arange(n_core)
        self.adjoint_tables = {off: core_row[walk(mask.steps, np.arange(mask.dofs.size),
                                                  [-o for o in off])] for off in offsets}
        self.core_pos = self.tables[center]  # DOF position of each core node
        # q and b of the lower-order term, evaluated once on the core nodes
        self.source, self.scale = op.lower.fields(self.points) if op.lower else (None, None)

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
        """Full residual including the lower-order term, on the core nodes;
        values past the float range run on, to be checked in what is made of them."""
        out = self.principal(v)
        if self.op.lower is not None:
            f = self.op.lower.f
            grad = None if f.d_grad is None else self.gradient(v)
            out += self.op.lower_sign * (f.value(grad, v[self.core_pos], self.scale) + self.source)
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

    with s the family sign of the lower-order term. A partial that vanishes
    identically adds no term: `zeroth` stays None without dN/du, and no
    gradient is taken without dN/d(grad). `forward` maps a DOF vector to
    core-node values and `adjoint` is its exact transpose, a gather at each
    negated stencil offset.
    """

    def __init__(self, stencil: OperatorStencil, base: np.ndarray):
        self.stencil = stencil
        self.mask = stencil.mask
        self.grid = stencil.mask.grid
        self.first = list(stencil.first)
        self.zeroth: np.ndarray | None = None

        if stencil.op.lower is None:
            return
        f = stencil.op.lower.f
        grad = None if f.d_grad is None else stencil.gradient(base)
        uvals = base[stencil.core_pos]

        def partial(fn, shape):
            out = stencil.op.lower_sign * np.asarray(fn(grad, uvals, stencil.scale), dtype=float)
            return np.broadcast_to(out, shape)

        if f.d_grad is not None:
            dg = partial(f.d_grad, grad.shape)
            for i in range(stencil.op.n_spatial):
                if np.any(dg[:, i]):
                    self.first.append((i, dg[:, i]))
        if f.d_u is not None:
            self.zeroth = partial(f.d_u, uvals.shape)

    def _terms(self):
        """Yield (offset, coeff vector, scale) triples of the stencil."""
        d = self.grid.dim
        for axis, c in self.stencil.second_pure:
            h2 = self.grid.spacing[axis] ** 2
            for s, w in ((1, 1.0), (0, -2.0), (-1, 1.0)):
                yield axis_offset(d, axis, s), c, w / h2
        for ai, aj, c in self.stencil.second_mixed:
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

    def rows(self) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
        """The stencil by offset, one row per core node in ascending order:
        (offset, DOF position each core row reads there, coefficient per core
        row), the `_terms` of one offset summed in `_terms` order."""
        summed = {}
        for off, c, scale in self._terms():
            summed[off] = summed[off] + scale * c if off in summed else scale * c
        return [(off, self.stencil.tables[off], c) for off, c in summed.items()]
