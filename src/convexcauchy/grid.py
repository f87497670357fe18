"""Structured grids, level functions, and level-set domain masks.

The computational domain is a uniform tensor-product lattice over a bounding
box. A scalar level function ell classifies every node against a threshold
theta: the working subdomain is {ell > theta}, its data-carrying boundary is
the axis-0 minimum face of the grid (the flattened Cauchy surface; for the
hyperbolic family, every spatial face), and the remaining rim of {ell > theta}
is the free level surface where no data is given.

Four level-function families are supported:

    elliptic    ell = (x1 + |x_perp|^2 / X^2 + a)^(-nu),      theta = c^(-nu)
    parabolic   ell = (x1 + |x_perp|^2/X^2 + t^2/T^2 + a)^(-nu), theta = c^(-nu)
    hyperbolic  ell = |x - x0|^2 - eta * t^2,                  theta = c
    generic     ell = user-supplied callable,                  theta = c

For the time-dependent families the last grid axis is time and the masked
region must stay strictly away from the t = +-T faces.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvexCauchyError, GeometryError

logger = logging.getLogger(__name__)

FAMILIES = ("generic", "elliptic", "parabolic", "hyperbolic")
TIME_FAMILIES = ("parabolic", "hyperbolic")

# Fraction of the level range above threshold used for the default epsilon.
DEFAULT_EPSILON_FRACTION = 0.1


class Label(IntEnum):
    """Node classification within the level-set geometry."""

    OUTSIDE = 0
    INTERIOR = 1
    XI_BOUNDARY = 2
    CAUCHY_BOUNDARY = 3
    INNER = 4


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product lattice.

    Node coordinates are origin + index * spacing, exactly reproducible.
    Every axis needs at least 3 nodes so centered second differences fit.
    """

    dim: int
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"grid dimension must be >= 1, got {self.dim}")
        for name, tup in (("origin", self.origin), ("spacing", self.spacing), ("shape", self.shape)):
            if len(tup) != self.dim:
                raise ConfigError(f"grid {name} has length {len(tup)}, expected {self.dim}")
        if any(h <= 0 for h in self.spacing):
            raise ConfigError(f"grid spacing must be strictly positive, got {self.spacing}")
        if any(n < 3 for n in self.shape):
            raise ConfigError(f"grid needs >= 3 nodes per axis, got shape {self.shape}")

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + np.arange(self.shape[axis]) * self.spacing[axis]

    def coords(self) -> np.ndarray:
        """All node coordinates, shape (*grid.shape, dim)."""
        axes = [self.axis_coords(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def bounds(self) -> list[tuple[float, float]]:
        return [
            (self.origin[j], self.origin[j] + (self.shape[j] - 1) * self.spacing[j])
            for j in range(self.dim)
        ]


def build_grid(bounds: Sequence[Sequence[float]], resolution: Sequence[int]) -> Grid:
    """Build a uniform grid covering `bounds` with `resolution` nodes per axis.

    Per-axis spacing is extent / (resolution - 1).
    """
    if len(bounds) != len(resolution):
        raise ConfigError(
            f"bounds ({len(bounds)} axes) and resolution ({len(resolution)}) disagree"
        )
    origin, spacing, shape = [], [], []
    for j, ((lo, hi), n) in enumerate(zip(bounds, resolution)):
        n = int(n)
        if n < 3:
            raise ConfigError(f"resolution along axis {j} must be >= 3, got {n}")
        extent = float(hi) - float(lo)
        if extent <= 0:
            raise ConfigError(f"degenerate bounds along axis {j}: [{lo}, {hi}]")
        origin.append(float(lo))
        spacing.append(extent / (n - 1))
        shape.append(n)
    return Grid(dim=len(shape), origin=tuple(origin), spacing=tuple(spacing), shape=tuple(shape))


@dataclass(frozen=True, eq=False)
class LevelSpec:
    """Parameters of the level function and its threshold.

    epsilon is the margin separating the inner subdomain {ell > theta + 2 eps}
    from the full subdomain {ell > theta}. When None it is resolved at
    classification time as DEFAULT_EPSILON_FRACTION * (max node level - theta).
    """

    family: str
    a: float = 0.0
    c: float = 0.0
    nu: float = 2.0
    x_width: float = 1.0
    t_span: float = 1.0
    eta: float = 0.5
    x0: tuple[float, ...] = ()
    epsilon: float | None = None
    xi_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown level family {self.family!r}, expected one of {FAMILIES}")
        if self.family in ("elliptic", "parabolic"):
            if not (0.0 < self.a < 0.5 and 0.0 < self.c < 0.5):
                raise ConfigError(f"need a, c in (0, 1/2), got a={self.a}, c={self.c}")
            if not self.a < self.c:
                raise ConfigError(f"need a < c, got a={self.a}, c={self.c}")
            if self.nu < 1.0:
                raise ConfigError(f"need nu >= 1, got {self.nu}")
            if self.x_width <= 0:
                raise ConfigError(f"need x_width > 0, got {self.x_width}")
        if self.family == "parabolic" and self.t_span <= 0:
            raise ConfigError(f"need t_span > 0, got {self.t_span}")
        if self.family == "hyperbolic":
            if not 0.0 < self.eta < 1.0:
                raise ConfigError(f"need eta in (0, 1), got {self.eta}")
            if self.c <= 0:
                raise ConfigError(f"need c > 0 for the hyperbolic family, got {self.c}")
            if not self.x0:
                raise ConfigError("hyperbolic family needs a focal point x0")
        if self.family == "generic":
            if self.xi_fn is None:
                raise ConfigError("generic family needs a level callable xi_fn")
            if self.c < 0:
                raise ConfigError(f"need c >= 0, got {self.c}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def threshold(self) -> float:
        """Level threshold separating the masked subdomain from the rest."""
        if self.family in ("elliptic", "parabolic"):
            return float(self.c ** (-self.nu))
        return float(self.c)


def level_values(spec: LevelSpec, points: np.ndarray) -> np.ndarray:
    """Vectorized level function; points has shape (..., d)."""
    points = np.asarray(points, dtype=float)
    if spec.family == "generic":
        return np.asarray(spec.xi_fn(points), dtype=float)
    if spec.family == "elliptic":
        x1 = points[..., 0]
        perp = points[..., 1:]
        base = x1 + np.sum(perp * perp, axis=-1) / spec.x_width**2 + spec.a
    elif spec.family == "parabolic":
        x1 = points[..., 0]
        perp = points[..., 1:-1]
        t = points[..., -1]
        base = (
            x1
            + np.sum(perp * perp, axis=-1) / spec.x_width**2
            + t * t / spec.t_span**2
            + spec.a
        )
    else:  # hyperbolic
        x = points[..., :-1]
        t = points[..., -1]
        x0 = np.asarray(spec.x0, dtype=float)
        if x.shape[-1] != x0.size:
            raise ConfigError(
                f"focal point x0 has {x0.size} components but points have "
                f"{x.shape[-1]} spatial axes"
            )
        diff = x - x0
        return np.sum(diff * diff, axis=-1) - spec.eta * t * t
    if np.any(base <= 0):
        raise GeometryError(
            "level function base x1 + |x_perp|^2/X^2 + a is not positive; "
            "the grid extends to x1 + a <= 0"
        )
    return base ** (-spec.nu)


def level_value(spec: LevelSpec, point: Sequence[float]) -> float:
    """Level function at a single point."""
    return float(level_values(spec, np.asarray(point, dtype=float)))


def shift(values: np.ndarray, offset: Sequence[int], fill=0) -> np.ndarray:
    """Return s with s[p] = values[p + offset]; out-of-range entries get `fill`."""
    out = np.full_like(values, fill)
    src, dst = [], []
    for n, off in zip(values.shape, offset):
        off = int(off)
        if abs(off) >= n:
            return out
        if off >= 0:
            dst.append(slice(0, n - off))
            src.append(slice(off, n))
        else:
            dst.append(slice(-off, n))
            src.append(slice(0, n + off))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _neighbor_offsets(dim: int) -> list[tuple[int, ...]]:
    return [o for o in itertools.product((-1, 0, 1), repeat=dim) if any(o)]


def erode(nodes: np.ndarray) -> np.ndarray:
    """The nodes of `nodes` whose whole 3^d neighbourhood lies in `nodes`."""
    out = nodes.copy()
    for off in _neighbor_offsets(nodes.ndim):
        out &= shift(nodes, off, fill=False)
    return out


def axis_offset(dim: int, axis: int, step: int = 1) -> tuple[int, ...]:
    """Stencil offset of `step` nodes along `axis`."""
    off = [0] * dim
    off[axis] = step
    return tuple(off)


def neighbor_table(nodes: np.ndarray, offset: Sequence[int],
                   rows: np.ndarray | None = None) -> np.ndarray:
    """Gather table of one stencil offset over the C-order numbering of `nodes`.

    Entry k is the position, among the True entries of `nodes`, of p_k + offset,
    where p_k is the k-th True entry of `rows` (default: `nodes` itself). Where
    p + offset is not a node or leaves the grid the entry is the sentinel
    nodes.sum(), one past the end, which reads zero from a buffer whose one
    extra last slot holds 0.
    """
    n = int(np.count_nonzero(nodes))
    number = np.full(nodes.shape, n, dtype=np.intp)
    number[nodes] = np.arange(n)
    return shift(number, offset, fill=n)[nodes if rows is None else rows]


def check_finite(values: np.ndarray, what: str = "field") -> np.ndarray:
    """values, after raising ConvexCauchyError if any entry is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise ConvexCauchyError(f"{what} contains non-finite values")
    return values


@dataclass(eq=False)
class Field:
    """Real values on every grid node, checked finite.

    The library works on DOF vectors (see DomainMask); a Field is the
    full-grid form that harness.starting_field hands to callers.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        check_finite(self.values)


class Halo:
    """The masked nodes plus one layer of neighbours, with per-axis gather tables.

    A field that vanishes outside the mask keeps its support inside the halo
    through one sweep of +-1 neighbour stencils along every axis in turn, so
    during such a sweep the zero sentinel of the tables reads exactly what a
    full-grid computation would read.
    """

    def __init__(self, in_mask: np.ndarray, free: np.ndarray):
        dim = in_mask.ndim
        nodes = in_mask.copy()
        for off in _neighbor_offsets(dim):
            nodes |= shift(in_mask, off, fill=False)
        self.index = np.flatnonzero(nodes.ravel())  # flat node index per halo slot
        self.free = free[nodes]
        self.dof_pos = np.flatnonzero(in_mask[nodes])  # halo slots of the masked DOFs
        self.tables = [
            (neighbor_table(nodes, axis_offset(dim, a)),
             neighbor_table(nodes, axis_offset(dim, a, -1)))
            for a in range(dim)
        ]


class DomainMask:
    """Per-node classification of a grid against a level spec, plus quadrature.

    The masked nodes are the degrees of freedom (DOFs) of the solver: a DOF
    vector holds one value per masked node, in C order (`dofs` gives their
    flat node indices). `gather` and `scatter` convert between DOF vectors and
    full-grid arrays, which are zero outside the mask; `value_pos`,
    `deriv_pos`, `trace_pos` (both layers) and `free_pos` (the rest) are the
    DOF positions of the trace layers and of the free nodes.

    Attributes:
        grid: the underlying Grid.
        level: LevelSpec with epsilon resolved.
        label: int8 array of Label values, one per node.
        quad_weight: trapezoid-rule volume element per node, 0 outside.
        ell: cached level values per node.
        theta: level threshold.
        normal_axis: axis of the flattened Cauchy face (always 0).
        value_layer: nodes carrying the Dirichlet trace g0.
        deriv_layer: first inward layer, carrying the normal-derivative trace
            encoded as field values.

    All arrays are read-only after construction; classification is pure.
    """

    def __init__(self, grid: Grid, level: LevelSpec, label: np.ndarray,
                 quad_weight: np.ndarray, ell: np.ndarray,
                 value_layer: np.ndarray, deriv_layer: np.ndarray):
        self.grid = grid
        self.level = level
        self.label = label
        self.quad_weight = quad_weight
        self.ell = ell
        self.theta = level.threshold
        self.epsilon = float(level.epsilon)
        self.normal_axis = 0
        self.value_layer = value_layer
        self.deriv_layer = deriv_layer

        self.in_mask = label != Label.OUTSIDE
        self.is_core = (label == Label.INTERIOR) | (label == Label.INNER)
        self.is_inner = label == Label.INNER
        self.constrained = value_layer | deriv_layer
        self.free = self.in_mask & ~self.constrained
        self.counts = {lab.name.lower(): int(np.sum(label == lab)) for lab in Label}
        self.dofs = np.flatnonzero(self.in_mask.ravel())
        self.value_pos = np.flatnonzero(value_layer[self.in_mask])
        self.deriv_pos = np.flatnonzero(deriv_layer[self.in_mask])
        self.trace_pos = np.flatnonzero(self.constrained[self.in_mask])
        self.free_pos = np.flatnonzero(self.free[self.in_mask])

        for arr in (self.label, self.quad_weight, self.ell, self.value_layer,
                    self.deriv_layer, self.in_mask, self.is_core, self.is_inner,
                    self.constrained, self.free, self.dofs, self.value_pos,
                    self.deriv_pos, self.trace_pos, self.free_pos):
            arr.setflags(write=False)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """DOF vector of a full-grid array."""
        return values.ravel()[self.dofs]

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Full-grid array of a DOF vector, zero outside the mask."""
        out = np.zeros(self.grid.shape)
        out.ravel()[self.dofs] = vec
        return out

    @cached_property
    def halo(self) -> Halo:
        """Halo of the mask, built on first use (only random draws need it)."""
        return Halo(self.in_mask, self.free)

    def largest_cell_level_variation(self) -> float:
        """Max level-value change across one grid cell within the mask."""
        worst = 0.0
        for axis in range(self.grid.dim):
            off = [0] * self.grid.dim
            off[axis] = 1
            nb_ell = shift(self.ell, off, fill=np.nan)
            nb_in = shift(self.in_mask, off, fill=False)
            both = self.in_mask & nb_in
            if np.any(both):
                worst = max(worst, float(np.max(np.abs(nb_ell[both] - self.ell[both]))))
        return worst


def _data_faces(grid: Grid, family: str) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The data-carrying faces of the box, each as its nodes and the offset one
    step inward: every spatial face for the hyperbolic family (lateral Cauchy
    data), else the axis-0 minimum face."""
    if family == "hyperbolic":
        sides = [(axis, side) for axis in range(grid.dim - 1) for side in (0, -1)]
    else:
        sides = [(0, 0)]
    faces = []
    for axis, side in sides:
        face = np.zeros(grid.shape, dtype=bool)
        face[(slice(None),) * axis + (side,)] = True
        faces.append((face, axis_offset(grid.dim, axis, 1 if side == 0 else -1)))
    return faces


def classify_nodes(grid: Grid, spec: LevelSpec) -> DomainMask:
    """Classify grid nodes into level-set subdomains and assign quadrature weights.

    A node belongs to the masked subdomain iff its level value exceeds the
    threshold exactly (node-based masking, no cut cells). Core nodes keep a
    full 3^d neighborhood inside the mask so that centered stencils never
    reach an outside node.
    """
    d = grid.dim
    if spec.family == "hyperbolic":
        if len(spec.x0) != d - 1:
            raise ConfigError(f"x0 has {len(spec.x0)} components, expected {d - 1}")
        bounds = grid.bounds()
        for j, x0j in enumerate(spec.x0):
            lo, hi = bounds[j]
            if not (lo < x0j < hi):
                raise GeometryError(
                    f"focal point component x0[{j}]={x0j} lies outside the spatial box ({lo}, {hi})"
                )

    pts = grid.coords()
    ell = level_values(spec, pts)
    theta = spec.threshold
    in_closure = ell > theta

    if not np.any(in_closure):
        raise GeometryError(
            f"empty subdomain: no node has level value above threshold {theta:.6g}"
        )

    if spec.family in TIME_FAMILIES:
        t_axis = d - 1
        first = np.take(in_closure, 0, axis=t_axis)
        last = np.take(in_closure, grid.shape[t_axis] - 1, axis=t_axis)
        if np.any(first) or np.any(last):
            raise GeometryError(
                "masked region touches the t = +-T faces; shrink the threshold "
                "or extend the time interval"
            )

    eps = spec.epsilon
    ell_max = float(np.max(ell[in_closure]))
    if eps is None:
        eps = DEFAULT_EPSILON_FRACTION * (ell_max - theta)
        if eps <= 0:
            raise GeometryError("cannot resolve epsilon: level is constant on the mask")
    resolved = replace(spec, epsilon=float(eps))

    faces = _data_faces(grid, spec.family)
    cauchy_face = np.logical_or.reduce([face for face, _ in faces])
    label = np.full(grid.shape, int(Label.OUTSIDE), dtype=np.int8)
    label[in_closure] = Label.XI_BOUNDARY
    core = erode(in_closure) & ~cauchy_face
    label[core] = Label.INTERIOR
    label[core & (ell > theta + 2 * eps)] = Label.INNER
    label[in_closure & cauchy_face] = Label.CAUCHY_BOUNDARY

    if not np.any(core):
        raise GeometryError("no interior nodes: the masked subdomain is too thin for the grid")
    if not np.any(label == Label.INNER):
        raise GeometryError(
            f"inner subdomain empty at epsilon={eps:.6g}: no node has level above "
            f"{theta + 2 * eps:.6g} with a full neighborhood; reduce epsilon"
        )
    cauchy_nodes = label == Label.CAUCHY_BOUNDARY
    if not np.any(cauchy_nodes):
        raise GeometryError("Cauchy trace empty: the mask does not reach the data face")

    in_mask = label != Label.OUTSIDE
    quad = np.zeros(grid.shape, dtype=float)
    quad[in_mask] = 1.0
    for axis in range(d):
        off = [0] * d
        off[axis] = 1
        nb_plus = shift(in_mask, off, fill=False)
        off[axis] = -1
        nb_minus = shift(in_mask, off, fill=False)
        w = np.where(nb_plus & nb_minus, grid.spacing[axis], 0.5 * grid.spacing[axis])
        quad[in_mask] *= w[in_mask]

    # the derivative layer: the nodes one step inward of a data node, still
    # in the closure and not data nodes themselves
    deriv_layer = np.zeros(grid.shape, dtype=bool)
    for face, inward in faces:
        deriv_layer |= shift(face & cauchy_nodes, [-o for o in inward], fill=False)
    deriv_layer &= in_closure & ~cauchy_nodes

    mask = DomainMask(grid, resolved, label, quad, ell, cauchy_nodes, deriv_layer)
    logger.info(
        "classified %d nodes: %s (epsilon=%.4g, theta=%.4g)",
        grid.node_count, mask.counts, eps, theta,
    )
    return mask
