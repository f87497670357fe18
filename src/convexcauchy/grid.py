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

import logging
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

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

    def coords(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Node coordinates: of every node, shape (*grid.shape, dim), or of the
        nodes at the flat node indices `nodes`, shape (count, dim).

        The second form is bit-identical to coords().reshape(-1, dim)[nodes]
        without building the full-grid array: each coordinate is read off
        axis_coords at the node's index along that axis. A boolean array,
        which unravel_index would read as the indices 0 and 1, is a TypeError.
        """
        if nodes is None:
            return np.stack(np.broadcast_arrays(*self.open_coords()), axis=-1)
        if np.asarray(nodes).dtype == bool:
            raise TypeError("Grid.coords takes flat node indices, not a boolean node set")
        index = np.unravel_index(nodes, self.shape)
        return np.stack([self.axis_coords(j)[i] for j, i in enumerate(index)], axis=-1)

    def open_coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as one array per axis, shaped to broadcast against
        each other to the grid shape (np.ix_ of the axis coordinates): the
        same values as coords() without the (*shape, dim) array."""
        return np.ix_(*(self.axis_coords(j) for j in range(self.dim)))

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
    # generic family: maps the coordinate components (see coordinate_components)
    # to level values
    xi_fn: Callable[[tuple[np.ndarray, ...]], np.ndarray] | None = field(default=None, repr=False)

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


def coordinate_components(points) -> tuple[np.ndarray, ...]:
    """Coordinate j of points at index j: the slices [..., j] of an array of
    shape (..., d), or the arrays of a tuple of d arrays that broadcast
    against each other, such as Grid.open_coords()."""
    if isinstance(points, tuple):
        return tuple(np.asarray(c, dtype=float) for c in points)
    points = np.asarray(points, dtype=float)
    return tuple(points[..., j] for j in range(points.shape[-1]))


def level_values(spec: LevelSpec, points) -> np.ndarray:
    """Vectorized level function of points, given as coordinate_components
    takes them; the result has the points' (broadcast) shape. Each family
    adds its coordinate terms in axis order, so both forms of the same
    points give the same bits."""
    x = coordinate_components(points)
    shape = np.broadcast_shapes(*(c.shape for c in x))
    if spec.family == "generic":
        values = np.asarray(spec.xi_fn(x), dtype=float)
    elif spec.family == "hyperbolic":
        x0 = np.asarray(spec.x0, dtype=float)
        if len(x) - 1 != x0.size:
            raise ConfigError(
                f"focal point x0 has {x0.size} components but points have "
                f"{len(x) - 1} spatial axes"
            )
        t = x[-1]
        values = sum((c - c0) * (c - c0) for c, c0 in zip(x[:-1], x0)) - spec.eta * t * t
    else:
        perp = x[1:-1] if spec.family == "parabolic" else x[1:]
        base = x[0] + sum(c * c for c in perp) / spec.x_width**2
        if spec.family == "parabolic":
            base = base + x[-1] * x[-1] / spec.t_span**2
        base += spec.a
        if np.any(base <= 0):
            raise GeometryError(
                "level function base x1 + |x_perp|^2/X^2 + a is not positive; "
                "the grid extends to x1 + a <= 0"
            )
        base **= -spec.nu
        values = base
    return values if values.shape == shape else np.broadcast_to(values, shape).copy()


def shift(values: np.ndarray, offset: Sequence[int], fill=0) -> np.ndarray:
    """Return s with s[p] = values[p + offset]; out-of-range entries get `fill`.

    The full-grid stencil form, kept as the reference the gather tables must
    match; the library itself works through gather tables."""
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


def axis_offset(dim: int, axis: int, step: int = 1) -> tuple[int, ...]:
    """Stencil offset of `step` nodes along `axis`."""
    off = [0] * dim
    off[axis] = step
    return tuple(off)


def flat_strides(shape: Sequence[int]) -> np.ndarray:
    """Flat-index step of one node along each axis of a C-order array."""
    return np.cumprod((1, *shape[:0:-1]))[::-1]


def flat_neighbor_tables(flat: np.ndarray, shape: Sequence[int],
                         offsets: Sequence[Sequence[int]],
                         start: np.ndarray | None = None) -> list[np.ndarray]:
    """Gather tables of stencil offsets over nodes given by their sorted flat
    indices `flat` in a C-order grid of `shape`.

    Entry k of an offset's table is the position in `flat` of start[k] +
    offset, where start holds flat node indices (default: `flat` itself).
    Where that node is not in `flat` or leaves the grid the entry is the
    sentinel flat.size, one past the end, which reads zero from a buffer
    whose one extra last slot holds 0. The positions are searched among the
    flat indices, so no full-grid array is made.
    """
    start = flat if start is None else start
    padded = np.append(flat, -1)  # a search past the end reads -1, which no target equals
    index = np.unravel_index(start, shape)
    strides = flat_strides(shape)
    tables = []
    for offset in offsets:
        target, inside = start, True
        for i, n, stride, off in zip(index, shape, strides, offset):
            if off:
                inside = inside & (i >= -off) & (i < n - off)
                target = target + off * stride
        pos = np.searchsorted(flat, target)
        tables.append(np.where(inside & (padded[pos] == target), pos, flat.size))
    return tables


def inverse_table(table: np.ndarray, size: int) -> np.ndarray:
    """The flat_neighbor_tables entry of the negated offset, node sets swapped, read off
    `table` (rows -> one of `size` nodes, or the sentinel `size`) without a
    full-grid pass: entry j is the row that reads node j, else table.size."""
    out = np.full(size + 1, table.size, dtype=np.intp)
    out[table] = np.arange(table.size)
    return out[:-1]


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
    full-grid computation would read. `smoothing` holds, per axis, the CSR
    matrix of v -> 0.5 v + 0.25 (v[+] + v[-]) over the halo slots, each row
    in the order [+, -, self] without a missing neighbour: its product's
    running sum forms that expression's bits, as scaling by 0.25 is exact.
    """

    def __init__(self, mask: DomainMask):
        shape = mask.grid.shape
        # the 3^d neighbourhood is one +-1 step along each axis in turn
        index = mask.dofs
        for n, stride in zip(shape, flat_strides(shape)):
            along = index // stride % n
            index = np.unique(np.concatenate(
                [index, index[along > 0] - stride, index[along < n - 1] + stride]))
        self.index = index  # flat node index per halo slot
        self.dof_pos = np.searchsorted(index, mask.dofs)  # halo slots of the masked DOFs
        self.free = np.zeros(index.size, dtype=bool)
        self.free[self.dof_pos[mask.free_pos]] = True
        forward = flat_neighbor_tables(index, shape, [axis_offset(len(shape), a)
                                                      for a in range(len(shape))])
        self.tables = [(table, inverse_table(table, table.size)) for table in forward]
        n = index.size
        self.smoothing = []
        for plus, minus in self.tables:
            cols = np.stack([plus, minus, np.arange(n)], axis=1)
            keep = cols < n
            data = np.broadcast_to([0.25, 0.25, 0.5], cols.shape)
            self.smoothing.append(sp.csr_matrix(
                (data[keep], cols[keep], np.concatenate([[0], np.cumsum(keep.sum(axis=1))])),
                shape=(n, n)))


class DomainMask:
    """Classification of a grid against a level spec, plus quadrature, kept
    on the masked nodes.

    The masked nodes are the degrees of freedom (DOFs) of the solver: a DOF
    vector holds one value per masked node, in C order (`dofs` gives their
    flat node indices). The mask keeps only DOF-level arrays: per-DOF
    vectors and DOF positions, which scale with the mask rather than with
    the bounding grid; a node set is given as DOF positions. `gather` and
    `scatter` convert between DOF vectors and full-grid arrays, which are
    zero outside the mask. The full-grid node sets `in_mask`, `is_core`,
    `is_inner`, `value_layer`, `deriv_layer` and `constrained` are
    read-only properties built on each access, for the benchmark and the
    full-grid shift reference of the tests; the library reads only the DOF
    forms.

    Attributes:
        grid: the underlying Grid.
        level: LevelSpec with epsilon resolved.
        theta: level threshold.
        dofs: flat node index of each DOF.
        dof_label: int8 Label value per DOF.
        dof_quad_weight: trapezoid-rule volume element per DOF.
        dof_ell: level value per DOF.
        value_pos: DOF positions of the value layer, which carries the
            Dirichlet trace g0.
        deriv_pos: DOF positions of the derivative layer, the first inward
            layer, carrying the normal-derivative trace encoded as field values.
        trace_pos, free_pos: DOF positions of both layers, and of the rest.
        core_pos, inner_pos: DOF positions of the core nodes (interior and
            inner, with a full 3^d neighbourhood in the mask) and of the
            inner nodes.

    All arrays are read-only after construction; classification is pure.
    """

    def __init__(self, grid: Grid, level: LevelSpec, dofs: np.ndarray, dof_label: np.ndarray,
                 dof_quad_weight: np.ndarray, dof_ell: np.ndarray, deriv_pos: np.ndarray):
        self.grid = grid
        self.level = level
        self.theta = level.threshold
        self.epsilon = float(level.epsilon)
        self.dofs = dofs
        self.dof_label = dof_label
        self.dof_quad_weight = dof_quad_weight
        self.dof_ell = dof_ell
        self.value_pos = np.flatnonzero(dof_label == Label.CAUCHY_BOUNDARY)
        self.deriv_pos = deriv_pos
        constrained = np.zeros(dofs.size, dtype=bool)
        constrained[self.value_pos] = constrained[deriv_pos] = True
        self.trace_pos = np.flatnonzero(constrained)
        self.free_pos = np.flatnonzero(~constrained)
        self.core_pos = np.flatnonzero((dof_label == Label.INTERIOR) | (dof_label == Label.INNER))
        self.inner_pos = np.flatnonzero(dof_label == Label.INNER)
        self.counts = {lab.name.lower(): int(np.sum(dof_label == lab)) for lab in Label}
        self.counts["outside"] = grid.node_count - dofs.size

        for arr in (self.dofs, self.dof_label, self.dof_quad_weight, self.dof_ell,
                    self.value_pos, self.deriv_pos, self.trace_pos, self.free_pos,
                    self.core_pos, self.inner_pos):
            arr.setflags(write=False)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """DOF vector of a full-grid array."""
        return values.ravel()[self.dofs]

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Full-grid array of a DOF vector, zero outside the mask."""
        out = np.zeros(self.grid.shape)
        out.ravel()[self.dofs] = vec
        return out

    def node_set(self, pos: np.ndarray | None = None) -> np.ndarray:
        """Read-only boolean array over the grid, True at the DOFs at positions
        `pos` (default: every DOF)."""
        out = np.zeros(self.grid.shape, dtype=bool)
        out.ravel()[self.dofs if pos is None else self.dofs[pos]] = True
        out.setflags(write=False)
        return out

    def neighbor_tables(self, offsets: Sequence[Sequence[int]],
                        rows: np.ndarray | None = None) -> list[np.ndarray]:
        """Gather tables of stencil offsets over the DOFs, read from the DOFs
        at positions `rows` (default: every DOF); see flat_neighbor_tables."""
        return flat_neighbor_tables(self.dofs, self.grid.shape, offsets,
                                    None if rows is None else self.dofs[rows])

    def erode(self, pos: np.ndarray) -> np.ndarray:
        """The DOF positions among `pos` whose whole 3^d neighbourhood lies
        among the DOFs at `pos`, sorted. The 3^d box is the sum of the +-1
        segments of the axes, so the erosion is one +-1 step per axis in turn."""
        dim, n = self.grid.dim, self.dofs.size
        inside = np.zeros(n + 1, dtype=bool)  # the last slot: the sentinel
        inside[pos] = True
        for axis in range(dim):
            plus, minus = self.neighbor_tables([axis_offset(dim, axis, 1),
                                                axis_offset(dim, axis, -1)])
            inside[:n] &= inside[plus] & inside[minus]
        return np.flatnonzero(inside[:n])

    @cached_property
    def halo(self) -> Halo:
        """Halo of the mask, built on first use (only random draws need it)."""
        return Halo(self)

    def largest_cell_level_variation(self) -> float:
        """Max level-value change across one grid cell within the mask."""
        worst = 0.0
        dim, n = self.grid.dim, self.dofs.size
        for table in self.neighbor_tables([axis_offset(dim, a) for a in range(dim)]):
            hit = table < n
            if np.any(hit):
                step = self.dof_ell[table[hit]] - self.dof_ell[hit]
                worst = max(worst, float(np.max(np.abs(step))))
        return worst

    # -- full-grid node sets, built on each access (read outside the library) ---

    in_mask = property(lambda self: self.node_set())
    is_core = property(lambda self: self.node_set(self.core_pos))
    is_inner = property(lambda self: self.node_set(self.inner_pos))
    value_layer = property(lambda self: self.node_set(self.value_pos))
    deriv_layer = property(lambda self: self.node_set(self.deriv_pos))
    constrained = property(lambda self: self.node_set(self.trace_pos))


def _data_faces(grid: Grid, family: str) -> list[tuple[int, int, int]]:
    """The data-carrying faces of the box, each as its axis, the nodes' index
    along that axis and the step inward: every spatial face for the
    hyperbolic family (lateral Cauchy data), else the axis-0 minimum face."""
    if family == "hyperbolic":
        return [(axis, at, step) for axis in range(grid.dim - 1)
                for at, step in ((0, 1), (grid.shape[axis] - 1, -1))]
    return [(0, 0, 1)]


def classify_nodes(grid: Grid, spec: LevelSpec) -> DomainMask:
    """Classify grid nodes into level-set subdomains and assign quadrature weights.

    A node belongs to the masked subdomain iff its level value exceeds the
    threshold exactly (node-based masking, no cut cells). Core nodes keep a
    full 3^d neighborhood inside the mask so that centered stencils never
    reach an outside node. The level values of the whole grid are a
    transient: everything after the threshold test works on the masked
    nodes through gather tables.
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

    ell = level_values(spec, grid.open_coords())
    theta = spec.threshold
    in_closure = ell > theta
    dofs = np.flatnonzero(in_closure)
    dof_ell = ell.ravel()[dofs]
    del ell

    if not dofs.size:
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
    del in_closure

    eps = spec.epsilon
    ell_max = float(np.max(dof_ell))
    if eps is None:
        eps = DEFAULT_EPSILON_FRACTION * (ell_max - theta)
        if eps <= 0:
            raise GeometryError("cannot resolve epsilon: level is constant on the mask")
    resolved = replace(spec, epsilon=float(eps))

    n = dofs.size
    index = np.unravel_index(dofs, grid.shape)
    faces = _data_faces(grid, spec.family)
    cauchy = np.logical_or.reduce([index[axis] == at for axis, at, _ in faces])
    # the trapezoid rule per axis, h between two masked neighbours and h/2 at
    # the rim, and the erosion to the core (as in DomainMask.erode) read the
    # same +-1 neighbours
    quad = np.ones(n)
    eroded = np.ones(n + 1, dtype=bool)
    eroded[n] = False  # the sentinel
    for axis in range(d):
        plus, minus = flat_neighbor_tables(
            dofs, grid.shape, [axis_offset(d, axis, 1), axis_offset(d, axis, -1)])
        h = grid.spacing[axis]
        quad *= np.where((plus < n) & (minus < n), h, 0.5 * h)
        eroded[:n] &= eroded[plus] & eroded[minus]
    core = np.flatnonzero(eroded[:n] & ~cauchy)
    label = np.full(n, int(Label.XI_BOUNDARY), dtype=np.int8)
    label[core] = Label.INTERIOR
    label[core[dof_ell[core] > theta + 2 * eps]] = Label.INNER
    label[cauchy] = Label.CAUCHY_BOUNDARY

    if not core.size:
        raise GeometryError("no interior nodes: the masked subdomain is too thin for the grid")
    if not np.any(label == Label.INNER):
        raise GeometryError(
            f"inner subdomain empty at epsilon={eps:.6g}: no node has level above "
            f"{theta + 2 * eps:.6g} with a full neighborhood; reduce epsilon"
        )
    if not np.any(cauchy):
        raise GeometryError("Cauchy trace empty: the mask does not reach the data face")

    # the derivative layer: the nodes one step inward of a data node, still
    # in the closure and not data nodes themselves
    deriv = np.zeros(n, dtype=bool)
    for (axis, at, step), outward in zip(faces, flat_neighbor_tables(
            dofs, grid.shape, [axis_offset(d, axis, -step) for axis, _, step in faces])):
        deriv |= (index[axis] == at + step) & (outward < n)
    deriv &= ~cauchy

    mask = DomainMask(grid, resolved, dofs, label, quad, dof_ell, np.flatnonzero(deriv))
    logger.info(
        "classified %d nodes: %s (epsilon=%.4g, theta=%.4g)",
        grid.node_count, mask.counts, eps, theta,
    )
    return mask
