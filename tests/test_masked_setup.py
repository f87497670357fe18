"""Set-up works on the masked nodes only, and gives the same bits as the
full-grid forms it replaces: node coordinates, level values from the open
per-axis coordinates, gather tables, the Gram assembly (in place, on the
free DOFs), the direct solve and its system, the data weights and the trace
CSV reader. On a 3-D mask, where only a few percent of the nodes are
masked, the set-up steps stay below one full-grid array of traced heap,
classification below one coordinate array besides what the mask keeps, the
mask itself below 100 bytes per masked node, and the constrained Gram below
three times its own bytes. The mask's full-grid properties are the arrays of
a full-grid classification by shifts, bit for bit, and a solve from config
to report files builds none of them. The 3-D direct
systems (elliptic, and a 2+1-D wave) solve in mixed precision to float64
accuracy, and fall back to the float64 factor where float32 cannot hold
them. So does the data extension on three axes (elliptic, 2+1-D wave and
parabolic), while in 2-D it keeps the float64 factor; a 3-D gradient solve
still factorizes once. SobolevSpace.solve makes each of these choices and
counts their work on the space, and a run reports those counts."""

import gc
import json
from itertools import product
import logging
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import full_grid_table
from convexcauchy import cli, grid as grid_module, harness, sobolev
from convexcauchy.catalog import CASES
from convexcauchy.errors import ConfigError, GeometryError, SolverError
from convexcauchy.functional import CauchyData, FunctionalParams, data_extension, gradient
from convexcauchy.grid import (DomainMask, Grid, Label, LevelSpec, axis_offset, build_grid,
                               classify_nodes, level_values, shift, step_tables, walk)
from convexcauchy.harness import (build_setup, evaluate_expression, field_table,
                                  load_cauchy_csv, load_problem)
from convexcauchy.operators import (LinearizedOperator, OperatorStencil, QuasilinearOperator,
                                    validate_operator)
from convexcauchy.optimizer import direct_solve
from convexcauchy.sobolev import SobolevSpace, spd_factorized, spd_solve
from convexcauchy.weights import mask_weight_sq, weight_extrema

ROOT = Path(__file__).resolve().parent.parent
DIRECT_CONFIG = ROOT / "configs" / "ell2d_harmonic_reconstruct.json"

# the 3-D elliptic cap of the direct-solve benchmark: about 2.5% of the box
ELL3D_BOUNDS = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
ELL3D_LEVEL = {"a": 0.2, "c": 0.45, "nu": 1.0, "x_width": 1.0}


def _exact(points):
    """A harmonic quadratic, so the Laplace residual vanishes at it."""
    return points[..., 0] ** 2 - points[..., 1] ** 2 + 0.5 * points[..., 2] + 3.0


def _ell3d_config(resolution: int, trace: Path) -> dict:
    """Config of the 3-D cap at resolution^3 with the linear operator, its
    trace (the values of _exact) written to the CSV file `trace`."""
    grid = build_grid(ELL3D_BOUNDS, [resolution] * 3)
    mask = classify_nodes(grid, LevelSpec(family="elliptic", **ELL3D_LEVEL))
    values = _exact(grid.coords()).ravel()
    lines = ["layer,index,value"]
    for layer, nodes in (("g0", mask.value_layer), ("g1", mask.deriv_layer)):
        lines += [f"{layer},{idx},{float(values[idx])!r}" for idx in np.flatnonzero(nodes)]
    trace.write_text("\n".join(lines) + "\n")
    return {
        "family": "elliptic", "grid": {"bounds": ELL3D_BOUNDS, "resolution": [resolution] * 3},
        "level": ELL3D_LEVEL, "operator": {"id": "linear"}, "weight": {"lambda": 2.0},
        "functional": {"beta": 5e-3, "beta_policy": "keep"}, "data": {"file": str(trace)},
    }


@pytest.fixture(scope="module")
def ell3d_setup(tmp_path_factory):
    """Direct-solve problem on the 3-D cap at 33^3, its trace read from a CSV."""
    trace = tmp_path_factory.mktemp("ell3d") / "trace.csv"
    return build_setup({**_ell3d_config(33, trace), "solver": "direct"}), trace


def _traced(fn) -> tuple[object, int, int]:
    """fn's result, and the traced heap it still holds and its peak, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def _traced_peak(fn) -> int:
    """Peak traced heap, in bytes, of one call of fn."""
    return _traced(fn)[2]


# -- coordinates ---------------------------------------------------------------


@st.composite
def _grid_and_nodes(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(3, 8), min_size=dim, max_size=dim)))
    bounds = []
    for _ in range(dim):
        lo = draw(st.floats(-50.0, 50.0, allow_nan=False))
        bounds.append((lo, lo + draw(st.floats(1e-3, 100.0))))
    return build_grid(bounds, shape), draw(arrays(np.bool_, shape))


@given(_grid_and_nodes())
def test_coords_of_nodes_bit_identical(case):
    grid, nodes = case
    got, want = grid.coords(np.flatnonzero(nodes)), grid.coords()[nodes]
    assert got.shape == want.shape == (np.count_nonzero(nodes), grid.dim)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    with pytest.raises(TypeError, match="flat node indices"):
        grid.coords(nodes)


# -- level values ------------------------------------------------------------------


def _reference_level(spec: LevelSpec, points: np.ndarray) -> np.ndarray:
    """The level function as evaluated on an (..., d) coordinate array, with
    the per-axis sums taken by np.sum over the last axis."""
    if spec.family == "generic":
        return np.asarray(spec.xi_fn(points), dtype=float)
    if spec.family == "hyperbolic":
        diff = points[..., :-1] - np.asarray(spec.x0, dtype=float)
        t = points[..., -1]
        return np.sum(diff * diff, axis=-1) - spec.eta * t * t
    perp = points[..., 1:-1] if spec.family == "parabolic" else points[..., 1:]
    base = points[..., 0] + np.sum(perp * perp, axis=-1) / spec.x_width**2
    if spec.family == "parabolic":
        base = base + points[..., -1] * points[..., -1] / spec.t_span**2
    return (base + spec.a) ** (-spec.nu)


@st.composite
def _level_and_grid(draw):
    """A level spec of any family and a grid of 1 to 3 axes it can be read on."""
    family = draw(st.sampled_from(["elliptic", "parabolic", "hyperbolic", "generic"]))
    dim = draw(st.integers(1 + (family in ("parabolic", "hyperbolic")), 3))
    shape = tuple(draw(st.lists(st.integers(3, 9), min_size=dim, max_size=dim)))
    bounds = [(0.0, draw(st.floats(0.1, 2.0)))]
    for _ in range(dim - 1):
        half = draw(st.floats(0.1, 2.0))
        bounds.append((-half, draw(st.floats(0.1, 2.0))))
    grid = build_grid(bounds, shape)
    unit = st.floats(0.01, 0.99)
    if family in ("elliptic", "parabolic"):
        a = draw(st.floats(0.01, 0.48))
        spec = LevelSpec(family, a=a, c=draw(st.floats(a + 0.005, 0.49)),
                         nu=draw(st.sampled_from([1.0, 2.0, draw(st.floats(1.0, 4.0))])),
                         x_width=draw(st.floats(0.2, 3.0)), t_span=draw(st.floats(0.2, 3.0)))
    elif family == "hyperbolic":
        spec = LevelSpec(family, c=draw(unit), eta=draw(unit),
                         x0=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(dim - 1)))
    else:
        c = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
        expr = f"{c[0]!r} - x0 + {c[1]!r} * sin(x{dim - 1}) + {c[2]!r} * x0 * x{dim - 1}"
        spec = LevelSpec(family, c=0.1, xi_fn=lambda x: evaluate_expression(expr, x, False))
    return spec, grid


@given(_level_and_grid())
def test_level_values_on_open_axes_bit_identical(case):
    """classify_nodes evaluates the level on the open per-axis coordinates;
    that gives the bits of the (..., d) coordinate array, for every family."""
    spec, grid = case
    coords = grid.coords()
    got = level_values(spec, grid.open_coords())
    assert got.shape == grid.shape
    assert got.tobytes() == level_values(spec, coords).tobytes()
    assert got.tobytes() == _reference_level(spec, coords).tobytes()


# -- classification on the masked nodes ---------------------------------------------


def _full_grid_classification(grid, level) -> dict[str, np.ndarray]:
    """The full-grid arrays of the classification, built by shifts of whole-grid
    node sets as the mask once kept them, for the resolved `level`."""
    d = grid.dim
    ell = level_values(level, grid.open_coords())
    closure = ell > level.threshold
    sides = ([(axis, side) for axis in range(d - 1) for side in (0, -1)]
             if level.family == "hyperbolic" else [(0, 0)])
    faces = []
    for axis, side in sides:
        face = np.zeros(grid.shape, bool)
        face[(slice(None),) * axis + (side,)] = True
        faces.append((face, axis_offset(d, axis, 1 if side == 0 else -1)))
    cauchy_face = np.logical_or.reduce([face for face, _ in faces])
    eroded = closure.copy()
    for off in product((-1, 0, 1), repeat=d):
        eroded &= shift(closure, off, fill=False)
    core = eroded & ~cauchy_face
    label = np.zeros(grid.shape, np.int8)
    label[closure] = Label.XI_BOUNDARY
    label[core] = Label.INTERIOR
    label[core & (ell > level.threshold + 2 * level.epsilon)] = Label.INNER
    value = closure & cauchy_face
    label[value] = Label.CAUCHY_BOUNDARY
    quad = np.zeros(grid.shape)
    quad[closure] = 1.0
    for axis in range(d):
        both = (shift(closure, axis_offset(d, axis, 1), fill=False)
                & shift(closure, axis_offset(d, axis, -1), fill=False))
        w = np.where(both, grid.spacing[axis], 0.5 * grid.spacing[axis])
        quad[closure] *= w[closure]
    deriv = np.zeros(grid.shape, bool)
    for face, inward in faces:
        deriv |= shift(face & value, [-o for o in inward], fill=False)
    deriv &= closure & ~value
    core = (label == Label.INTERIOR) | (label == Label.INNER)
    return {"label": label, "quad_weight": quad, "ell": ell, "in_mask": closure,
            "is_core": core, "is_inner": label == Label.INNER, "value_layer": value,
            "deriv_layer": deriv, "constrained": value | deriv,
            "free": closure & ~(value | deriv)}


def _on_grid(mask, values: np.ndarray) -> np.ndarray:
    """Full-grid array of a DOF vector, zero outside the mask, in its dtype."""
    out = np.zeros(mask.grid.shape, dtype=values.dtype)
    out.ravel()[mask.dofs] = values
    return out


def _assert_matches_full_grid(mask):
    """Every full-grid node set of the mask is the full-grid classification's
    array bit for bit, read-only, and so are the full-grid forms of its DOF
    vectors (the level values on the mask); so is the cell level variation."""
    want = _full_grid_classification(mask.grid, mask.level)
    free = np.zeros(mask.dofs.size, dtype=bool)
    free[mask.free_pos] = True
    dof_forms = {"label": _on_grid(mask, mask.dof_label),
                 "quad_weight": _on_grid(mask, mask.dof_quad_weight),
                 "ell": _on_grid(mask, mask.dof_ell), "free": _on_grid(mask, free)}
    for name, array in want.items():
        if name == "ell":  # the mask keeps the level values on its DOFs only
            array = np.where(want["in_mask"], array, 0.0)
        got = dof_forms[name] if name in dof_forms else getattr(mask, name)
        assert got.dtype == array.dtype and got.shape == array.shape, name
        assert got.tobytes() == array.tobytes(), name
        assert name in dof_forms or not got.flags.writeable, name
    ell, closure, dim = want["ell"], want["in_mask"], mask.grid.dim
    worst = 0.0
    for axis in range(dim):
        both = closure & shift(closure, axis_offset(dim, axis, 1), fill=False)
        if np.any(both):
            step = shift(ell, axis_offset(dim, axis, 1), fill=np.nan)[both] - ell[both]
            worst = max(worst, float(np.max(np.abs(step))))
    assert mask.largest_cell_level_variation() == worst


CLASSIFIED = {
    "ell2d": lambda: build_setup({"case": "ELL2D-CUBIC"}).mask,
    "hyp1d": lambda: build_setup({"case": "HYP1D-QUAD"}).mask,
    "par1d": lambda: build_setup({"case": "PAR1D-CUBIC"}).mask,
    "ell3d-uneven": lambda: classify_nodes(
        build_grid(ELL3D_BOUNDS, (17, 19, 21)), LevelSpec(family="elliptic", **ELL3D_LEVEL)),
    "hyp2d-uneven": lambda: classify_nodes(
        build_grid(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), (15, 19, 21)),
        LevelSpec(family="hyperbolic", c=0.02, eta=0.6, x0=(0.45, 0.5))),
}


@pytest.mark.parametrize("name", CLASSIFIED)
def test_mask_properties_match_the_full_grid_classification(name):
    _assert_matches_full_grid(CLASSIFIED[name]())


@given(_level_and_grid())
def test_classification_matches_the_full_grid_form(case):
    spec, grid = case
    try:
        mask = classify_nodes(grid, spec)
    except (ConfigError, GeometryError):  # no mask to compare
        return
    _assert_matches_full_grid(mask)


# -- gather tables -----------------------------------------------------------------


@st.composite
def _walk_case(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim)))
    nodes = draw(arrays(np.bool_, shape))
    offset = st.tuples(*(st.integers(-n - 1, n + 1) for n in shape))
    return nodes, draw(st.lists(offset, min_size=1, max_size=4))


def _box_in_set(nodes, offset):
    """Per node of the set, whether the whole box between it and the node at
    `offset` lies in the set: the box is the sum of its axes' segments."""
    box = nodes
    for axis, o in enumerate(offset):
        box = np.logical_and.reduce([shift(box, axis_offset(nodes.ndim, axis, k), fill=False)
                                     for k in range(min(o, 0), max(o, 0) + 1)])
    return box[nodes]


@given(_walk_case())
@example((np.zeros((3, 4), bool), [(0, 1), (-1, 0)]))
@example((np.ones((3, 4), bool), [(0, 1), (1, -1)]))  # a row's end is no step from the next
@example((np.array([[1, 1], [0, 1]], bool), [(1, 1), (-1, -1)]))  # (1, 1) turns a corner
def test_step_tables_and_walks_match_full_grid_numbering(case):
    """Each step table is the full-grid numbering's table of its step, with the
    sentinel's own entry last. A walk through them equals the numbering's
    table of its offset from every node whose box up to the offset lies in
    the set (for a stencil offset, every core node), and anywhere else a walk
    that finds a node finds the table's."""
    nodes, offsets = case
    dim, n = nodes.ndim, int(np.count_nonzero(nodes))
    steps = step_tables(np.flatnonzero(nodes), nodes.shape)
    assert len(steps) == dim
    for axis, pair in enumerate(steps):
        for step, table in zip((1, -1), pair, strict=True):
            assert table.dtype == np.intp
            assert np.array_equal(table[:n], full_grid_table(nodes, axis_offset(dim, axis, step)))
            assert table[n] == n
    for offset in offsets:
        got = walk(steps, np.arange(n + 1), offset)
        want = full_grid_table(nodes, offset)
        assert got[n] == n, offset
        box = _box_in_set(nodes, offset)
        assert np.array_equal(got[:n][box], want[box]), offset
        found = got[:n] < n
        assert np.array_equal(got[:n][found], want[found]), offset


# -- Gram assembly ---------------------------------------------------------------


def _keep_every_chain_gram(space: SobolevSpace) -> sp.csr_matrix:
    """The Gram assembly with every chain matrix kept to the end: the same
    steps and sums, in the same order, as SobolevSpace.gram_matrix."""
    n = space.mask.dofs.size
    rows = np.arange(n)
    steps = []
    for axis, table in enumerate(space._forward):
        h = space.grid.spacing[axis]
        hit = table < n
        steps.append(sp.csr_matrix(
            (np.concatenate([np.full(n, -1.0 / h), np.full(hit.sum(), 1.0 / h)]),
             (np.concatenate([rows, rows[hit]]), np.concatenate([rows, table[hit]]))),
            shape=(n, n)))
    gram = sp.csr_matrix((n, n))
    raw = []
    for (parent, axis), valid in zip(space._chain, space._dof_valid):
        bmat = sp.identity(n, format="csr") if parent is None else steps[axis] @ raw[parent]
        raw.append(bmat)
        gram = gram + bmat.T @ sp.diags(space.dof_weights * valid) @ bmat
    return gram.tocsr()


def _space(which, ell2d_mask, ell3d_setup) -> SobolevSpace:
    if which == "2d-h3":
        space = SobolevSpace(ell2d_mask)
    elif which == "2d-h3-uneven":
        # spacings 1/30 and 1/18: the Gram is not bitwise symmetric, so the
        # CSC orientation of the constrained block is checked as well
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (31, 37))
        space = SobolevSpace(classify_nodes(grid, ell2d_mask.level))
        gram = space.gram_matrix()
        assert (gram != gram.T).nnz > 0
    elif which == "2d-h3-short":
        # 5 nodes along x1, fewer than 2 * order + 1: the flat offset +3 is
        # both (0, +3) and (+1, -2) in node steps
        grid = build_grid(((0.0, 1.0), (-0.2, 0.2)), (41, 5))
        space = SobolevSpace(classify_nodes(grid, ell2d_mask.level))
        assert space.mask.dofs.size == 38
    elif which == "3d-h3":
        space = SobolevSpace(ell3d_setup[0].mask)
    elif which == "3d-h3-uneven":
        # spacings 1/30, 1/14 and 1/13, where the coefficient products round
        grid = build_grid(ELL3D_BOUNDS, (31, 29, 27))
        space = SobolevSpace(classify_nodes(grid, LevelSpec(family="elliptic", **ELL3D_LEVEL)))
    elif which == "1d-h2":
        # ELL1D-CUBIC's level at spacing 1/60
        grid = build_grid(((0.0, 1.0),), (61,))
        space = SobolevSpace(classify_nodes(grid, LevelSpec(family="elliptic",
                                                            **CASES["ELL1D-CUBIC"]["level"])))
    else:
        space = SobolevSpace(ell2d_mask, order=1, node_subset=ell2d_mask.inner_pos)
    assert space.order == {"inner-h1": 1, "1d-h2": 2}.get(which, 3)
    return space


def _assert_same_arrays(got, want):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


SPACES = ["2d-h3", "2d-h3-uneven", "2d-h3-short", "3d-h3", "3d-h3-uneven", "1d-h2", "inner-h1"]


@pytest.mark.parametrize("which", SPACES)
def test_gram_matrix_bit_identical_to_keep_every_chain(which, ell2d_mask, ell3d_setup):
    space = _space(which, ell2d_mask, ell3d_setup)
    _assert_same_arrays(space.gram_matrix(), _keep_every_chain_gram(space))


@pytest.mark.parametrize("which", SPACES)
def test_constrained_gram_is_the_free_block(which, ell2d_mask, ell3d_setup):
    """Built on the free DOFs only, the constrained Gram has the arrays of the
    free block sliced out of the full Gram."""
    space = _space(which, ell2d_mask, ell3d_setup)
    free = space.mask.free_pos
    got = space.constrained_gram()
    assert got.format == "csc"
    _assert_same_arrays(got, space.gram_matrix()[free][:, free].tocsc())


def _stencil_rows(rows: list) -> SimpleNamespace:
    """A linearization whose `rows()` are the given stencil rows."""
    return SimpleNamespace(rows=lambda: rows)


def test_constrained_gram_adds_far_couplings_through_l(ell2d_mask):
    """L^T W L of a random stencil-form L, whose offsets reach beyond the
    Gram's pattern, has its entries placed and summed as the scipy sum of the
    rows' CSR places and sums them, also where a coefficient is exactly 0, a
    row is all zero or an offset leaves the mask."""
    mask = ell2d_mask
    space = SobolevSpace(mask)
    core, free, n = mask.core_pos, mask.free_pos, mask.dofs.size
    rng = np.random.default_rng(7)
    offsets = [(0, 1), (2, -2), (0, 0), (-3, 1), (1, 0), (0, -4), (-1, 0)]  # not ascending
    tables = [full_grid_table(mask.in_mask, off, mask.is_core) for off in offsets]
    coefs = [rng.standard_normal(core.size) * (rng.random(core.size) > 0.2) for _ in offsets]
    for c in coefs:
        c[5] = 0.0  # an all-zero row
    weight = rng.uniform(0.5, 2.0, core.size)
    keep = [(c != 0.0) & (t < n) for t, c in zip(tables, coefs)]
    lmat = sp.coo_matrix((np.concatenate([c[k] for c, k in zip(coefs, keep)]),
                          (np.concatenate([np.flatnonzero(k) for k in keep]),
                           np.concatenate([t[k] for t, k in zip(tables, keep)]))),
                         shape=(core.size, n)).tocsr()[:, free]
    assert np.any(np.concatenate(tables) == n)  # an offset leaves the mask
    assert np.any(np.concatenate([(c == 0.0) & (t < n) for t, c in zip(tables, coefs)]))
    assert lmat[5].nnz == 0
    gram = space.constrained_gram()
    lwl = lmat.T @ sp.diags(weight) @ lmat
    want = (lwl + 0.37 * gram).tocsc()
    want.sum_duplicates()
    normal = (_stencil_rows(list(zip(offsets, tables, coefs))), weight)
    _assert_same_arrays(space.constrained_gram(0.37, normal=normal), want)
    outside = sp.csc_matrix(lwl, copy=True)
    outside.data[:] = 1.0
    assert (outside - outside.multiply(gram != 0)).nnz > 0


def test_constrained_gram_past_the_float_range_raises(ell2d_mask):
    """A scale, or products of L^T W L, past the float range leave entries
    that are not finite: SolverError names the scale, and no numpy warning
    escapes."""
    space = SobolevSpace(ell2d_mask)
    with pytest.raises(SolverError, match=r"system at scale 1e\+301 is not finite"):
        space.constrained_gram(1e301)
    core = ell2d_mask.core_pos
    rows = [((0, 0), core, np.full(core.size, 1e200))]
    with pytest.raises(SolverError, match="system at scale 1 is not finite"):
        space.constrained_gram(normal=(_stencil_rows(rows), np.ones(core.size)))


# -- Sobolev weights -------------------------------------------------------------


def test_dof_weights_are_the_full_grid_weights_on_the_mask(ell2d_mask):
    for subset in (None, ell2d_mask.inner_pos):
        space = SobolevSpace(ell2d_mask, node_subset=subset)
        nodes = ell2d_mask.node_set(subset)
        full = np.where(nodes, ell2d_mask.scatter(ell2d_mask.dof_quad_weight), 0.0)
        assert np.array_equal(space.weights, full)
        assert np.array_equal(space.dof_weights, full[ell2d_mask.in_mask])


# -- direct solve ----------------------------------------------------------------


def _full_hessian_solve(params) -> np.ndarray:
    """The direct solve through the DOF x DOF Hessian, sliced to the free DOFs,
    solved by the same helper (mixed precision from three axes on)."""
    mask, space = params.mask, params.space
    v = params.impose_dofs(np.zeros(mask.dofs.size))
    lmat = params.stencil.linearize(v).to_matrix()
    hess = (lmat.T @ sp.diags(params.core_weight) @ lmat
            + params.beta * space.gram_matrix()).tocsr()
    free = mask.free_pos
    v[free] += spd_solve(hess[free][:, free], -0.5 * gradient(params, v)[free],
                         mixed=mask.grid.dim >= 3).x
    return v


# ELL2D-HARMONIC's data with a constant principal part that has a mixed term
MIXED_DIRECT = {"case": "ELL2D-HARMONIC", "solver": "direct",
                "functional": {"beta": 5e-3, "beta_policy": "keep"},
                "operator": {"id": "linear", "principal": [["1", "0.3"], ["0.3", "1"]]}}


# ELL2D-HARMONIC on spacings 1/44 and 1/18, which no power of two divides:
# dyadic grids hide rounding (89 free DOFs)
NON_DYADIC_DIRECT = {"case": "ELL2D-HARMONIC", "solver": "direct",
                     "functional": {"beta": 5e-3, "beta_policy": "keep"},
                     "grid": {"resolution": [45, 37]}}


@pytest.fixture(scope="module")
def ell3d_mixed(tmp_path_factory):
    """The 3-D direct-solve cap at 33^3 with a principal part that mixes two
    pairs of axes: its stencil has 15 offsets, and L^T W L couples nodes 4
    steps apart."""
    trace = tmp_path_factory.mktemp("ell3d-mixed") / "trace.csv"
    principal = [["1", "0.3", "0"], ["0.3", "1", "0.2"], ["0", "0.2", "1"]]
    return build_setup({**_ell3d_config(33, trace), "solver": "direct",
                        "operator": {"id": "linear", "principal": principal}})


def _direct_setup(which, request):
    setup = {"ell2d-config": lambda: load_problem(DIRECT_CONFIG),
             "ell2d-mixed": lambda: build_setup(MIXED_DIRECT),
             "ell2d-45x37": lambda: build_setup(NON_DYADIC_DIRECT),
             "ell3d": lambda: request.getfixturevalue("ell3d_setup")[0],
             "ell3d-mixed": lambda: request.getfixturevalue("ell3d_mixed")}[which]()
    assert setup.solver == "direct"
    return setup


@pytest.mark.parametrize("which", ["ell2d-config", "ell2d-mixed", "ell2d-45x37", "ell3d"])
def test_direct_solve_bit_identical_to_full_hessian(which, request):
    setup = _direct_setup(which, request)
    assert np.array_equal(direct_solve(setup.params).final, _full_hessian_solve(setup.params))


@pytest.mark.parametrize("which", ["ell2d-config", "ell2d-mixed", "ell2d-45x37", "ell3d",
                                   "ell3d-mixed"])
def test_direct_system_bit_identical_to_the_csr_sum(which, request):
    """beta * G_ff + L^T W L, summed in place from L's stencil rows and w,
    has the entries of the scipy sum (canonically ordered, as the
    factorization orders them), also where the mixed stencil couples nodes
    outside the Gram's pattern."""
    params = _direct_setup(which, request).params
    _assert_same_arrays(params.space.constrained_gram(params.beta, normal=_direct_normal(params)),
                        _scipy_system(params))
    lmat = _direct_matrix(params)
    outside = sp.csc_matrix(lmat.T @ sp.diags(params.core_weight) @ lmat, copy=True)
    outside.data[:] = 1.0
    outside = outside - outside.multiply(params.space.constrained_gram() != 0)
    assert (outside.nnz > 0) == which.endswith("mixed")


# -- mixed-precision direct solves in 3-D ------------------------------------------


def _direct_linearization(params):
    """The linearization of direct_solve, at its starting field."""
    return params.stencil.linearize(params.impose_dofs(np.zeros(params.mask.dofs.size)))


def _direct_normal(params) -> tuple[object, np.ndarray]:
    """(linearization, w): the linearization and the core weights, whose
    L^T W L direct_solve adds to beta * G_ff."""
    return _direct_linearization(params), params.core_weight


def _direct_matrix(params) -> sp.csr_matrix:
    """L: the free columns of the linearization's matrix."""
    return _direct_linearization(params).to_matrix()[:, params.mask.free_pos]


def _scipy_system(params) -> sp.csc_matrix:
    """The oracle of the direct system: L.T @ diags(w) @ L + beta * G_ff as
    scipy sums it, in canonical form."""
    lmat = _direct_matrix(params)
    want = (lmat.T @ sp.diags(params.core_weight) @ lmat
            + params.beta * params.space.constrained_gram()).tocsc()
    want.sum_duplicates()
    return want


def _direct_system(params) -> tuple[sp.csc_matrix, np.ndarray]:
    """The free-DOF normal equations and right-hand side of direct_solve; the
    system has the arrays of the scipy oracle."""
    v = params.impose_dofs(np.zeros(params.mask.dofs.size))
    hess = params.space.constrained_gram(params.beta, normal=_direct_normal(params))
    _assert_same_arrays(hess, _scipy_system(params))
    return hess, -0.5 * gradient(params, v)[params.mask.free_pos]


def _hyp2d_params():
    """The 2+1-D wave u_tt = laplace u at 17^3, u* = cos(2 sqrt2 t) sin 2x sin 2y,
    lambda 1.5, beta 1e-4."""
    grid = build_grid(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), (17, 17, 17))
    mask = classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02, eta=0.6, x0=(0.5, 0.5)))
    pts = grid.coords(mask.dofs)
    star = np.cos(2 * np.sqrt(2) * pts[:, 2]) * np.sin(2 * pts[:, 0]) * np.sin(2 * pts[:, 1])
    return FunctionalParams(
        op=QuasilinearOperator(family="hyperbolic", dim=3), lam=1.5, mask=mask,
        space=SobolevSpace(mask), beta=1e-4,
        data=CauchyData(star[mask.value_pos], star[mask.deriv_pos]), beta_policy="keep")


@pytest.fixture(scope="module")
def systems_3d(ell3d_setup):
    return {"ell3d": _direct_system(ell3d_setup[0].params),
            "hyp2d": _direct_system(_hyp2d_params())}


@pytest.mark.parametrize("which", ["ell3d", "hyp2d"])
def test_mixed_precision_solve_matches_float64(which, systems_3d):
    hess, rhs = systems_3d[which]
    solved = spd_solve(hess, rhs)
    assert solved.factorizations == 1 and 1 <= solved.refinements <= 10
    assert np.linalg.norm(rhs - hess @ solved.x) <= 1e-14 * np.linalg.norm(rhs)
    reference = spd_factorized(hess)(rhs)
    assert np.max(np.abs(solved.x - reference)) <= 1e-9 * np.max(np.abs(reference))
    again = spd_solve(hess, rhs)
    assert np.array_equal(again.x, solved.x) and again[1:] == solved[1:]


def _fresh_space(params, **changes):
    """params on a new space of its mask, so that the space's counters hold
    only the work of the test that uses it."""
    return replace(params, space=SobolevSpace(params.mask), **changes)


def test_direct_solve_counts_the_mixed_precision_work(ell3d_setup):
    counters = direct_solve(_fresh_space(ell3d_setup[0].params)).to_dict()["counters"]
    hess, rhs = _direct_system(ell3d_setup[0].params)
    assert counters["factorizations"] == 1
    assert counters["refinements"] == spd_solve(hess, rhs).refinements > 0


def test_repeated_direct_solve_counts_only_its_own_work(ell3d_setup):
    """A second direct solve on the same params refines its own float32
    factor and reports that work alone, as the first did."""
    params = _fresh_space(ell3d_setup[0].params)
    first, second = (direct_solve(params).to_dict()["counters"] for _ in range(2))
    assert first == second and first["refinements"] > 0


def test_beta_underflowing_float32_falls_back(ell3d_setup):
    """beta * G underflows in float32 at beta 1e-300 and leaves the float32
    factor singular; float64 factorizes it, and its bits are returned."""
    params = _fresh_space(ell3d_setup[0].params, beta=1e-300)
    hess, rhs = _direct_system(params)
    solved = spd_solve(hess, rhs)
    assert (solved.factorizations, solved.refinements) == (2, 0)
    assert np.array_equal(solved.x, spd_factorized(hess)(rhs))
    report = direct_solve(params)
    assert (report.factorizations, report.refinements) == (2, 0)


def test_right_hand_side_norm_past_the_float_range_falls_back(ell3d_setup):
    """A right-hand side whose norm overflows, scaled up from a 3-D system
    that refines: CG's stop test read inf <= inf and returned x = 0, with a
    numpy warning. The float64 factor solves it, and its bits are returned."""
    hess, rhs = _direct_system(ell3d_setup[0].params)
    rhs = rhs * (1e160 / np.max(np.abs(rhs)))
    solved = spd_solve(hess, rhs)
    assert solved.factorizations == 2 and np.all(np.isfinite(solved.x))
    assert np.array_equal(solved.x, spd_factorized(hess)(rhs))


@pytest.mark.parametrize("which", ["ell2d-config", "ell2d-mixed", "ell3d", "hyp2d"])
def test_solve_with_plus_is_one_factorization_of_the_sum(which, request):
    """space.solve(rhs, beta, normal=(linearization, w)) factorizes beta * G_ff + L^T W L
    once and keeps nothing: in 2-D the float64 factor's bits, on three axes
    spd_solve's bits and work."""
    params = (_hyp2d_params() if which == "hyp2d"
              else _direct_setup(which, request).params)
    hess, rhs = _direct_system(params)
    space = SobolevSpace(params.mask)
    x = space.solve(rhs, params.beta, normal=_direct_normal(params))
    if params.mask.grid.dim < 3:
        want = sobolev.SpdSolve(spd_factorized(hess)(rhs), 1, 0)
    else:
        want = spd_solve(hess, rhs)
        assert want.refinements > 0
    assert np.array_equal(x, want.x)
    assert (space.factorizations, space.refinements) == want[1:]
    space.constrained_solver()  # the factor of the sum was not kept as G_ff's
    assert space.factorizations == want.factorizations + 1


# -- the data extension in mixed precision on three axes ----------------------------


def _par2d_mask():
    """The 2+1-D parabolic geometry of tests/test_higher_dim.py at 25^3."""
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (25, 25, 25))
    return classify_nodes(grid, LevelSpec(family="parabolic", a=0.2, c=0.45, nu=1.0,
                                          x_width=1.0, t_span=1.0))


def _extension(mask, factored: bool) -> tuple[np.ndarray, CauchyData, SobolevSpace]:
    """data_extension of a smooth field's trace on a new space of the mask,
    which holds its float64 factor beforehand when `factored`."""
    pts = mask.grid.coords(mask.dofs)
    star = np.exp(0.5 * pts[:, 0]) * np.cos(pts[:, 1]) + pts[:, -1]
    data = CauchyData(star[mask.value_pos], star[mask.deriv_pos])
    space = SobolevSpace(mask)
    if factored:
        space.constrained_solver()
    return data_extension(space, data), data, space


@pytest.fixture
def recorded_solves(monkeypatch) -> list:
    """The results of every sobolev.spd_solve call made while the test runs."""
    solves = []

    def recorded(*args, **kwargs):
        solves.append(spd_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(sobolev, "spd_solve", recorded)
    return solves


@pytest.mark.parametrize("which", ["ell3d", "hyp2d", "par2d"])
def test_data_extension_refines_a_float32_factor_on_three_axes(which, ell3d_setup,
                                                                 recorded_solves):
    mask = {"ell3d": lambda: ell3d_setup[0].mask, "hyp2d": lambda: _hyp2d_params().mask,
            "par2d": _par2d_mask}[which]()
    v, data, space = _extension(mask, factored=False)
    (solved,) = recorded_solves
    assert solved.factorizations == space.factorizations == 1  # no fall back
    assert 1 <= solved.refinements == space.refinements <= sobolev.REFINE_MAX_ITERS
    assert np.array_equal(v[mask.value_pos], data.g0)
    assert np.array_equal(v[mask.deriv_pos], data.g1)
    reference, _, ref_space = _extension(mask, factored=True)
    assert len(recorded_solves) == 1  # the kept float64 factor solved it
    assert (ref_space.factorizations, ref_space.refinements) == (1, 0)
    assert np.max(np.abs(v - reference)) <= 1e-8 * np.max(np.abs(reference))
    space.constrained_solver()  # the float32 factor was not kept
    assert space.factorizations == 2


def test_data_extension_in_2d_uses_the_float64_factor(ell2d_mask, recorded_solves):
    v, _, space = _extension(ell2d_mask, factored=False)
    reference, _, ref_space = _extension(ell2d_mask, factored=True)
    assert np.array_equal(v, reference)
    assert recorded_solves == [] and space.factorizations == ref_space.factorizations == 1
    assert space.refinements == ref_space.refinements == 0
    assert space.constrained_solver() is space.constrained_solver()
    assert space.factorizations == 1


def test_gradient_solve_on_three_axes_factorizes_once(tmp_path, monkeypatch):
    """The Riesz solves need the float64 factor, so `run` makes it before
    the start's data extension, which then reuses it rather than refining a
    float32 factor of its own."""
    config = {**_ell3d_config(17, tmp_path / "trace.csv"),
              "operator": {"id": "cubic", "q": "(x0 * x0 - x1 * x1 + 0.5 * x2 + 3.0) ** 3"},
              "optimizer": {"max_iters": 3}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    splu_calls = []
    splu = sobolev._splu
    monkeypatch.setattr(sobolev, "_splu", lambda matrix: splu_calls.append(matrix) or splu(matrix))
    out = tmp_path / "out"
    assert cli.main(["solve", str(tmp_path / "config.json"), "--out", str(out)]) == 2  # cap
    run = json.loads((out / "report.json").read_text())["run"]
    assert run["reason"] == "iteration cap reached"
    assert run["counters"]["factorizations"] == len(splu_calls) == 1
    assert run["counters"]["refinements"] == 0
    assert splu_calls[0].dtype == np.float64


FULL_GRID_FORMS = [(DomainMask, name) for name in (
    "in_mask", "is_core", "is_inner", "value_layer", "deriv_layer", "constrained")] + [
    (SobolevSpace, "nodes"), (SobolevSpace, "weights")]
# the full-grid functions and methods; Grid.coords only without its nodes
FULL_GRID_CALLS = [(DomainMask, "node_set"), (DomainMask, "gather"), (DomainMask, "scatter"),
                   (grid_module, "shift"), (grid_module.Field, "__init__"),
                   (harness, "starting_field")]


@pytest.mark.parametrize("solver", ["gradient", "direct"])
def test_solve_builds_no_full_grid_mask_array(solver, tmp_path, monkeypatch):
    """From the config to the report files, a solve reads the mask and its
    spaces through their DOF-level state only."""
    config = {**_ell3d_config(17, tmp_path / "trace.csv"), "solver": solver,
              "optimizer": {"max_iters": 3}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    built = []
    for cls, name in FULL_GRID_FORMS:
        getter = getattr(cls, name).fget
        monkeypatch.setattr(cls, name, property(
            lambda self, getter=getter, name=name: built.append(name) or getter(self)))
    for owner, name in FULL_GRID_CALLS:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, fn=fn, name=name, **kwargs:
                            built.append(name) or fn(*args, **kwargs))
    coords = Grid.coords
    monkeypatch.setattr(Grid, "coords", lambda self, nodes=None: (
        nodes is None and built.append("coords()")) or coords(self, nodes))
    rc = cli.main(["solve", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")])
    assert rc == (0 if solver == "direct" else 2)  # the gradient run stops at its cap
    assert (tmp_path / "out" / "field.csv").is_file()
    assert built == []


# -- weights on the masked nodes -------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, 2.0, 7.5])
def test_core_weight_and_extrema_bit_identical(lam, ell3d_setup):
    setup = ell3d_setup[0]
    mask = setup.mask
    full = mask.scatter(mask_weight_sq(mask, lam, np.arange(mask.dofs.size)))
    core = setup.params.core_weight_at(lam)
    assert np.array_equal(core, (full * mask.scatter(mask.dof_quad_weight))[mask.is_core])
    assert np.array_equal(mask_weight_sq(mask, lam, mask.core_pos), full[mask.is_core])
    flat = np.flatnonzero(mask.in_mask)
    logw = (lam * level_values(mask.level, mask.grid.open_coords())).ravel()[flat]
    assert weight_extrema(mask, lam) == (float(np.min(logw)), float(np.max(logw)),
                                         Label(mask.scatter(mask.dof_label).ravel()[
                                             flat[np.argmin(logw)]]))


# -- trace CSV -------------------------------------------------------------------


def test_csv_last_row_wins_and_off_layer_rows_are_counted_once(ell3d_setup, tmp_path,
                                                                  caplog):
    setup, trace = ell3d_setup
    mask, data = setup.mask, setup.params.data
    lines = trace.read_text().splitlines()
    first_g0 = int(np.flatnonzero(mask.value_layer)[0])
    off_layer = int(np.flatnonzero(~mask.in_mask)[0])
    lines[1:1] = [f"g0,{first_g0},123.0", f"g0,{off_layer},1.0"]  # overridden; ignored
    lines += [f"g0,{off_layer},2.0", f"g1,{off_layer},2.0"]  # two distinct (layer, node)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="convexcauchy.harness"):
        got = load_cauchy_csv(path, mask)
    assert np.array_equal(got.g0, data.g0) and np.array_equal(got.g1, data.g1)
    assert "ignored 2 rows off their trace layer" in caplog.text


def test_csv_partial_layer_names_its_coverage(ell3d_setup, tmp_path):
    setup, trace = ell3d_setup
    lines = trace.read_text().splitlines()
    g1_rows = [line for line in lines if line.startswith("g1,")]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join([line for line in lines if line not in g1_rows[:3]]) + "\n")
    with pytest.raises(ConfigError, match=f"gives g1 on {len(g1_rows) - 3} of the "
                                        f"{len(g1_rows)} nodes of its trace layer"):
        load_cauchy_csv(path, setup.mask)


# -- traced heap -----------------------------------------------------------------


@pytest.mark.parametrize("step", ["SobolevSpace", "OperatorStencil"])
def test_setup_step_stays_below_one_full_grid_array(step, ell3d_setup):
    """No full-grid numbering behind the gather tables: the step stays below one
    float per grid node."""
    setup = ell3d_setup[0]
    mask, op = setup.mask, setup.params.op
    call = {"SobolevSpace": lambda: SobolevSpace(mask),
            "OperatorStencil": lambda: OperatorStencil(op, mask)}[step]
    assert _traced_peak(call) < mask.grid.node_count * 8


def test_classification_stays_below_one_coordinate_array(ell3d_setup):
    """Beyond the arrays the mask keeps, classification holds less than the
    (*shape, dim) coordinate array it no longer builds."""
    grid, level = ell3d_setup[0].grid, ell3d_setup[0].mask.level
    mask, kept, peak = _traced(lambda: classify_nodes(grid, level))
    assert mask.dofs.size == ell3d_setup[0].mask.dofs.size
    assert peak - kept < grid.node_count * grid.dim * 8


def test_classification_keeps_under_100_bytes_per_masked_node(ell3d_setup):
    """The mask keeps DOF-level arrays only (it kept 24 bytes per grid node,
    about 1000 per masked node here, in full-grid arrays)."""
    grid, level = ell3d_setup[0].grid, ell3d_setup[0].mask.level
    mask, kept, _ = _traced(lambda: classify_nodes(grid, level))
    assert kept < 100 * mask.dofs.size


def test_constrained_gram_stays_below_three_results(ell3d_setup):
    space = SobolevSpace(ell3d_setup[0].mask)  # a fresh space: no Gram built yet
    gram, _, peak = _traced(space.constrained_gram)
    assert peak < 3 * (gram.data.nbytes + gram.indices.nbytes + gram.indptr.nbytes)


def test_direct_system_stays_below_three_results(ell3d_setup):
    """The same bound for beta * G_ff + L^T W L, summed from L's rows and w."""
    _assert_direct_system_below_three_results(ell3d_setup[0].params)


def test_mixed_direct_system_stays_below_three_results(ell3d_mixed):
    """The same bound where L's stencil has 15 offsets and L^T W L reaches
    beyond the Gram's pattern."""
    _assert_direct_system_below_three_results(ell3d_mixed.params)


def _assert_direct_system_below_three_results(params):
    space = SobolevSpace(params.mask)
    normal = _direct_normal(params)
    hess, _, peak = _traced(lambda: space.constrained_gram(params.beta, normal=normal))
    assert peak < 3 * (hess.data.nbytes + hess.indices.nbytes + hess.indptr.nbytes)


def test_direct_solve_stays_below_2_1_systems(ell3d_setup):
    """A whole 3-D direct solve, from the linearization to the refined
    solution, holds less than 2.1 times the bytes of its system: the
    assembly forms no L^T W L matrix, compacts the data in place and
    releases L's rows after their term, and the float32 check makes no
    n-element mask (it held 2.5 systems with the first two, 2.13 with the
    last two)."""
    params = _fresh_space(ell3d_setup[0].params)
    hess, _ = _direct_system(params)
    _, _, peak = _traced(lambda: direct_solve(params))
    assert peak < 2.1 * (hess.data.nbytes + hess.indices.nbytes + hess.indptr.nbytes)


def test_direct_solve_releases_the_rows_before_the_factorization(ell3d_setup, monkeypatch):
    """The assembly takes the linearization, reads its stencil rows itself and
    releases them once L^T W L is summed: none is alive when the float32
    factor is made (they lived through the compaction and the refinement)."""
    params = _fresh_space(ell3d_setup[0].params)
    refs, alive = [], []
    rows, refine = LinearizedOperator.rows, sobolev._refine

    def tracked_rows(self):
        out = rows(self)
        refs.extend(weakref.ref(c) for _, _, c in out)
        return out

    def tracked_refine(matrix, rhs):
        alive.append(sum(ref() is not None for ref in refs))
        return refine(matrix, rhs)

    monkeypatch.setattr(LinearizedOperator, "rows", tracked_rows)
    monkeypatch.setattr(sobolev, "_refine", tracked_refine)
    direct_solve(params)
    assert refs and alive == [0]


@pytest.mark.parametrize("step", ["OperatorStencil", "validate_operator", "field_table"])
def test_setup_step_stays_below_one_full_grid_coordinate_array(step, ell3d_setup):
    setup = ell3d_setup[0]
    mask, op = setup.mask, setup.params.op
    bound = mask.grid.node_count * mask.grid.dim * 8
    assert mask.dofs.size < 0.05 * mask.grid.node_count
    # with an exact solution, so the table has its u_star and abs_err columns too
    solved = replace(setup, u_star=_exact(mask.grid.coords(mask.dofs)))
    call = {"OperatorStencil": lambda: OperatorStencil(op, mask),
            "validate_operator": lambda: validate_operator(op, mask),
            "field_table": lambda: field_table(solved, np.zeros(mask.dofs.size))}[step]
    assert _traced_peak(call) < bound

