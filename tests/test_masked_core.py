"""The masked-DOF core against the full-grid shift reference (shift_reference.py).

Per-node arrays must agree bit for bit: the residual, the forward and
adjoint linearization, every H^k monomial difference, the Gram action, the
Euclidean gradient and the smoothed random draws (these against a full-grid
`shift` form kept in this file, which reads the outside as 0 after every
axis step, as the DOF smoothing does). The library's values live
on the core nodes (residuals, linearized actions) or on the masked DOFs
(everything else) and are compared with the reference's full-grid arrays on
those nodes. Sums (J, norms, inner products) run over differently laid out
arrays and must agree to relative 1e-13. The assembled DOF matrices (the Gram
matrix, the linearization and its transpose) sum their entries in another
order and must agree with the reference actions to 1e-12 relative to the
largest entry. The reference's inputs are random on the whole grid, outside
the mask included, so a reference stencil that read past the mask would show.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import shift_reference as ref
from conftest import full_grid_table
from oracles import gram_matrix, to_matrix
from convexcauchy.functional import CauchyData, FunctionalParams, evaluate, gradient
from convexcauchy.grid import LevelSpec, axis_offset, build_grid, classify_nodes, shift
from convexcauchy.harness import build_setup
from convexcauchy.operators import LowerOrderTerm, OperatorStencil, QuasilinearOperator
from convexcauchy.sampling import random_smooth_values
from convexcauchy.sobolev import SobolevSpace

REL_SUM = 1e-13
REL_MATRIX = 1e-12


def _source(points):
    return np.sin(points[..., 0]) + 0.5 * points[..., -1]


def _scale(points):
    return 0.5 + 0.2 * points[..., 0]


def _mixed(matrix_fn, n):
    def principal(points):
        out = np.empty(points.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(n):
                out[..., i, j] = matrix_fn(points, i, j)
        return out

    return principal


def _ell2d_coeff(points, i, j):
    if i == j:
        return np.full(points.shape[:-1], (2.0, 1.5)[i])
    return 0.4 * np.cos(points[..., 1])


def _ell3d_coeff(points, i, j):
    if i == j:
        return np.full(points.shape[:-1], (2.0, 1.5, 1.2)[i])
    return 0.1 + 0.05 * points[..., min(i, j)]


def _par_coeff(points, i, j):
    if i == j:
        return np.full(points.shape[:-1], 1.0 + 0.5 * i)
    return 0.2 + 0.1 * points[..., 0]


def _problem(name):
    """(op, mask) of one oracle problem."""
    # spacings are not powers of two, so a reordered product or quotient
    # rounds differently and shows
    if name in ("ell1d-cubic", "par2d-cubic"):
        case_id, resolution = {"ell1d-cubic": ("ELL1D-CUBIC", (61,)),
                               "par2d-cubic": ("PAR1D-CUBIC", (31, 35))}[name]
        setup = build_setup({"case": case_id, "grid": {"resolution": list(resolution)}})
        return setup.params.op, setup.mask
    if name == "ell2d-mixed-gradsq":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (31, 35))
        level = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
        op = QuasilinearOperator(family="elliptic", dim=2, principal=_mixed(_ell2d_coeff, 2),
                                 lower=LowerOrderTerm("gradsq", _source, _scale))
    elif name == "ell3d-mixed-cubic":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (16, 19, 17))
        level = LevelSpec(family="elliptic", a=0.05, c=0.45, nu=1.0, x_width=2.0)
        op = QuasilinearOperator(family="elliptic", dim=3, principal=_mixed(_ell3d_coeff, 3),
                                 lower=LowerOrderTerm("cubic", _source))
    elif name == "par3d-mixed-sine":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (16, 19, 21))
        level = LevelSpec(family="parabolic", a=0.05, c=0.45, nu=1.0, x_width=2.0, t_span=1.5)
        op = QuasilinearOperator(family="parabolic", dim=3, principal=_mixed(_par_coeff, 2),
                                 lower=LowerOrderTerm("sine", _source))
    elif name == "par2d-source":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (31, 35))
        level = LevelSpec(family="parabolic", a=0.2, c=0.45, nu=1.0, x_width=1.0, t_span=1.0)
        op = QuasilinearOperator(family="parabolic", dim=2, principal=_mixed(_par_coeff, 1),
                                 lower=LowerOrderTerm("source", _source))
    elif name == "hyp2d-wave-gradsq":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (31, 35))
        level = LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,))
        op = QuasilinearOperator(family="hyperbolic", dim=2,
                                 principal=lambda p: 1.0 + (p[..., 0] - 0.5) ** 2,
                                 lower=LowerOrderTerm("gradsq", _source, _scale))
    else:  # hyp3d-wave-gradsq
        grid = build_grid(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), (16, 19, 21))
        level = LevelSpec(family="hyperbolic", c=0.02, eta=0.6, x0=(0.5, 0.5))
        op = QuasilinearOperator(
            family="hyperbolic", dim=3,
            principal=lambda p: 1.0 + (p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2,
            lower=LowerOrderTerm("gradsq", _source, _scale))
    return op, classify_nodes(grid, level)


PROBLEMS = ["ell1d-cubic", "ell2d-mixed-gradsq", "ell3d-mixed-cubic", "par2d-cubic",
            "par2d-source", "par3d-mixed-sine", "hyp2d-wave-gradsq", "hyp3d-wave-gradsq"]


@pytest.fixture(scope="module", params=PROBLEMS)
def problem(request):
    op, mask = _problem(request.param)
    trace = 1.0 + 0.3 * np.sin(mask.grid.coords().sum(axis=-1))
    data = CauchyData(g0=trace[mask.value_layer], g1=trace[mask.deriv_layer])
    params = FunctionalParams(op=op, lam=2.0, mask=mask, beta=0.1, data=data,
                              beta_policy="keep")
    return params


def _random(params, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(params.mask.grid.shape)


def _spaces(params):
    mask = params.mask
    return [params.space, SobolevSpace(mask, order=1, node_subset=mask.inner_pos)]


def _reference_params(params):
    """The fields of `params` the reference reads, with the data weight full-grid."""
    mask = params.mask
    data_weight = np.zeros(mask.grid.shape)
    data_weight[mask.is_core] = params.core_weight
    return SimpleNamespace(op=params.op, mask=mask, space=params.space, beta=params.beta,
                           data_weight=data_weight)


def test_residual_bitwise(problem):
    op, mask = problem.op, problem.mask
    v = _random(problem, 1)
    stencil = OperatorStencil(op, mask)
    assert np.array_equal(stencil.principal(mask.gather(v)),
                          ref.principal(op, mask, v)[mask.is_core])
    assert np.array_equal(stencil.residual(mask.gather(v)),
                          ref.residual(op, mask, v)[mask.is_core])


def test_linearization_bitwise(problem):
    op, mask = problem.op, problem.mask
    base, v, w = _random(problem, 2), _random(problem, 3), _random(problem, 4)
    lin = OperatorStencil(op, mask).linearize(mask.gather(base))
    oracle = ref.Linearized(op, mask, base)
    assert len(lin.first) == len(oracle.first)
    assert np.array_equal(lin.forward(mask.gather(v)), oracle.apply(v)[mask.is_core])
    assert np.array_equal(lin.adjoint(w[mask.is_core]),
                          mask.gather(oracle.apply(w, adjoint=True)))


def test_monomial_differences_bitwise(problem):
    mask = problem.mask
    v = _random(problem, 5)
    for space in _spaces(problem):
        oracle = ref.Sobolev(space)
        got = space.differences(mask.gather(v))
        assert len(got) == len(space.monomials)
        for beta, diff in zip(space.monomials, got):
            assert np.array_equal(diff, oracle.monomial(v, beta)[mask.in_mask]), beta


def test_gram_action_bitwise(problem):
    mask = problem.mask
    v = _random(problem, 6)
    for space in _spaces(problem):
        assert np.array_equal(space.apply_gram(mask.gather(v)),
                              mask.gather(ref.Sobolev(space).gram(v)))


def _close(got, want):
    return np.max(np.abs(got - want)) <= REL_MATRIX * np.max(np.abs(want))


def test_gram_matrix_oracle(problem):
    mask = problem.mask
    v = _random(problem, 12)
    for space in _spaces(problem):
        gram = gram_matrix(space)
        assert gram.shape == (mask.dofs.size, mask.dofs.size)
        assert _close(gram @ mask.gather(v), mask.gather(ref.Sobolev(space).gram(v)))


def test_linearized_matrix_oracle(problem):
    op, mask = problem.op, problem.mask
    base, v, w = _random(problem, 13), _random(problem, 14), _random(problem, 15)
    mat = to_matrix(OperatorStencil(op, mask).linearize(mask.gather(base)))
    oracle = ref.Linearized(op, mask, base)
    assert mat.shape == (int(np.sum(mask.is_core)), mask.dofs.size)
    assert _close(mat @ mask.gather(v), oracle.apply(v)[mask.is_core])
    assert _close(mat.T @ w[mask.is_core], mask.gather(oracle.apply(w, adjoint=True)))


def test_gradient_bitwise(problem):
    mask = problem.mask
    u = problem.impose_dofs(mask.gather(_random(problem, 7, scale=0.3)))
    got = gradient(problem, evaluate(problem, u))
    want = ref.euclidean_gradient(_reference_params(problem), mask.scatter(u))
    assert np.array_equal(got, mask.gather(want))


def test_reductions(problem):
    mask = problem.mask
    u = problem.impose_dofs(mask.gather(_random(problem, 8, scale=0.3)))
    want = ref.functional_value(_reference_params(problem), mask.scatter(u))
    assert evaluate(problem, u) == pytest.approx(want, rel=REL_SUM)
    f, g = _random(problem, 9), _random(problem, 10)
    for space in _spaces(problem):
        oracle = ref.Sobolev(space)
        nf, ng = oracle.inner(f, f), oracle.inner(g, g)
        assert space.norm_sq(mask.gather(f)) == pytest.approx(nf, rel=REL_SUM)
        fg = space.inner_product(mask.gather(f), mask.gather(g))
        assert abs(fg - oracle.inner(f, g)) <= REL_SUM * np.sqrt(nf * ng)


def _smooth_values_on_grid(mask, rng, passes=8):
    """random_smooth_values on the full grid: one normal of `rng` per free DOF,
    scattered onto a zero grid, then each axis step averaged with grid.shift
    and the outside zeroed after it, so a neighbour off the mask reads 0."""
    normals = np.zeros(mask.dofs.size)
    normals[mask.free_pos] = rng.standard_normal(mask.free_pos.size)
    vals = mask.scatter(normals)
    dim = mask.grid.dim
    for _ in range(passes):
        vals[mask.constrained] = 0.0
        for axis in range(dim):
            vals = 0.5 * vals + 0.25 * (shift(vals, axis_offset(dim, axis, 1))
                                        + shift(vals, axis_offset(dim, axis, -1)))
            vals[~mask.in_mask] = 0.0
    vals[mask.constrained] = 0.0
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


def test_smooth_draw_bitwise(problem):
    mask = problem.mask
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2):
        (draw,) = random_smooth_values(mask, rng_a.standard_normal((mask.free_pos.size, 1)))
        assert np.array_equal(draw, mask.gather(_smooth_values_on_grid(mask, rng_b)))
    assert rng_a.standard_normal() == rng_b.standard_normal()


def test_inverted_tables_match_neighbor_tables(problem):
    """The tables walked through the mask's step tables (the stencil's tables
    from the core nodes, its adjoint tables at the negated offset from every
    DOF to the core nodes) and the H^k forward and backward tables, views of
    the step tables, equal the full-grid numbering's tables, sentinels
    included."""
    mask, dim = problem.mask, problem.mask.grid.dim
    in_mask, core = mask.in_mask, mask.is_core
    stencil = problem.stencil
    for off, table in stencil.tables.items():
        assert np.array_equal(table, full_grid_table(in_mask, off, core)), off
    for off, table in stencil.adjoint_tables.items():
        assert np.array_equal(table, full_grid_table(core, [-o for o in off], in_mask)), off
    for space in _spaces(problem):
        for axis in range(dim):
            for table, step in ((space._forward[axis], 1), (space._backward[axis], -1)):
                assert np.shares_memory(table, mask.steps[axis][step < 0])
                assert np.array_equal(table, full_grid_table(in_mask, axis_offset(dim, axis, step)))


def test_inverted_tables_cover_mixed_and_3d():
    """The problems above include a mixed-derivative stencil on a 3-D mask."""
    op, mask = _problem("ell3d-mixed-cubic")
    offsets = OperatorStencil(op, mask).adjoint_tables
    assert mask.grid.dim == 3 and any(sum(map(abs, off)) == 2 for off in offsets)


@pytest.mark.parametrize("module", ["sobolev.py", "sampling.py", "operators.py"])
def test_gather_paths_do_not_append(module):
    """The gather stencils read their zero sentinel from a preallocated slot
    (or never read one); np.append would copy the whole vector per call."""
    source = (Path(__file__).resolve().parent.parent / "src" / "convexcauchy" / module)
    assert not re.search(r"\b(np|numpy)\.append\b", source.read_text())
