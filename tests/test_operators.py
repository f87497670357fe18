import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import CATALOG_IDS, make_problem
from convexcauchy.errors import ConfigError
from convexcauchy.grid import Field, LevelSpec, build_grid, classify_nodes
from convexcauchy.operators import (
    LOWER_TERMS,
    LowerOrderTerm,
    Nonlinearity,
    OperatorStencil,
    QuasilinearOperator,
    validate_operator,
)
from convexcauchy.sampling import random_smooth_values


def validate_lower_term(f: Nonlinearity, b: np.ndarray, n_spatial: int,
                        rng: np.random.Generator, rel_tol: float = 1e-5) -> None:
    """Check the analytic partials of f(grad, u; b) against central finite differences.

    Samples one (grad, u) state per entry of the scale values b; fails the
    test when a partial disagrees with the FD probe. A partial of None must
    vanish.
    """
    u = rng.uniform(-2.0, 2.0, size=b.shape)
    grad = rng.uniform(-2.0, 2.0, size=b.shape + (n_spatial,))
    delta = 1e-6

    fd_u = (f.value(grad, u + delta, b) - f.value(grad, u - delta, b)) / (2 * delta)
    an_u = 0.0 if f.d_u is None else f.d_u(grad, u, b)
    scale = np.max(np.abs(fd_u)) + 1.0
    assert np.max(np.abs(fd_u - an_u)) <= rel_tol * scale, \
        "d/du partial disagrees with FD probe"

    an_g = np.zeros_like(grad) if f.d_grad is None else f.d_grad(grad, u, b)
    for i in range(n_spatial):
        bump = np.zeros_like(grad)
        bump[..., i] = delta
        fd_g = (f.value(grad + bump, u, b) - f.value(grad - bump, u, b)) / (2 * delta)
        scale = np.max(np.abs(fd_g)) + 1.0
        assert np.max(np.abs(fd_g - an_g[..., i])) <= rel_tol * scale, \
            f"gradient partial {i} disagrees with FD probe"


@pytest.fixture(scope="module")
def ell1d():
    grid = build_grid(((0.0, 1.0),), (65,))
    spec = LevelSpec(family="elliptic", a=0.15, c=0.45, nu=1.0, x_width=1.0)
    return grid, classify_nodes(grid, spec)


class TestResidual:
    def test_1d_cubic_manufactured(self, ell1d):
        grid, mask = ell1d
        x = grid.coords()[..., 0]

        def source(points):
            return (points[..., 0] ** 2 + 1.0) ** 3 - 2.0

        op = QuasilinearOperator(family="elliptic", dim=1, lower=LowerOrderTerm("cubic", source))
        r = OperatorStencil(op, mask).residual(mask.gather(x**2 + 1.0))
        assert np.max(np.abs(r)) < 1e-10
        assert r.shape == (int(np.sum(mask.is_core)),)

    def test_2d_harmonic_quadratic(self, ell2d_mask):
        grid = ell2d_mask.grid
        pts = grid.coords()
        op = QuasilinearOperator(family="elliptic", dim=2)
        u = ell2d_mask.gather(pts[..., 0] ** 2 - pts[..., 1] ** 2)
        r = OperatorStencil(op, ell2d_mask).residual(u)
        assert np.max(np.abs(r)) < 1e-10

    def test_hyperbolic_dalembert(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
        mask = classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,)))
        pts = grid.coords()
        op = QuasilinearOperator(family="hyperbolic", dim=2)
        r = OperatorStencil(op, mask).residual(mask.gather(pts[..., 0] ** 2 + pts[..., 1] ** 2))
        assert np.max(np.abs(r)) < 1e-10

    def test_parabolic_sign_convention(self):
        """Residual is u_t minus diffusion minus the lower term."""
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        mask = classify_nodes(grid, LevelSpec(family="parabolic", a=0.25, c=0.45,
                                              nu=1.0, x_width=1.0, t_span=1.0))
        pts = grid.coords()
        op = QuasilinearOperator(family="parabolic", dim=2)
        r = OperatorStencil(op, mask).residual(mask.gather(pts[..., 1]))  # u = t
        assert np.allclose(r, 1.0)

    def test_lower_term_difference(self, ell2d_mask, rng):
        def source(points):
            return np.zeros(points.shape[:-1])

        op_full = QuasilinearOperator(family="elliptic", dim=2,
                                      lower=LowerOrderTerm("cubic", source))
        stencil = OperatorStencil(op_full, ell2d_mask)
        u = random_smooth_values(ell2d_mask, rng) * 2.0
        diff = stencil.residual(u) - stencil.principal(u)
        expect = -u[stencil.core_pos] ** 3
        assert np.allclose(diff, expect, atol=1e-12)

    def test_constant_principal_zero(self, ell2d_mask):
        op = QuasilinearOperator(family="elliptic", dim=2)
        r = OperatorStencil(op, ell2d_mask).principal(np.full(ell2d_mask.dofs.size, 3.7))
        assert np.max(np.abs(r)) < 1e-12


class TestLinearize:
    def test_linear_case_independent_of_base(self, ell2d_mask, rng):
        op = QuasilinearOperator(family="elliptic", dim=2)
        stencil = OperatorStencil(op, ell2d_mask)
        v = random_smooth_values(ell2d_mask, rng)
        u1 = random_smooth_values(ell2d_mask, rng)
        lin0 = stencil.linearize(np.zeros(ell2d_mask.dofs.size))
        lin1 = stencil.linearize(u1)
        assert np.array_equal(lin0.forward(v), lin1.forward(v))
        # and the linear action reproduces the principal part
        assert np.allclose(lin0.forward(v), stencil.principal(v))

    def test_cubic_zeroth_coefficient(self, ell2d_mask):
        def source(points):
            return np.zeros(points.shape[:-1])

        op = QuasilinearOperator(family="elliptic", dim=2, lower=LowerOrderTerm("cubic", source))
        lin = OperatorStencil(op, ell2d_mask).linearize(np.ones(ell2d_mask.dofs.size))
        # coefficients live on the core nodes
        assert lin.zeroth.shape == (int(np.sum(ell2d_mask.is_core)),)
        assert np.allclose(lin.zeroth, -3.0)

    def test_quadratic_remainder_decay(self, ell2d_mask, rng):
        """The linearization remainder shrinks at least 3.5x when h halves."""

        def source(points):
            return np.sin(points[..., 0])

        op = QuasilinearOperator(family="elliptic", dim=2, lower=LowerOrderTerm("cubic", source))
        stencil = OperatorStencil(op, ell2d_mask)
        u1 = 1.5 * random_smooth_values(ell2d_mask, rng)
        lin = stencil.linearize(u1)
        base = stencil.residual(u1)

        h0 = random_smooth_values(ell2d_mask, rng)
        rems = []
        for scale in (0.5, 0.25, 0.125):
            h = scale * h0
            rem = stencil.residual(u1 + h) - base - lin.forward(h)
            rems.append(np.max(np.abs(rem)))
        assert rems[0] / rems[1] > 3.5
        assert rems[1] / rems[2] > 3.5


class TestAdjoint:
    @pytest.mark.parametrize("case_id", CATALOG_IDS)
    def test_duality_identity(self, case_id, rng):
        _, grid, mask, op, _, params, u_star = make_problem(case_id)
        lin = params.stencil.linearize(u_star)
        for _ in range(5):
            v = rng.standard_normal(mask.dofs.size)
            w = rng.standard_normal(lin.stencil.core_pos.size)
            lhs = float(np.sum(lin.forward(v) * w))
            rhs = float(np.sum(v * lin.adjoint(w)))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_adjoint_of_adjoint(self, ell2d_mask, rng):
        op = QuasilinearOperator(family="elliptic", dim=2)
        lin = OperatorStencil(op, ell2d_mask).linearize(np.zeros(ell2d_mask.dofs.size))
        v = rng.standard_normal(ell2d_mask.dofs.size)
        # the transpose of the transpose is the forward map, checked weakly
        w = rng.standard_normal(lin.stencil.core_pos.size)
        forward = float(np.sum(lin.forward(v) * w))
        twice = float(np.sum(lin.adjoint(w) * v))
        assert forward == pytest.approx(twice, rel=1e-13)

    def test_matrix_assembly_matches_apply(self, rng):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (9, 9))
        mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.1, c=0.45,
                                              nu=1.0, x_width=1.0))

        def source(points):
            return points[..., 0]

        op = QuasilinearOperator(family="elliptic", dim=2, lower=LowerOrderTerm("sine", source))
        lin = OperatorStencil(op, mask).linearize(random_smooth_values(mask, rng))
        mat = lin.to_matrix()
        v = rng.standard_normal(mask.dofs.size)
        w = rng.standard_normal(lin.stencil.core_pos.size)
        assert np.allclose(mat @ v, lin.forward(v), atol=1e-12)
        assert np.allclose(mat.T @ w, lin.adjoint(w), atol=1e-12)

    def test_symmetric_interior_rows(self, rng):
        """With no lower term the stencil matrix is symmetric between deep
        interior rows (away from boundary truncation)."""
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (9, 9))
        mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.1, c=0.45,
                                              nu=1.0, x_width=1.0))
        op = QuasilinearOperator(family="elliptic", dim=2)
        mat = OperatorStencil(op, mask).linearize(np.zeros(mask.dofs.size)).to_matrix().toarray()
        core = np.flatnonzero(mask.is_core[mask.in_mask])  # DOF positions of the core rows
        sub = mat[:, core]
        assert np.allclose(sub, sub.T, atol=1e-12)


class TestMixedCoefficients:
    def test_anisotropic_matches_dense_matrix(self, rng):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (9, 9))
        mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.1, c=0.45,
                                              nu=1.0, x_width=1.0))

        def coeffs(points):
            n = points.shape[:-1]
            out = np.empty(n + (2, 2))
            out[..., 0, 0] = 2.0
            out[..., 1, 1] = 1.5
            out[..., 0, 1] = 0.4 * np.cos(points[..., 1])
            out[..., 1, 0] = out[..., 0, 1]
            return out

        op = QuasilinearOperator(family="elliptic", dim=2, principal=coeffs)
        validate_operator(op, mask)
        lin = OperatorStencil(op, mask).linearize(np.zeros(mask.dofs.size))
        mat = lin.to_matrix()
        for _ in range(3):
            v = rng.standard_normal(mask.dofs.size)
            assert np.allclose(mat @ v, lin.forward(v), atol=1e-12)

    def test_fd_exact_on_quadratics(self, rng):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.4,
                                              nu=2.0, x_width=1.0))

        def coeffs(points):
            out = np.empty(points.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.3
            out[..., 1, 1] = 0.9
            out[..., 0, 1] = 0.2
            out[..., 1, 0] = 0.2
            return out

        op = QuasilinearOperator(family="elliptic", dim=2, principal=coeffs)
        pts = grid.coords()
        x, y = pts[..., 0], pts[..., 1]
        u = mask.gather(1.0 + 2 * x - y + 0.5 * x * x + x * y - 2 * y * y)
        r = OperatorStencil(op, mask).principal(u)
        expect = 1.3 * 1.0 + 0.9 * (-4.0) + 2 * 0.2 * 1.0
        assert np.allclose(r, expect, atol=1e-10)


class TestGradSqLowerTerm:
    def test_linearize_duality_and_matrix(self, ell2d_mask, rng):
        """The |grad u|^2 term contributes first-order coefficients; the
        transpose must still be exact."""

        def scale(points):
            return 0.5 + 0.2 * points[..., 0]

        def source(points):
            return np.zeros(points.shape[:-1])

        op = QuasilinearOperator(family="elliptic", dim=2,
                                 lower=LowerOrderTerm("gradsq", source, scale))
        lin = OperatorStencil(op, ell2d_mask).linearize(
            2.0 * random_smooth_values(ell2d_mask, rng))
        assert lin.first, "gradient-square term must produce first-order coefficients"
        mat = lin.to_matrix()
        for _ in range(5):
            v = rng.standard_normal(ell2d_mask.dofs.size)
            w = rng.standard_normal(lin.stencil.core_pos.size)
            lhs = float(np.sum(lin.forward(v) * w))
            rhs = float(np.sum(v * lin.adjoint(w)))
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert np.allclose(mat @ v, lin.forward(v), atol=1e-12)

    def test_variable_wave_coefficient(self, rng):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        mask = classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02,
                                              eta=0.25, x0=(0.5,)))

        def wave(points):
            return 1.0 + (points[..., 0] - 0.5) ** 2

        op = QuasilinearOperator(family="hyperbolic", dim=2, principal=wave)
        validate_operator(op, mask)
        pts = grid.coords()
        r = OperatorStencil(op, mask).residual(mask.gather(pts[..., 1] ** 2))  # u = t^2
        expect = 2.0 * (1.0 + (pts[..., 0] - 0.5) ** 2)  # residual = 2 a(x)
        assert np.allclose(r, expect[mask.is_core], atol=1e-9)


class TestValidation:
    def test_ellipticity_violation_caught(self, ell2d_mask):
        def coeffs(points):
            out = np.zeros(points.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = -0.5  # indefinite
            return out

        op = QuasilinearOperator(family="elliptic", dim=2, principal=coeffs)
        with pytest.raises(ConfigError, match=re.escape("ellipticity fails: eigenvalues in "
                                                        "[-0.5, 1]")):
            validate_operator(op, ell2d_mask)

    def test_least_eigenvalue_must_be_positive(self, ell2d_mask):
        """No declared bound: any positive least eigenvalue passes, one that
        reaches 0 at a single core node fails."""
        pts = ell2d_mask.grid.coords(ell2d_mask.dofs[ell2d_mask.core_pos])
        node = pts[len(pts) // 2]

        def coeffs(points, floor):
            out = np.zeros(points.shape[:-1] + (2, 2))
            out[..., 0, 0] = np.where(np.all(points == node, axis=-1), floor, 50.0)
            out[..., 1, 1] = 1e-3
            return out

        validate_operator(QuasilinearOperator(
            family="elliptic", dim=2, principal=lambda p: coeffs(p, 1e-12)), ell2d_mask)
        op = QuasilinearOperator(family="elliptic", dim=2, principal=lambda p: coeffs(p, 0.0))
        with pytest.raises(ConfigError, match=re.escape("eigenvalues in [0, 50]")):
            validate_operator(op, ell2d_mask)

    def test_asymmetry_caught(self, ell2d_mask):
        def coeffs(points):
            out = np.zeros(points.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = 0.3
            return out

        op = QuasilinearOperator(family="elliptic", dim=2, principal=coeffs)
        with pytest.raises(ConfigError, match=re.escape("not symmetric: |a_ij - a_ji| in "
                                                        "[0, 0.3]")):
            validate_operator(op, ell2d_mask)

    def test_hyperbolic_monotonicity_caught(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        mask = classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,)))

        def wave(points):
            # decreasing away from the focal point violates (grad a, x - x0) >= 0
            return 2.0 - (points[..., 0] - 0.5) ** 2

        op = QuasilinearOperator(family="hyperbolic", dim=2, principal=wave)
        with pytest.raises(ConfigError, match=re.escape(
                "monotonicity fails: (grad a, x - x0) in [-0.382813, -0.125]")):
            validate_operator(op, mask)

    def test_wave_coefficient_must_be_positive(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        mask = classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,)))

        def wave(points, shift):
            return 3.0 * (points[..., 0] - 0.5) ** 2 - shift  # (grad a, x - x0) >= 0

        validate_operator(QuasilinearOperator(
            family="hyperbolic", dim=2, principal=lambda p: wave(p, 0.0)), mask)
        # a = 0 on the core nodes nearest the focal point, x = 0.25 and 0.75
        op = QuasilinearOperator(family="hyperbolic", dim=2, principal=lambda p: wave(p, 0.1875))
        with pytest.raises(ConfigError, match=re.escape("not positive: range [0, 0.386719]")):
            validate_operator(op, mask)

    @pytest.mark.parametrize("kind", LOWER_TERMS)
    def test_builtin_partials_match_fd_probe(self, ell2d_mask, rng, kind):
        pts = ell2d_mask.grid.coords(ell2d_mask.dofs[ell2d_mask.core_pos])[:16]
        validate_lower_term(LOWER_TERMS[kind], 0.5 + 0.1 * pts[:, 0], 2, rng)

    def test_lower_term_fd_probe(self, ell2d_mask, rng):
        bad = Nonlinearity(lambda grad, u, b: -u**3,
                           d_u=lambda grad, u, b: -2.0 * u**2)  # wrong partial
        with pytest.raises(AssertionError, match="d/du"):
            validate_lower_term(bad, np.ones(16), 2, rng)


def _term(kind, source, scale):
    """The lower-order term `kind`, given the scale b when it reads one."""
    return LowerOrderTerm(kind, source, scale if kind == "gradsq" else None)


class TestFixedFields:
    """The stencil evaluates q(p) and b(p) once, and the residual keeps the
    arithmetic of the term evaluated at the points on every call."""

    @pytest.mark.parametrize("kind", LOWER_TERMS)
    def test_fields_evaluated_once_per_stencil(self, ell2d_mask, rng, kind):
        calls = []

        def scale(points):
            calls.append("b")
            return 0.5 + 0.1 * points[..., 0]

        def source(points):
            calls.append("q")
            return np.cos(points[..., 0]) * points[..., 1]

        op = QuasilinearOperator(family="elliptic", dim=2, lower=_term(kind, source, scale))
        stencil = OperatorStencil(op, ell2d_mask)
        at_construction = list(calls)
        assert at_construction and len(at_construction) == len(set(at_construction))
        v = random_smooth_values(ell2d_mask, rng) + 1.0
        r = stencil.residual(v)
        lin = stencil.linearize(v)
        stencil.residual(2.0 * v)
        assert calls == at_construction

        grad, u = stencil.gradient(v), v[stencil.core_pos]
        expect = stencil.principal(v) + op.lower.value(stencil.points, grad, u)
        assert np.array_equal(r, expect)
        du = op.lower.d_u(stencil.points, grad, u)
        if kind in ("source", "gradsq"):  # dN/du vanishes: no zeroth-order term
            assert lin.zeroth is None and not np.any(du)
        else:
            assert np.array_equal(lin.zeroth, np.broadcast_to(du, u.shape))
        # the u-only terms add no first-order coefficients to the linearization
        assert len(lin.first) == len(stencil.first) + 2 * (kind == "gradsq")

    @pytest.mark.parametrize("kind", ["source", "cubic", "sine"])
    def test_gradient_skipped_without_gradient_partial(self, ell2d_mask, rng, monkeypatch, kind):
        """A term with no gradient partial never takes the spatial gradient."""
        op = QuasilinearOperator(family="elliptic", dim=2,
                                 lower=LowerOrderTerm(kind, lambda p: np.cos(p[..., 0])))
        stencil = OperatorStencil(op, ell2d_mask)
        v = random_smooth_values(ell2d_mask, rng)
        monkeypatch.setattr(OperatorStencil, "gradient", lambda *args: pytest.fail("gradient"))
        stencil.residual(v)
        stencil.linearize(v)


def test_field_shape_checked(ell2d_mask):
    with pytest.raises(ConfigError):
        Field(ell2d_mask.grid, np.zeros((3, 3)))


def test_nonfinite_field_rejected(ell2d_mask):
    bad = np.zeros(ell2d_mask.grid.shape)
    bad[0, 0] = np.nan
    with pytest.raises(Exception, match="finite"):
        Field(ell2d_mask.grid, bad)


# -- the stencil rows and the matrix built from them --------------------------------


def _coo_of_terms(lin) -> sp.csr_matrix:
    """`forward` as a matrix, built without `rows`: the coo entries of every
    `_terms` triple where its coefficient is nonzero, their duplicates summed
    by scipy. On rows of at most 16 coo entries scipy sums them in `_terms`
    order (its index sort is an insertion sort there); on longer rows, as a
    3-D stencil with two mixed pairs and a zeroth-order term has, it sums
    them in the order of an unstable sort, which `rows` does not follow."""
    core = np.arange(lin.stencil.core_pos.size)
    rows, cols, vals = [], [], []
    for off, c, w in lin._terms():
        sel = c != 0.0
        rows.append(core[sel])
        cols.append(lin.stencil.tables[off][sel])
        vals.append(w * c[sel])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(core.size, lin.mask.dofs.size)).tocsr()


def _variable_mixed(points):
    """A symmetric principal part whose diagonal and mixed entries vary."""
    out = np.empty(points.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.2 + 0.1 * np.sin(points[..., 0])
    out[..., 1, 1] = 1.0
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * np.cos(3.0 * points[..., 1])
    return out


def _two_mixed_pairs(points):
    out = np.zeros(points.shape[:-1] + (3, 3))
    out[..., [0, 1, 2], [0, 1, 2]] = 1.0
    out[..., 0, 1] = out[..., 1, 0] = 0.3
    out[..., 1, 2] = out[..., 2, 1] = 0.2
    return out


def _to_matrix_case(which, ell2d_mask):
    """(operator, mask) of a to_matrix case."""
    catalog = {"cubic": "ELL2D-CUBIC", "parabolic": "PAR1D-CUBIC", "hyperbolic": "HYP1D-QUAD",
               "1d": "ELL1D-CUBIC"}
    if which in catalog:
        _, _, mask, op, *_ = make_problem(catalog[which])
        return op, mask
    if which == "3d-33":
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (33, 33, 33))
        mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.45, nu=1.0,
                                              x_width=1.0))
        return QuasilinearOperator(family="elliptic", dim=3, principal=_two_mixed_pairs), mask
    lower = {"sine-mixed": LowerOrderTerm("sine", lambda p: p[..., 0]),
             "gradsq-b": LowerOrderTerm("gradsq", lambda p: p[..., 1],
                                        lambda p: 0.5 + 0.2 * p[..., 0])}[which]
    principal = _variable_mixed if which == "sine-mixed" else None
    return QuasilinearOperator(family="elliptic", dim=2, principal=principal,
                               lower=lower), ell2d_mask


@pytest.mark.parametrize("which", ["cubic", "sine-mixed", "gradsq-b", "parabolic",
                                   "hyperbolic", "1d", "3d-33"])
def test_to_matrix_bit_identical_to_the_coo_of_terms(which, ell2d_mask, rng):
    """The matrix of `rows` has the arrays of the coo sum of the `_terms`, at
    a zero and at a random base field."""
    op, mask = _to_matrix_case(which, ell2d_mask)
    stencil = OperatorStencil(op, mask)
    for base in (np.zeros(mask.dofs.size), 2.0 * random_smooth_values(mask, rng)):
        lin = stencil.linearize(base)
        got, want = lin.to_matrix(), _coo_of_terms(lin)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
