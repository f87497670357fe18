"""Smaller sanity net for the n >= 2 code paths of the time families and 3-D
elliptic geometry: classification, trace layers on several faces, residual
exactness, and gradient consistency on coarse grids."""

import numpy as np
import pytest

from convexcauchy.functional import (
    CauchyData,
    FunctionalParams,
    data_extension,
    evaluate,
    gradient,
)
from convexcauchy.grid import Label, LevelSpec, build_grid, classify_nodes, level_values
from convexcauchy.operators import LowerOrderTerm, OperatorStencil, QuasilinearOperator
from convexcauchy.sampling import random_smooth_values
from convexcauchy.sobolev import SobolevSpace


def _data_from(u_vals, mask):
    return CauchyData(g0=u_vals[mask.value_layer], g1=u_vals[mask.deriv_layer])


def _fd_gradient_check(params, u, rng, n_dirs=3, tol=1e-6):
    g = gradient(params, u, mode="euclidean")
    scale = max(1.0, float(np.max(np.abs(u))))
    worst = 0.0
    for _ in range(n_dirs):
        h = random_smooth_values(params.mask, rng)
        delta = 1e-5 * scale
        fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
        an = float(np.sum(g * h))
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst < tol, f"gradient mismatch {worst:.3e}"


@pytest.fixture(scope="module")
def hyp2d():
    grid = build_grid(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), (17, 17, 17))
    # eta t^2 must dominate the worst corner distance at t = +-T
    level = LevelSpec(family="hyperbolic", c=0.02, eta=0.6, x0=(0.5, 0.5))
    return grid, classify_nodes(grid, level)


class TestHyperbolic2Plus1:
    def test_trace_layers_cover_all_spatial_faces(self, hyp2d):
        grid, mask = hyp2d
        v = np.argwhere(mask.value_layer)
        sides = set()
        for idx in v:
            for axis in (0, 1):
                if idx[axis] == 0:
                    sides.add((axis, -1))
                if idx[axis] == grid.shape[axis] - 1:
                    sides.add((axis, +1))
        assert sides == {(0, -1), (0, +1), (1, -1), (1, +1)}
        # no data layer on the time faces
        assert not np.any(v[:, 2] == 0) or mask.counts["outside"] == 0

    def test_wave_residual_exact_on_quadratic(self, hyp2d):
        grid, mask = hyp2d
        pts = grid.coords()
        u = mask.gather(pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2)
        op = QuasilinearOperator(family="hyperbolic", dim=3)
        r = OperatorStencil(op, mask).residual(u)
        # a u_tt - laplace u = 2 - 4 on the core
        assert np.allclose(r, -2.0, atol=1e-9)

    def test_gradient_fd(self, hyp2d):
        grid, mask = hyp2d
        pts = grid.coords()
        u_vals = pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2
        op = QuasilinearOperator(family="hyperbolic", dim=3)
        space = SobolevSpace(mask)
        assert space.order == 3
        params = FunctionalParams(
            op=op, lam=1.5, mask=mask, space=space, beta=1e-2, data=_data_from(u_vals, mask),
            beta_policy="keep")
        rng = np.random.default_rng(42)
        _fd_gradient_check(params, data_extension(space, params.data), rng)


@pytest.fixture(scope="module")
def par2d_setup():
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (13, 13, 13))
    level = LevelSpec(family="parabolic", a=0.2, c=0.45, nu=1.0,
                      x_width=1.0, t_span=1.0)
    mask = classify_nodes(grid, level)
    pts = grid.coords()
    u_star = pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2 + 1.0

    def source(points):
        star = points[..., 0] ** 2 + points[..., 1] ** 2 + points[..., 2] ** 2 + 1.0
        return 2.0 * points[..., 2] - 4.0 + star**3

    op = QuasilinearOperator(family="parabolic", dim=3, lower=LowerOrderTerm("cubic", source))
    return grid, mask, op, u_star


class TestParabolic2Plus1:
    def test_transverse_level_term(self, par2d_setup):
        grid, mask, op, u_star = par2d_setup
        # nodes with the same x1 but larger |x2| carry smaller level values
        ell = level_values(mask.level, grid.open_coords())
        on_axis = ell[4, 6, 6]
        off_axis = ell[4, 9, 6]
        assert off_axis < on_axis

    def test_manufactured_residual(self, par2d_setup):
        grid, mask, op, u_star = par2d_setup
        r = OperatorStencil(op, mask).residual(mask.gather(u_star))
        assert np.max(np.abs(r)) < 1e-9

    def test_gradient_fd(self, par2d_setup):
        grid, mask, op, u_star = par2d_setup
        space = SobolevSpace(mask)
        params = FunctionalParams(
            op=op, lam=1.5, mask=mask, space=space, beta=1e-2, data=_data_from(u_star, mask),
            beta_policy="keep")
        rng = np.random.default_rng(43)
        _fd_gradient_check(params, data_extension(space, params.data), rng)


class TestElliptic3D:
    def test_classify_and_adjoint(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (13, 13, 13))
        level = LevelSpec(family="elliptic", a=0.2, c=0.45, nu=1.0, x_width=1.0)
        mask = classify_nodes(grid, level)
        assert mask.counts["cauchy_boundary"] > 0
        op = QuasilinearOperator(family="elliptic", dim=3)
        lin = OperatorStencil(op, mask).linearize(np.zeros(mask.dofs.size))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(mask.dofs.size)
        w = rng.standard_normal(lin.stencil.core_pos.size)
        lhs = float(np.sum(lin.forward(v) * w))
        rhs = float(np.sum(v * lin.adjoint(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRandomGenericLevels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_invariants(self, seed):
        """Random smooth level functions: one label per node, weights positive
        exactly on the mask, core neighborhoods complete."""
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=4)

        def xi(p):
            x, y = p
            return (1.2 - x + 0.3 * coeffs[0] * np.sin(2 * x + coeffs[1])
                    + 0.3 * coeffs[2] * np.cos(2 * y + coeffs[3]))

        grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (21, 21))
        level = LevelSpec(family="generic", c=0.4, epsilon=0.05, xi_fn=xi)
        mask = classify_nodes(grid, level)
        assert sum(mask.counts.values()) == grid.node_count
        assert np.array_equal(mask.scatter(mask.dof_quad_weight) > 0, mask.in_mask)
        for idx in np.argwhere(mask.is_core)[::5]:
            for off in np.ndindex(3, 3):
                nb = tuple(idx + np.array(off) - 1)
                assert mask.in_mask[nb]
        ell = level_values(mask.level, grid.open_coords())
        core_levels = ell[mask.is_core | (mask.scatter(mask.dof_label) == Label.XI_BOUNDARY)]
        assert np.all(core_levels > mask.theta)
