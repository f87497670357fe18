import numpy as np
import pytest

from convexcauchy.errors import ConfigError, WeightOverflowError
from convexcauchy.functional import CauchyData, FunctionalParams
from convexcauchy.grid import Label, LevelSpec, build_grid, classify_nodes, level_values
from convexcauchy.operators import QuasilinearOperator
from convexcauchy.optimizer import convexity_certificate
from convexcauchy.sobolev import SobolevSpace
from convexcauchy.weights import mask_weight_sq, weight_extrema


def _full_weight(mask, lam):
    """The fused squared weight on every node, zero outside the mask."""
    return mask.scatter(mask_weight_sq(mask, lam, np.arange(mask.dofs.size)))


def _ell(mask):
    """The level values on every node."""
    return level_values(mask.level, mask.grid.open_coords())


def _elliptic_mask(epsilon=0.5):
    """The ell2d geometry with eps pinned; the node (0, 0) has ell = 25, theta = 6.25."""
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
    return classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0,
                                          x_width=1.0, epsilon=epsilon))


def _stepped_mask():
    """A generic level of three plateaus over x0: ell = 3 (inner), ell = theta + eps
    and ell just above the level surface theta = 1 (eps = 0.5)."""
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (11, 11))
    level = LevelSpec(family="generic", c=1.0, epsilon=0.5, xi_fn=lambda x: np.select(
        [x[0] < 0.35, x[0] < 0.65], [3.0, 1.5], 1.0 + 1e-12))
    return classify_nodes(grid, level)


def _params(mask, lam):
    """J of the Laplacian with zero data on `mask` at weight strength lam."""
    data = CauchyData(g0=np.zeros(mask.value_pos.size), g1=np.zeros(mask.deriv_pos.size))
    return FunctionalParams(op=QuasilinearOperator(family="elliptic", dim=mask.grid.dim),
                            lam=lam, mask=mask, space=SobolevSpace(mask), beta=0.5, data=data,
                            beta_policy="keep")


class TestShiftedWeight:
    def test_unity_at_shift_point(self):
        mask = _stepped_mask()
        w = _full_weight(mask, 3.0)
        at_shift = _ell(mask) == 1.5
        assert np.any(at_shift)
        assert np.all(w[at_shift] == 1.0)

    def test_on_level_surface(self):
        mask = _stepped_mask()
        w = _full_weight(mask, 10.0)
        on_surface = mask.in_mask & (_ell(mask) < 1.5)
        assert np.any(on_surface)
        assert np.allclose(w[on_surface], np.exp(-10.0), rtol=1e-10, atol=0.0)
        assert np.exp(-10.0) == pytest.approx(4.54e-5, rel=1e-2)

    def test_elliptic_corner_value(self):
        mask = _elliptic_mask(epsilon=0.5)
        corner = (0, 16)  # the node (0, 0): ell = 25, theta = 6.25
        assert mask.in_mask[corner]
        assert _full_weight(mask, 1.0)[corner] == pytest.approx(np.exp(36.5), rel=1e-10)

    def test_overflow_reported(self):
        mask = _elliptic_mask(epsilon=0.5)
        with pytest.raises(WeightOverflowError) as err:
            _full_weight(mask, 30.0)
        assert err.value.lam == 30.0
        assert err.value.max_level == pytest.approx(25.0)

    def test_lambda_monotonicity(self):
        mask = _elliptic_mask(epsilon=0.5)
        shift_point = mask.theta + mask.epsilon
        above = mask.in_mask & (_ell(mask) > shift_point)
        below = mask.in_mask & (_ell(mask) < shift_point)
        assert np.any(above) and np.any(below)
        w = [_full_weight(mask, lam) for lam in (2.0, 4.0, 8.0)]
        assert np.all(w[0][above] < w[1][above]) and np.all(w[1][above] < w[2][above])
        assert np.all(w[0][below] > w[1][below]) and np.all(w[1][below] > w[2][below])

    def test_positive_on_mask(self, ell2d_mask):
        w = _full_weight(ell2d_mask, 2.0)
        assert np.all(w[ell2d_mask.in_mask] > 0)
        assert np.all(w[~ell2d_mask.in_mask] == 0)

    def test_lambda_validation(self, ell2d_mask):
        with pytest.raises(ConfigError, match=">= 1"):
            _params(ell2d_mask, 0.5)
        with pytest.raises(ConfigError, match=">= 1"):
            convexity_certificate(_params(ell2d_mask, 2.0), radius=5.0, samples=1, seed=0,
                                  lambdas=[2.0, 0.5])

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, ell2d_mask, lam):
        with pytest.raises(ConfigError, match="finite"):
            _params(ell2d_mask, lam)
        with pytest.raises(ConfigError, match="finite"):
            convexity_certificate(_params(ell2d_mask, 2.0), radius=5.0, samples=1, seed=0,
                                  lambdas=[lam])


class TestExtrema:
    def test_generic_minimum_on_level_surface(self):
        """The log-weight minimum sits on the free boundary at lam * c."""
        grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (21, 21))
        level = LevelSpec(family="generic", c=0.3, epsilon=0.05,
                          xi_fn=lambda x: 1.0 - x[0])
        mask = classify_nodes(grid, level)
        cell = mask.largest_cell_level_variation()
        for lam in (1.0, 5.0, 10.0):
            w_min, w_max, argmin = weight_extrema(mask, lam)
            assert argmin == Label.XI_BOUNDARY
            assert 0.0 <= w_min - lam * 0.3 <= lam * cell + 1e-12

    def test_constant_level_degenerate(self):
        grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9))
        level = LevelSpec(family="generic", c=0.5, epsilon=0.1,
                          xi_fn=lambda x: np.full_like(x[0], 2.0))
        mask = classify_nodes(grid, level)
        w_min, w_max, _ = weight_extrema(mask, 3.0)
        assert w_min == pytest.approx(w_max)

    def test_elliptic_max_by_scan(self, ell2d_mask):
        """Brute-force scan over masked nodes agrees with the reported max."""
        _, w_max, _ = weight_extrema(ell2d_mask, 2.0)
        best, ell = -np.inf, _ell(ell2d_mask)
        for idx in np.argwhere(ell2d_mask.in_mask):
            best = max(best, 2.0 * ell[tuple(idx)])
        assert w_max == pytest.approx(best, rel=1e-14)

    def test_boundary_dominance(self, ell2d_mask):
        """Interior max outweighs the free-surface value by the level margin."""
        ell = _ell(ell2d_mask)
        logw = 3.0 * ell
        xi_max = np.max(logw[ell2d_mask.scatter(ell2d_mask.dof_label) == Label.XI_BOUNDARY])
        core_max = np.max(logw[ell2d_mask.is_core])
        margin = np.min(ell[ell2d_mask.is_core]) - ell2d_mask.theta
        assert margin >= 0
        assert core_max >= xi_max
