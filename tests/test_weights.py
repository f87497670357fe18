import numpy as np
import pytest

from convexcauchy.errors import ConfigError, WeightOverflowError
from convexcauchy.grid import Label, LevelSpec, build_grid, classify_nodes, level_value
from convexcauchy.weights import WeightSpec, mask_weight_sq, shifted_weight_sq, weight_extrema


def _elliptic_spec(lam, epsilon=0.5):
    level = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0, epsilon=epsilon)
    return WeightSpec(level=level, lam=lam)


class TestShiftedWeight:
    def test_unity_at_shift_point(self):
        # generic level makes it easy to pin ell exactly: ell = theta + eps
        level = LevelSpec(family="generic", c=1.0, epsilon=0.5,
                          xi_fn=lambda p: np.full(p.shape[:-1], 1.5))
        spec = WeightSpec(level=level, lam=3.0)
        assert shifted_weight_sq(spec, (0.3, 0.3)) == pytest.approx(1.0)

    def test_on_level_surface(self):
        level = LevelSpec(family="generic", c=1.0, epsilon=0.5,
                          xi_fn=lambda p: np.full(p.shape[:-1], 1.0))
        spec = WeightSpec(level=level, lam=10.0)
        assert shifted_weight_sq(spec, (0.0,)) == pytest.approx(np.exp(-10.0), rel=1e-12)
        assert np.exp(-10.0) == pytest.approx(4.54e-5, rel=1e-2)

    def test_elliptic_corner_value(self):
        spec = _elliptic_spec(lam=1.0, epsilon=0.5)
        # ell = 25, theta = 6.25 at the origin
        assert shifted_weight_sq(spec, (0.0, 0.0)) == pytest.approx(np.exp(36.5), rel=1e-10)

    def test_overflow_reported(self):
        spec = _elliptic_spec(lam=30.0, epsilon=0.5)
        with pytest.raises(WeightOverflowError) as err:
            shifted_weight_sq(spec, (0.0, 0.0))
        assert err.value.lam == 30.0
        assert err.value.max_level == pytest.approx(25.0)

    def test_lambda_monotonicity(self):
        level = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0, epsilon=0.5)
        above = (0.05, 0.0)   # ell > theta + eps
        below = (0.19, 0.0)   # theta < ell < theta + eps
        assert level.threshold < level_value(level, below) < level.threshold + 0.5
        w_above = [shifted_weight_sq(WeightSpec(level=level, lam=lam), above) for lam in (2, 4, 8)]
        w_below = [shifted_weight_sq(WeightSpec(level=level, lam=lam), below) for lam in (2, 4, 8)]
        assert w_above[0] < w_above[1] < w_above[2]
        assert w_below[0] > w_below[1] > w_below[2]

    def test_positive_on_mask(self, ell2d_mask):
        spec = WeightSpec(level=ell2d_mask.level, lam=2.0)
        w = mask_weight_sq(spec, ell2d_mask)
        assert np.all(w[ell2d_mask.in_mask] > 0)
        assert np.all(w[~ell2d_mask.in_mask] == 0)

    def test_lambda_validation(self):
        with pytest.raises(ConfigError):
            _elliptic_spec(lam=0.5)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            _elliptic_spec(lam=lam)

    def test_unresolved_epsilon_rejected(self):
        level = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
        with pytest.raises(ConfigError):
            WeightSpec(level=level, lam=2.0)


class TestExtrema:
    def test_generic_minimum_on_level_surface(self):
        """The log-weight minimum sits on the free boundary at lam * c."""
        grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (21, 21))
        level = LevelSpec(family="generic", c=0.3, epsilon=0.05,
                          xi_fn=lambda p: 1.0 - p[..., 0])
        mask = classify_nodes(grid, level)
        cell = mask.largest_cell_level_variation()
        for lam in (1.0, 5.0, 10.0):
            w_min, w_max, argmin = weight_extrema(WeightSpec(level=level, lam=lam), mask)
            assert argmin == Label.XI_BOUNDARY
            assert 0.0 <= w_min - lam * 0.3 <= lam * cell + 1e-12

    def test_constant_level_degenerate(self):
        grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (9, 9))
        level = LevelSpec(family="generic", c=0.5, epsilon=0.1,
                          xi_fn=lambda p: np.full(p.shape[:-1], 2.0))
        mask = classify_nodes(grid, level)
        w_min, w_max, _ = weight_extrema(WeightSpec(level=level, lam=3.0), mask)
        assert w_min == pytest.approx(w_max)

    def test_elliptic_max_by_scan(self, ell2d_mask):
        """Brute-force scan over masked nodes agrees with the reported max."""
        spec = WeightSpec(level=ell2d_mask.level, lam=2.0)
        _, w_max, _ = weight_extrema(spec, ell2d_mask)
        best = -np.inf
        for idx in np.argwhere(ell2d_mask.in_mask):
            best = max(best, 2.0 * ell2d_mask.ell[tuple(idx)])
        assert w_max == pytest.approx(best, rel=1e-14)

    def test_boundary_dominance(self, ell2d_mask):
        """Interior max outweighs the free-surface value by the level margin."""
        spec = WeightSpec(level=ell2d_mask.level, lam=3.0)
        logw = spec.lam * ell2d_mask.ell
        xi_max = np.max(logw[ell2d_mask.label == Label.XI_BOUNDARY])
        core_max = np.max(logw[ell2d_mask.is_core])
        margin = np.min(ell2d_mask.ell[ell2d_mask.is_core]) - ell2d_mask.theta
        assert margin >= 0
        assert core_max >= xi_max
