import numpy as np
import pytest

from convexcauchy.errors import ConfigError, GeometryError
from convexcauchy.grid import (
    Label,
    LevelSpec,
    build_grid,
    classify_nodes,
    level_values,
    shift,
)


def level_at(spec, point):
    """The level function at a single point."""
    return float(level_values(spec, np.asarray(point, dtype=float)))


class TestBuildGrid:
    def test_unit_square(self):
        grid = build_grid(((0, 1), (0, 1)), (5, 5))
        assert grid.spacing == (0.25, 0.25)
        assert grid.node_count == 25

    def test_rectangle(self):
        grid = build_grid(((0, 1), (-1, 1)), (11, 21))
        assert grid.spacing == (0.1, 0.1)

    def test_too_coarse(self):
        with pytest.raises(ConfigError):
            build_grid(((0, 1), (0, 1)), (2, 5))

    def test_degenerate_box(self):
        with pytest.raises(ConfigError):
            build_grid(((0, 0), (0, 1)), (5, 5))

    def test_nodes_reproducible(self):
        grid = build_grid(((0.3, 1.7), (-2, 5)), (9, 13))
        for j in range(2):
            coords = grid.axis_coords(j)
            expect = grid.origin[j] + np.arange(grid.shape[j]) * grid.spacing[j]
            assert np.array_equal(coords, expect)


class TestLevelValue:
    def test_elliptic_point(self):
        spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
        assert level_at(spec, (0.0, 0.0)) == pytest.approx(25.0)
        assert spec.threshold == pytest.approx(0.4 ** (-2))

    def test_hyperbolic_point(self):
        spec = LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,))
        assert level_at(spec, (0.9, 0.4)) == pytest.approx(0.16 - 0.04)
        assert spec.threshold == 0.02

    def test_parabolic_adds_time_term(self):
        spec = LevelSpec(family="parabolic", a=0.2, c=0.4, nu=1.0, x_width=1.0, t_span=2.0)
        base_only = level_at(spec, (0.1, 0.0, 0.0))
        with_time = level_at(spec, (0.1, 0.0, 1.0))
        assert with_time == pytest.approx(1.0 / (0.1 + 0.25 + 0.2))
        assert with_time < base_only

    def test_generic_callable(self):
        spec = LevelSpec(family="generic", c=0.3, xi_fn=lambda x: 1.0 - x[0])
        assert level_at(spec, (0.25, 0.9)) == pytest.approx(0.75)

    def test_nonpositive_base_guarded(self):
        spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
        with pytest.raises(GeometryError):
            level_at(spec, (-0.5, 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            LevelSpec(family="elliptic", a=0.4, c=0.3, nu=2.0)
        with pytest.raises(ConfigError):
            LevelSpec(family="elliptic", a=0.2, c=0.6, nu=2.0)
        with pytest.raises(ConfigError):
            LevelSpec(family="hyperbolic", c=0.1, eta=1.5, x0=(0.5,))
        with pytest.raises(ConfigError):
            LevelSpec(family="wrong")


class TestClassify:
    def test_elliptic_brute_force(self, ell2d_mask):
        """Enumerate the defining inequalities directly and compare node sets."""
        mask = ell2d_mask
        grid = mask.grid
        coords = grid.coords()
        x1 = coords[..., 0]
        x2 = coords[..., 1]
        in_gc = (x1 + x2**2 < 0.2) & (x1 > 0)
        on_gamma = (x1 == 0) & (x2**2 < 0.2)

        label = mask.scatter(mask.dof_label)
        labeled_gc = np.isin(
            label, (Label.INTERIOR, Label.INNER, Label.XI_BOUNDARY)
        )
        assert np.array_equal(labeled_gc, in_gc)
        assert np.array_equal(label == Label.CAUCHY_BOUNDARY, on_gamma)

    def test_core_has_full_neighborhood(self, ell2d_mask):
        mask = ell2d_mask
        core = np.argwhere(mask.is_core)
        for idx in core:
            for off in np.ndindex(3, 3):
                nb = tuple(idx + np.array(off) - 1)
                assert mask.in_mask[nb]

    def test_quadrature_weights(self, ell2d_mask):
        mask = ell2d_mask
        h1, h2 = mask.grid.spacing
        quad_weight = mask.scatter(mask.dof_quad_weight)
        assert np.all(quad_weight[~mask.in_mask] == 0)
        inner_idx = np.argwhere(mask.is_core)
        # a core node surrounded by mask on both axes carries the full cell
        for idx in inner_idx[:5]:
            assert quad_weight[tuple(idx)] == pytest.approx(h1 * h2)
        # the partition property: weight zero iff outside
        assert np.array_equal(quad_weight > 0, mask.in_mask)

    def test_counts_partition(self, ell2d_mask):
        assert sum(ell2d_mask.counts.values()) == ell2d_mask.grid.node_count

    def test_empty_subdomain_errors(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        # a > threshold region empty: nu=1, c tiny makes theta enormous
        spec = LevelSpec(family="elliptic", a=0.2, c=0.21, nu=6.0, x_width=1.0)
        with pytest.raises(GeometryError, match="empty|interior"):
            classify_nodes(grid, spec)

    def test_time_closure_violation(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        spec = LevelSpec(family="hyperbolic", c=0.001, eta=0.01, x0=(0.5,))
        with pytest.raises(GeometryError, match="t = \\+-T"):
            classify_nodes(grid, spec)

    def test_epsilon_too_large(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0, epsilon=50.0)
        with pytest.raises(GeometryError, match="inner"):
            classify_nodes(grid, spec)

    def test_default_epsilon_fraction(self, ell2d_mask):
        mask = ell2d_mask
        ell = level_values(mask.level, mask.grid.open_coords())
        ell_max = float(np.max(ell[mask.in_mask]))
        assert mask.epsilon == pytest.approx(0.1 * (ell_max - mask.theta))

    def test_hyperbolic_focal_point_outside(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17))
        spec = LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(1.5,))
        with pytest.raises(GeometryError, match="focal"):
            classify_nodes(grid, spec)

    def test_trace_layers_elliptic(self, ell2d_mask):
        mask = ell2d_mask
        v = np.argwhere(mask.value_layer)
        assert np.all(v[:, 0] == 0)
        d = np.argwhere(mask.deriv_layer)
        assert np.all(d[:, 0] == 1)
        # every derivative-layer node backs a value-layer node
        for idx in d:
            assert mask.value_layer[0, idx[1]]

    def test_hyperbolic_trace_on_both_faces(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
        spec = LevelSpec(family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,))
        mask = classify_nodes(grid, spec)
        v = np.argwhere(mask.value_layer)
        assert set(np.unique(v[:, 0])) == {0, 32}
        d = np.argwhere(mask.deriv_layer)
        assert set(np.unique(d[:, 0])) == {1, 31}


class TestMaskProperties:
    def test_monotone_nesting_epsilon(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
        small = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.4,
                                               nu=2.0, x_width=1.0, epsilon=0.5))
        large = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.4,
                                               nu=2.0, x_width=1.0, epsilon=1.5))
        assert np.all(~large.is_inner | small.is_inner)
        assert np.any(small.is_inner & ~large.is_inner)

    def test_monotone_nesting_threshold(self):
        grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
        low = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.42, nu=2.0, x_width=1.0))
        high = classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.38, nu=2.0, x_width=1.0))
        assert np.all(~high.in_mask | low.in_mask)

    def test_refinement_keeps_interior_nodes(self):
        spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
        coarse = classify_nodes(build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 17)), spec)
        fine = classify_nodes(build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33)), spec)
        margin = coarse.largest_cell_level_variation()
        ell = level_values(coarse.level, coarse.grid.open_coords())
        strict = coarse.in_mask & (ell > coarse.theta + margin)
        for idx in np.argwhere(strict):
            assert fine.in_mask[tuple(2 * idx)]

    def test_labels_readonly(self, ell2d_mask):
        with pytest.raises(ValueError):
            ell2d_mask.dof_label[0] = 3


def test_shift_roundtrip(rng):
    arr = rng.standard_normal((5, 7))
    out = shift(shift(arr, (1, -2)), (-1, 2))
    assert np.array_equal(out[1:-1, 2:-2], arr[1:-1, 2:-2])
