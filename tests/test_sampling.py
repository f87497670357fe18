"""random_smooth_values, one sparse product per axis, against its earlier
form, which gathered the neighbours and extended the draw by one zero slot
with np.append on every axis of every pass: the draws must be equal bit for
bit and the generator must be left in the same state, so that every
certificate sample and margin stays the same."""

import numpy as np
import pytest

from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.harness import build_setup
from convexcauchy.sampling import random_smooth_values


def _appending_smooth_values(mask, rng, passes=8):
    """The earlier random_smooth_values, verbatim."""
    halo = mask.halo
    vals = rng.standard_normal(mask.grid.shape).ravel()[halo.index]
    for _ in range(passes):
        vals[~halo.free] = 0.0
        for plus, minus in halo.tables:
            ext = np.append(vals, 0.0)
            vals = 0.5 * vals + 0.25 * (ext[plus] + ext[minus])
    vals[~halo.free] = 0.0
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return vals[halo.dof_pos]


def _ell3d_mask():
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (17, 19, 21))
    return classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.45, nu=1.0,
                                          x_width=1.0))


def _hyp2d_mask():
    """The 2+1-D wave geometry: data on every spatial face."""
    grid = build_grid(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), (17, 17, 17))
    return classify_nodes(grid, LevelSpec(family="hyperbolic", c=0.02, eta=0.6, x0=(0.5, 0.5)))


def _ell2d_wide_mask():
    """A 2-D cap wide enough that the mask spans the whole lateral axis."""
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (17, 19))
    return classify_nodes(grid, LevelSpec(family="elliptic", a=0.2, c=0.45, nu=1.0,
                                          x_width=3.0))


MASKS = {
    "hyp1d": lambda: build_setup({"case": "HYP1D-QUAD"}).mask,
    "ell2d": lambda: build_setup({"case": "ELL2D-CUBIC"}).mask,
    "ell3d": _ell3d_mask,
    "hyp2d": _hyp2d_mask,
    "ell2d-wide": _ell2d_wide_mask,
}


@pytest.mark.parametrize("name", ["hyp2d", "ell2d-wide"])
def test_halo_reaches_the_bounding_box(name):
    """On these masks the halo holds nodes on both end faces of an axis, so
    smoothing rows without a + entry and rows without a - entry sit on the
    grid's faces, where no neighbour exists at all."""
    mask = MASKS[name]()
    along = np.unravel_index(mask.halo.index, mask.grid.shape)[1]
    assert along.min() == 0 and along.max() == mask.grid.shape[1] - 1
    plus, minus = mask.halo.tables[1]
    n = mask.halo.index.size
    assert np.all(plus[along == along.max()] == n) and np.all(minus[along == 0] == n)
    rows = mask.halo.smoothing[1]
    assert np.all(np.diff(rows.indptr)[along == 0] <= 2)


@pytest.mark.parametrize("name", MASKS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_draw_matches_appending_form(name, seed):
    mask = MASKS[name]()
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for passes in (8, 8, 3):
        got = random_smooth_values(mask, rng, passes=passes)
        want = _appending_smooth_values(mask, oracle_rng, passes=passes)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
