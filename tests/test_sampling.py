"""random_smooth_values, one sparse product per axis over the DOFs, against
its appending form, which gathers the +-1 neighbours of every axis from the
DOF vector extended by one zero slot with np.append, the value of every
neighbour off the mask: on the same free-DOF normals the draws must be equal
bit for bit, one draw at a time or a stack of draws at once, and a draw's
normals must take the generator's stream as one normal per free DOF does, so
that every certificate sample and margin stays the same."""

import numpy as np
import pytest

from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.harness import build_setup
from convexcauchy.functional import data_extension
from convexcauchy.sampling import BALL_FRACTIONS, draw_in_ball, random_smooth_values


def _axis_tables(mask, axis):
    """The mask's +1 and -1 step tables of `axis`, without the sentinel's own entry."""
    return tuple(table[:-1] for table in mask.steps[axis])


def _appending_smooth_values(mask, rng, passes=8):
    """random_smooth_values in appending form: one normal per free DOF, and
    each axis step 0.5 v + 0.25 (v[+] + v[-]) with a neighbour off the mask
    read from the appended zero slot."""
    tables = [_axis_tables(mask, axis) for axis in range(mask.grid.dim)]
    vals = np.zeros(mask.dofs.size)
    vals[mask.free_pos] = rng.standard_normal(mask.free_pos.size)
    for _ in range(passes):
        vals[mask.trace_pos] = 0.0
        for plus, minus in tables:
            ext = np.append(vals, 0.0)
            vals = 0.5 * vals + 0.25 * (ext[plus] + ext[minus])
    vals[mask.trace_pos] = 0.0
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return vals


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
def test_smoothing_rows_at_the_bounding_box(name):
    """On these masks the DOFs reach both end faces of an axis, so smoothing
    rows without a + entry and rows without a - entry sit on the grid's
    faces, where no neighbour exists at all."""
    mask = MASKS[name]()
    along = np.unravel_index(mask.dofs, mask.grid.shape)[1]
    assert along.min() == 0 and along.max() == mask.grid.shape[1] - 1
    plus, minus = _axis_tables(mask, 1)
    n = mask.dofs.size
    assert np.all(plus[along == along.max()] == n) and np.all(minus[along == 0] == n)
    rows = mask.smoothing[1]
    assert np.all(np.diff(rows.indptr)[along == 0] <= 2)
    assert np.all(np.diff(rows.indptr)[along == along.max()] <= 2)


@pytest.mark.parametrize("name", MASKS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_draw_matches_appending_form(name, seed):
    """A one-draw stack of (free DOFs, 1) normals is the appending form's
    draw of one normal per free DOF, and leaves the generator where it does."""
    mask = MASKS[name]()
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for passes in (8, 8, 3):
        normals = rng.standard_normal((mask.free_pos.size, 1))
        got = random_smooth_values(mask, normals, passes=passes)
        want = _appending_smooth_values(mask, oracle_rng, passes=passes)
        assert got.shape == (1, mask.dofs.size) and np.array_equal(got[0], want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("name", MASKS)
def test_stacked_columns_match_appending_form(name):
    """A (free DOFs, draws) array of normals smooths column by column: row
    k of the stack is the appending form of draw k, bit for bit."""
    mask = MASKS[name]()
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    noise = np.stack([rng.standard_normal(mask.free_pos.size) for _ in range(4)], axis=1)
    got = random_smooth_values(mask, noise)
    assert got.shape == (4, mask.dofs.size) and got.flags.c_contiguous
    for row in got:
        assert np.array_equal(row, _appending_smooth_values(mask, oracle_rng))


@pytest.fixture(scope="module")
def ell2d():
    """ELL2D-CUBIC's params, its data extension b and b's H^k norm."""
    params = build_setup({"case": "ELL2D-CUBIC"}).params
    base = data_extension(params.space, params.data)
    return params, base, params.space.norm(base)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_batch_does_not_change_the_stream(ell2d, seed):
    """Row k of a k-draw stack equals a one-draw stack taken after the k
    draws before it, and both leave the generator in the same state."""
    params, base, base_norm = ell2d
    rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = draw_in_ball(params, 5.0, rng, base, base_norm, 4)
    assert batch.shape == (4, params.mask.dofs.size)
    for row in batch:
        (single,) = draw_in_ball(params, 5.0, single_rng, base, base_norm, 1)
        assert np.array_equal(row, single)
    assert rng.bit_generator.state == single_rng.bit_generator.state


def test_draw_hits_its_target_norm(ell2d):
    """Each draw takes its free-DOF normals and then its target norm; where
    neither the floor nor the cap binds, the draw's H^k norm is the target,
    since b is H^k-orthogonal to the zero-trace bump."""
    params, base, base_norm = ell2d
    radius, slots = 5.0, params.mask.free_pos.size
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    for u in draw_in_ball(params, radius, rng, base, base_norm, 6):
        replay.standard_normal(slots)
        target = replay.uniform(*BALL_FRACTIONS) * radius
        length = np.sqrt(target**2 - base_norm**2)
        assert 0.05 * radius < length < 0.95 * np.sqrt(radius**2 - base_norm**2)
        assert params.space.norm(u) == pytest.approx(target, rel=1e-10)


def test_ball_cap_binds(ell2d):
    """At R = 1.001 ||b|| the room sqrt(R^2 - ||b||^2) is under the 0.05 R
    floor, so every bump gets the capped length 0.95 * room and every draw
    lies strictly inside the ball."""
    params, base, base_norm = ell2d
    radius = 1.001 * base_norm
    room = np.sqrt(radius**2 - base_norm**2)
    for u in draw_in_ball(params, radius, np.random.default_rng(1), base, base_norm, 4):
        assert params.space.norm(u) < radius
        assert params.space.norm(u - base) == pytest.approx(0.95 * room, rel=1e-10)
