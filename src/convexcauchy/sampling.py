"""Random admissible fields: smooth bumps, ball rescaling, start generation.

Every field here is a masked DOF vector (see grid.DomainMask). Draws are
deterministic under a seeded Generator. Smoothing matters: raw white noise
has huge high-order differences, so each draw is averaged a few times along
every axis before use, keeping H^k norms moderate.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .functional import FunctionalParams, data_extension
from .grid import DomainMask

BALL_FRACTIONS = (0.3, 0.9)  # range of a draw's target norm, as fractions of the radius
BUMP_WIDTH_CELLS = 1.5  # width of a compact bump's Gaussian, in grid cells


def random_smooth_values(mask: DomainMask, rng: np.random.Generator,
                         passes: int = 8) -> np.ndarray:
    """Smoothed unit-amplitude noise, zero on the trace layers.

    The constrained layers and the outside are re-zeroed inside the smoothing
    loop, so the draw decays smoothly toward them instead of being cut there;
    this keeps high-order difference norms moderate. The noise is drawn on
    the whole grid, so the generator advances by one value per grid node;
    each pass smooths along every axis in turn, which the mask's halo holds
    exactly (see Halo).
    """
    halo = mask.halo
    buf = np.zeros(halo.index.size + 1)  # the last slot is the tables' zero sentinel
    vals = buf[:-1]
    vals[:] = rng.standard_normal(mask.grid.shape).ravel()[halo.index]
    for _ in range(passes):
        vals[~halo.free] = 0.0
        for plus, minus in halo.tables:
            vals[:] = 0.5 * vals + 0.25 * (buf[plus] + buf[minus])
    vals[~halo.free] = 0.0
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return vals[halo.dof_pos]


def draw_in_ball(params: FunctionalParams, radius: float, rng: np.random.Generator,
                 base: np.ndarray | None = None, base_norm: float | None = None) -> np.ndarray:
    """Base field plus a smooth zero-trace bump, rescaled inside the H^k ball.

    The target norm is a random fraction of the radius; the base field (a
    smooth extension of the Cauchy data unless given) must itself fit inside
    the ball. A caller drawing many times around one base passes its H^k
    norm as base_norm.
    """
    if base is None:
        base = data_extension(params.space, params.data)
    if base_norm is None:
        base_norm = params.space.norm(base)
    if base_norm >= radius:
        raise ConfigError(
            f"ball radius {radius} is smaller than the data extension norm {base_norm:.4g}"
        )
    bump = random_smooth_values(params.mask, rng)
    bump_norm = params.space.norm(bump)
    target = rng.uniform(*BALL_FRACTIONS) * radius
    # triangle inequality keeps the draw strictly inside the ball
    amount = min(max(target - base_norm, 0.05 * radius), 0.95 * (radius - base_norm))
    return params.impose_dofs(base + (amount / max(bump_norm, 1e-30)) * bump)


def random_compact_bump(mask: DomainMask, rng: np.random.Generator) -> np.ndarray:
    """Gaussian bump centered at a random deep-core node, cut to compact support."""
    eroded = mask.erode(mask.core_pos)
    # keep one more cell of clearance so the Gaussian tail cut stays small
    deep = mask.erode(eroded)
    candidates = deep if deep.size else eroded
    if candidates.size == 0:
        raise ConfigError("mask has no compactly supported core region for bumps")
    grid = mask.grid
    center_idx = np.unravel_index(mask.dofs[candidates[rng.integers(len(candidates))]],
                                  grid.shape)
    center = np.array(
        [grid.origin[j] + center_idx[j] * grid.spacing[j] for j in range(grid.dim)]
    )
    widths = BUMP_WIDTH_CELLS * np.asarray(grid.spacing)
    dist_sq = np.sum(((grid.coords(mask.dofs) - center) / widths) ** 2, axis=-1)
    vals = np.zeros(mask.dofs.size)
    vals[eroded] = np.exp(-dist_sq[eroded])
    return vals
