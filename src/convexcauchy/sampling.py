"""Random admissible fields: smooth bumps, ball rescaling, start generation.

Draws are deterministic under a seeded Generator. Smoothing matters: raw
white noise has huge high-order differences, so each draw is averaged a few
times along every axis before use, keeping H^k norms moderate.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ConfigError
from .functional import FunctionalParams, data_extension
from .grid import DomainMask, shift
from .operators import Field


def random_smooth_values(mask: DomainMask, rng: np.random.Generator,
                         passes: int = 8) -> np.ndarray:
    """Smoothed unit-amplitude noise, zero-trace and supported on the mask.

    The constrained layers and the outside are re-zeroed inside the smoothing
    loop, so the draw decays smoothly toward them instead of being cut there;
    this keeps high-order difference norms moderate.
    """
    return mask.scatter(_smooth_dofs(mask, rng, passes))


def _smooth_dofs(mask: DomainMask, rng: np.random.Generator, passes: int = 8) -> np.ndarray:
    """random_smooth_values as a DOF vector, computed on the mask's halo.

    The noise is drawn on the whole grid so that the generator advances as it
    always has; each pass smooths along every axis in turn, which the halo
    holds exactly (see Halo).
    """
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


def draw_in_ball(params: FunctionalParams, radius: float, rng: np.random.Generator,
                 base: Field | None = None, fraction_range=(0.3, 0.9)) -> Field:
    """Base field plus a smooth zero-trace bump, rescaled inside the H^k ball.

    The target norm is a random fraction of the radius; the base field (a
    smooth extension of the Cauchy data unless given) must itself fit inside
    the ball.
    """
    if base is None:
        base = data_extension(params.space, params.data)
    mask = params.mask
    b = mask.gather(base.values)
    base_norm = params.space.dof_norm(b)
    if base_norm >= radius:
        raise ConfigError(
            f"ball radius {radius} is smaller than the data extension norm {base_norm:.4g}"
        )
    bump = _smooth_dofs(mask, rng)
    bump_norm = params.space.dof_norm(bump)
    target = rng.uniform(*fraction_range) * radius
    # triangle inequality keeps the draw strictly inside the ball
    amount = min(max(target - base_norm, 0.05 * radius), 0.95 * (radius - base_norm))
    vals = b + (amount / max(bump_norm, 1e-30)) * bump
    return Field(mask.grid, mask.scatter(params.impose_dofs(vals)))


def random_compact_bump(mask: DomainMask, rng: np.random.Generator,
                        width_cells: float = 1.5) -> Field:
    """Gaussian bump centered at a random deep-core node, cut to compact support."""
    eroded = mask.is_core.copy()
    for off in product((-1, 0, 1), repeat=mask.grid.dim):
        if any(off):
            eroded &= shift(mask.is_core, off, fill=False)
    # keep one more cell of clearance so the Gaussian tail cut stays small
    deep = eroded.copy()
    for off in product((-1, 0, 1), repeat=mask.grid.dim):
        if any(off):
            deep &= shift(eroded, off, fill=False)
    candidates = np.argwhere(deep if np.any(deep) else eroded)
    if candidates.size == 0:
        raise ConfigError("mask has no compactly supported core region for bumps")
    center_idx = candidates[rng.integers(len(candidates))]
    coords = mask.grid.coords()
    center = np.array(
        [mask.grid.origin[j] + center_idx[j] * mask.grid.spacing[j] for j in range(mask.grid.dim)]
    )
    widths = width_cells * np.asarray(mask.grid.spacing)
    dist_sq = np.sum(((coords - center) / widths) ** 2, axis=-1)
    vals = np.exp(-dist_sq)
    vals[~eroded] = 0.0
    return Field(mask.grid, vals)
