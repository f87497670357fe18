"""Random admissible fields: smooth draws, draws inside an H^k ball, compact bumps.

Every field here is a masked DOF vector (see grid.DomainMask), and draws come
as stacks: a (draws, DOFs) array, one draw per row. A draw starts from one
standard normal per free DOF, so it costs in proportion to the mask, not to
the bounding grid, and it is deterministic under a seeded Generator. Smoothing
matters: raw white noise has huge high-order differences, so each draw is
averaged a few times along every axis over the DOFs before use, with a
neighbour off the mask read as 0, keeping H^k norms moderate. A stack is
smoothed and normed as one array, with each row bit for bit the draw of its
normals alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .functional import FunctionalParams
from .grid import DomainMask

BALL_FRACTIONS = (0.3, 0.9)  # range of a draw's target norm, as fractions of the radius
BUMP_WIDTH_CELLS = 1.5  # width of a compact bump's Gaussian, in grid cells


def random_smooth_values(mask: DomainMask, normals: np.ndarray, passes: int = 8) -> np.ndarray:
    """Smoothed unit-amplitude noise, zero on the trace layers.

    `normals` holds the free-DOF standard normals of the draws, one per
    column of a (free DOFs, draws) array; the smoothed draws come back as the
    rows of a (draws, DOFs) stack, each row bit for bit the draw of its
    column alone. The trace layers are re-zeroed at the start of every pass,
    so the draw decays smoothly toward them instead of being cut there; this
    keeps high-order difference norms moderate. Each pass smooths along
    every axis in turn, one sparse product per axis over the DOFs (see
    DomainMask.smoothing).
    """
    vals = np.zeros((mask.dofs.size, normals.shape[1]))
    vals[mask.free_pos] = normals
    for _ in range(passes):
        vals[mask.trace_pos] = 0.0
        for smooth in mask.smoothing:
            vals = smooth @ vals
    vals[mask.trace_pos] = 0.0
    vals = np.ascontiguousarray(vals.T)
    peak = np.max(np.abs(vals), axis=1, keepdims=True)
    vals /= np.where(peak > 0, peak, 1.0)
    return vals


def draw_in_ball(params: FunctionalParams, radius: float, rng: np.random.Generator,
                 base: np.ndarray, base_norm: float, draws: int) -> np.ndarray:
    """A (draws, DOFs) stack of fields inside the H^k ball: each row the base
    field plus a smooth zero-trace bump.

    The base (the caller's extension of the Cauchy data) must itself fit
    inside the ball, and base_norm is its H^k norm. The target norm is a
    random fraction of the radius. The base is H^k-orthogonal to zero-trace
    fields, so a bump of H^k length s gives a draw of norm
    sqrt(||base||^2 + s^2): s is chosen to hit the target, kept at least
    0.05 * radius and at most 0.95 of the room sqrt(radius^2 - ||base||^2),
    which keeps the draw strictly inside the ball. Lengths are computed in
    units of the radius, so no square overflows however large the radius.

    The draws are smoothed and normed together. Each takes its free-DOF
    normals and then its target from rng, so row k is bit for bit the
    one-draw stack taken after the k draws before it.
    """
    if base_norm >= radius:
        raise ConfigError(
            f"ball radius {radius} is smaller than the data extension norm {base_norm:.4g}"
        )
    free = params.mask.free_pos.size
    noise = np.empty((free, draws))
    targets = np.empty(draws)  # in units of the radius
    for k in range(draws):
        noise[:, k] = rng.standard_normal(free)
        targets[k] = rng.uniform(*BALL_FRACTIONS)
    bumps = random_smooth_values(params.mask, noise)
    base_frac = base_norm / radius
    length = radius * np.minimum(np.maximum(np.sqrt(np.maximum(targets**2 - base_frac**2, 0.0)),
                                            0.05),
                                 0.95 * np.sqrt(1.0 - base_frac**2))
    bump_norm = np.sqrt(params.space.norm_sq(bumps))
    out = base + (length / np.maximum(bump_norm, 1e-30))[:, None] * bumps
    for row in out:
        params.impose_dofs(row)
    return out


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
