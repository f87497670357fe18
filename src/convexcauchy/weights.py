"""Carleman weight evaluation in overflow-safe shifted form.

The raw weight is exp(lam * ell(p)) with level function ell; the functional
multiplies its square by the balancing prefactor exp(-2 lam (theta + eps)).
Both are fused here into a single quantity

    shifted_weight_sq(p) = exp(2 lam (ell(p) - theta - eps)),

which avoids overflowing the square before the prefactor underflows it.
On the free level surface (ell = theta) this equals exp(-2 lam eps) < 1;
at ell = theta + eps it is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, WeightOverflowError
from .grid import DomainMask, Label, LevelSpec, level_values

# exp() overflows float64 just above this exponent
_MAX_EXPONENT = 700.0


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Carleman weight parameters: a level spec plus the strength lam."""

    level: LevelSpec
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 1.0):
            raise ConfigError(f"weight strength lambda must be a finite number >= 1, "
                              f"got {self.lam}")
        if self.level.epsilon is None:
            raise ConfigError(
                "WeightSpec needs a level spec with resolved epsilon; "
                "classify the grid first and use mask.level"
            )


def shifted_exponent(spec: WeightSpec, points: np.ndarray) -> np.ndarray:
    """The fused exponent 2 lam (ell - theta - eps), checked against overflow."""
    ell = level_values(spec.level, points)
    expo = 2.0 * spec.lam * (ell - spec.level.threshold - spec.level.epsilon)
    if np.any(expo > _MAX_EXPONENT):
        raise WeightOverflowError(spec.lam, float(np.max(ell)), float(np.max(expo)))
    return expo


def shifted_weight_sq(spec: WeightSpec, point) -> float | np.ndarray:
    """Squared Carleman weight with the balancing prefactor absorbed.

    Accepts a single point (returns float) or an array of points with the
    coordinate axis last.
    """
    pts = np.asarray(point, dtype=float)
    out = np.exp(shifted_exponent(spec, pts))
    if pts.ndim == 1:
        return float(out)
    return out


def mask_weight_sq(spec: WeightSpec, mask: DomainMask) -> np.ndarray:
    """shifted_weight_sq on every masked node; zero outside the mask."""
    expo = 2.0 * spec.lam * (mask.ell - spec.level.threshold - spec.level.epsilon)
    inside = expo[mask.in_mask]
    if np.any(inside > _MAX_EXPONENT):
        raise WeightOverflowError(
            spec.lam, float(np.max(mask.ell[mask.in_mask])), float(np.max(inside))
        )
    out = np.zeros(mask.grid.shape, dtype=float)
    out[mask.in_mask] = np.exp(inside)
    return out


def weight_extrema(spec: WeightSpec, mask: DomainMask) -> tuple[float, float, Label]:
    """Min and max of the unshifted log-weight lam * ell over masked nodes.

    Also reports which label the minimizing node carries; for a level function
    decreasing toward the free surface the minimum sits on xi_boundary nodes.
    """
    if not np.any(mask.in_mask):
        raise GeometryError("weight extrema of an empty mask")
    logw = spec.lam * mask.ell
    flat = np.flatnonzero(mask.in_mask.ravel())
    vals = logw.ravel()[flat]
    i_min = flat[int(np.argmin(vals))]
    argmin_label = Label(int(mask.label.ravel()[i_min]))
    return float(np.min(vals)), float(np.max(vals)), argmin_label
