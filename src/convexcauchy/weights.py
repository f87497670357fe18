"""Carleman weight evaluation in overflow-safe shifted form.

The weight is built from the mask's own level function ell, threshold theta
and margin eps, so its strength lam is its only free parameter. The raw
weight is exp(lam * ell(p)); the functional multiplies its square by the
balancing prefactor exp(-2 lam (theta + eps)). Both are fused here into a
single quantity

    mask_weight_sq(p) = exp(2 lam (ell(p) - theta - eps)),

which avoids overflowing the square before the prefactor underflows it.
On the free level surface (ell = theta) this equals exp(-2 lam eps) < 1;
at ell = theta + eps it is exactly 1.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, GeometryError, WeightOverflowError
from .grid import DomainMask, Label

# exp() overflows float64 just above this exponent
_MAX_EXPONENT = 700.0


def mask_weight_sq(mask: DomainMask, lam: float,
                   nodes: np.ndarray | None = None) -> np.ndarray:
    """The fused squared weight at strength lam: on every node, zero outside
    the mask, or on the masked node set `nodes` (DOF positions, or a boolean
    array over the grid; see DomainMask.positions). lam must be a finite
    number >= 1; the overflow check covers every masked node either way."""
    if not (np.isfinite(lam) and lam >= 1.0):
        raise ConfigError(f"weight strength lambda must be a finite number >= 1, got {lam}")
    ell = mask.dof_ell
    expo = 2.0 * lam * (ell - mask.theta - mask.epsilon)
    if np.any(expo > _MAX_EXPONENT):
        raise WeightOverflowError(lam, float(np.max(ell)), float(np.max(expo)))
    if nodes is None:
        return mask.scatter(np.exp(expo))
    return np.exp(expo[mask.positions(nodes)])


def weight_extrema(mask: DomainMask, lam: float) -> tuple[float, float, Label]:
    """Min and max of the unshifted log-weight lam * ell over masked nodes.

    Also reports which label the minimizing node carries; for a level function
    decreasing toward the free surface the minimum sits on xi_boundary nodes.
    """
    if not mask.dofs.size:
        raise GeometryError("weight extrema of an empty mask")
    vals = lam * mask.dof_ell
    argmin_label = Label(int(mask.dof_label[np.argmin(vals)]))
    return float(np.min(vals)), float(np.max(vals)), argmin_label
