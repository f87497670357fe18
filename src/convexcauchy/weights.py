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

from .errors import ConfigError, GeometryError, finite
from .grid import DomainMask, Label


def mask_weight_sq(mask: DomainMask, lam: float, pos: np.ndarray) -> np.ndarray:
    """The fused squared weight at strength lam on the DOFs at positions
    `pos`. lam must be a finite number >= 1; the float-range check covers
    every masked node."""
    if not (np.isfinite(lam) and lam >= 1.0):
        raise ConfigError(f"weight strength lambda must be a finite number >= 1, got {lam}")
    ell = mask.dof_ell
    with np.errstate(all="ignore"):
        expo = 2.0 * lam * (ell - mask.theta - mask.epsilon)
        weight = np.exp(expo)
    finite(weight, f"Carleman weight at lambda={lam:.6g}", lambda: (
        f"level value {np.max(ell):.6g}, exponent {np.max(expo):.3g}; reduce lambda"))
    return weight[pos]

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
