"""Full-grid, shift-based reference of the discrete operators and norms.

This is the straightforward form of every stencil: each difference shifts
a whole-grid array (`grid.shift`, zero fill) and coefficient arrays vanish
off their support. The library computes the same quantities on masked DOF
vectors through gather tables; test_masked_core.py checks that the two agree
bit for bit per node, and to rounding for sums. Nothing outside tests/ uses
this module.
"""

from itertools import product

import numpy as np

from convexcauchy.grid import shift
from convexcauchy.operators import _principal_matrix, _wave_coefficient


def _axis_shift(values, axis, step):
    off = [0] * values.ndim
    off[axis] = step
    return shift(values, off)


def d1(values, axis, h):
    return (_axis_shift(values, axis, 1) - _axis_shift(values, axis, -1)) / (2.0 * h)


def d2(values, axis, h):
    plus, minus = _axis_shift(values, axis, 1), _axis_shift(values, axis, -1)
    return (plus - 2.0 * values + minus) / (h * h)


def d2_mixed(values, ax_i, ax_j, hi, hj):
    out = np.zeros_like(values)
    for si in (1, -1):
        for sj in (1, -1):
            off = [0] * values.ndim
            off[ax_i] = si
            off[ax_j] = sj
            out += si * sj * shift(values, off)
    return out / (4.0 * hi * hj)


def spatial_gradient(values, grid, n_spatial):
    return np.stack([d1(values, j, grid.spacing[j]) for j in range(n_spatial)], axis=-1)


class StencilTerms:
    """Full-grid coefficient arrays of the principal part, zero off the core."""

    def __init__(self, op, mask):
        grid = mask.grid
        core = mask.is_core
        pts = grid.coords()
        self.second_pure, self.second_mixed, self.first = [], [], []
        if op.family in ("elliptic", "parabolic"):
            sgn = 1.0 if op.family == "elliptic" else -1.0
            coeff = np.zeros(grid.shape + (op.n_spatial, op.n_spatial))
            coeff[core] = _principal_matrix(op, pts[core])
            for i in range(op.n_spatial):
                arr = sgn * coeff[..., i, i]
                arr[~core] = 0.0
                self.second_pure.append((i, arr))
                for j in range(i + 1, op.n_spatial):
                    arr = 2.0 * sgn * coeff[..., i, j]
                    arr[~core] = 0.0
                    if np.any(arr):
                        self.second_mixed.append((i, j, arr))
            if op.family == "parabolic":
                self.first.append((grid.dim - 1, np.where(core, 1.0, 0.0)))
        else:
            a = np.zeros(grid.shape)
            a[core] = _wave_coefficient(op, pts[core])
            self.second_pure.append((grid.dim - 1, a))
            for j in range(op.n_spatial):
                self.second_pure.append((j, np.where(core, -1.0, 0.0)))


def principal(op, mask, values):
    terms, grid = StencilTerms(op, mask), mask.grid
    out = np.zeros(grid.shape)
    for axis, c in terms.second_pure:
        out += c * d2(values, axis, grid.spacing[axis])
    for ai, aj, c in terms.second_mixed:
        out += c * d2_mixed(values, ai, aj, grid.spacing[ai], grid.spacing[aj])
    for axis, c in terms.first:
        out += c * d1(values, axis, grid.spacing[axis])
    return out


def residual(op, mask, values):
    out = principal(op, mask, values)
    if op.lower is not None:
        core = mask.is_core
        pts = mask.grid.coords()[core]
        grad = spatial_gradient(values, mask.grid, op.n_spatial)[core]
        out[core] += op.lower_sign * op.lower.value(pts, grad, values[core])
    return out


class Linearized:
    """Shift-based forward and transpose of the linearization at `base`."""

    def __init__(self, op, mask, base):
        self.grid = mask.grid
        terms = StencilTerms(op, mask)
        self.second_pure = list(terms.second_pure)
        self.second_mixed = list(terms.second_mixed)
        self.first = list(terms.first)
        self.zeroth = None
        if op.lower is not None:
            core = mask.is_core
            pts = self.grid.coords()[core]
            grad = spatial_gradient(base, self.grid, op.n_spatial)[core]
            uvals = base[core]
            sgn = op.lower_sign
            dg = sgn * np.asarray(op.lower.d_grad(pts, grad, uvals), dtype=float)
            du = sgn * np.asarray(op.lower.d_u(pts, grad, uvals), dtype=float)
            for i in range(op.n_spatial):
                c = np.zeros(self.grid.shape)
                c[core] = dg[..., i]
                if np.any(c):
                    self.first.append((i, c))
            self.zeroth = np.zeros(self.grid.shape)
            self.zeroth[core] = du

    def _shift_terms(self):
        d = self.grid.dim
        for axis, c in self.second_pure:
            h2 = self.grid.spacing[axis] ** 2
            for s, w in ((1, 1.0), (0, -2.0), (-1, 1.0)):
                off = [0] * d
                off[axis] = s
                yield off, c, w / h2
        for ai, aj, c in self.second_mixed:
            denom = 4.0 * self.grid.spacing[ai] * self.grid.spacing[aj]
            for si in (1, -1):
                for sj in (1, -1):
                    off = [0] * d
                    off[ai] = si
                    off[aj] = sj
                    yield off, c, si * sj / denom
        for axis, c in self.first:
            h2 = 2.0 * self.grid.spacing[axis]
            for s, w in ((1, 1.0), (-1, -1.0)):
                off = [0] * d
                off[axis] = s
                yield off, c, w / h2
        if self.zeroth is not None:
            yield [0] * d, self.zeroth, 1.0

    def apply(self, values, adjoint=False):
        out = np.zeros(self.grid.shape)
        for off, c, w in self._shift_terms():
            if adjoint:
                out += w * shift(c * values, [-o for o in off])
            else:
                out += w * c * shift(values, off)
        return out


class Sobolev:
    """Shift-based H^k monomials, inner product and Gram action."""

    def __init__(self, space):
        self.space = space
        self.grid = space.grid

    def validity(self, beta):
        nodes = self.space.nodes
        valid = nodes.copy()
        for off in product(*[range(b + 1) for b in beta]):
            if any(off):
                valid &= shift(nodes, off, fill=False)
        return valid

    def _raw_diff(self, values, axis, step):
        return (_axis_shift(values, axis, step) - values) / self.grid.spacing[axis]

    def monomial(self, values, beta):
        out = values
        for axis, times in enumerate(beta):
            for _ in range(times):
                out = self._raw_diff(out, axis, 1)
        return np.where(self.validity(beta), out, 0.0)

    def monomial_t(self, values, beta):
        out = np.where(self.validity(beta), values, 0.0)
        for axis in reversed(range(len(beta))):
            for _ in range(beta[axis]):
                out = self._raw_diff(out, axis, -1)
        return out

    def inner(self, f, g):
        total = 0.0
        for beta in self.space.monomials:
            total += float(np.sum(self.monomial(f, beta) * self.monomial(g, beta)
                                  * self.space.weights))
        return total

    def gram(self, values):
        out = np.zeros(self.grid.shape)
        for beta in self.space.monomials:
            out += self.monomial_t(self.space.weights * self.monomial(values, beta), beta)
        return out


def functional_value(params, values):
    r = residual(params.op, params.mask, values)
    data_term = float(np.sum(r * r * params.data_weight))
    return data_term + params.beta * Sobolev(params.space).inner(values, values)


def euclidean_gradient(params, values):
    r = residual(params.op, params.mask, values)
    lin = Linearized(params.op, params.mask, values)
    g = 2.0 * lin.apply(params.data_weight * r, adjoint=True)
    g += 2.0 * params.beta * Sobolev(params.space).gram(values)
    g[params.mask.constrained] = 0.0
    return g


def smooth_values(mask, rng, passes=8):
    grid = mask.grid
    vals = rng.standard_normal(grid.shape)
    for _ in range(passes):
        vals[~mask.in_mask] = 0.0
        vals[mask.constrained] = 0.0
        for axis in range(grid.dim):
            plus = _axis_shift(vals, axis, 1)
            minus = _axis_shift(vals, axis, -1)
            vals = 0.5 * vals + 0.25 * (plus + minus)
    vals[~mask.in_mask] = 0.0
    vals[mask.constrained] = 0.0
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return vals
