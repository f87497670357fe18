"""Discrete H^k inner products, the Cauchy-trace constraint, and Riesz solves.

The inner product sums, over all mixed forward-difference monomials of total
order <= k with unit weights,

    [f, g] = sum_beta sum_nodes D^beta f * D^beta g * quad_weight,

where a forward difference contributes only where both stencil endpoints are
masked. The order-zero monomial alone makes the Gram map positive definite on
mask-supported fields, so the constrained Gram (trace layers removed) is SPD
and conjugate gradients apply.

The Cauchy pair (trace value and normal derivative) is encoded by fixing two
node layers: the data face itself and the first layer inward, which pins the
one-sided first difference across the face.
"""

from __future__ import annotations

import logging
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, GeometryError, IndefiniteGramError, SolverError
from .grid import DomainMask, axis_offset, neighbor_table, shift
from .operators import Field

logger = logging.getLogger(__name__)


def sobolev_order(dim: int) -> int:
    """Smallest order embedding into C^1 on a dim-dimensional domain: floor(dim/2) + 2."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    return dim // 2 + 2


def difference_monomials(dim: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices beta with |beta| <= order, in deterministic order."""
    out = [b for b in product(range(order + 1), repeat=dim) if sum(b) <= order]
    out.sort(key=lambda b: (sum(b), b))
    return out


def spd_factorized(matrix: sp.spmatrix):
    """Solve callable of a sparse LU tuned for symmetric positive definite matrices.

    A minimum-degree ordering of A^T + A with symmetric mode and no partial
    pivoting keeps the symmetric structure, which cuts fill and factorization
    time against SuperLU's unsymmetric default (COLAMD).
    """
    lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return lu.solve


class SobolevSpace:
    """H^order inner product over a node subset of a domain mask.

    By default the subset is every masked node and the order follows
    sobolev_order(grid dim). A restricted subset (e.g. the inner subdomain)
    yields the corresponding local norm; it must lie inside the mask.

    The `dof_*` methods act on masked DOF vectors (see DomainMask); the
    others take full-grid fields. Every monomial is a chain of first
    differences (v[p + e] - v[p]) / h taken through gather tables, never a
    precombined multi-axis stencil: for smooth fields the nested differences
    are nearly exact in floating point, and a summed stencil is not.
    """

    def __init__(self, mask: DomainMask, order: int | None = None,
                 node_subset: np.ndarray | None = None):
        self.mask = mask
        self.grid = mask.grid
        self.order = sobolev_order(self.grid.dim) if order is None else int(order)
        if self.order < 1:
            raise ConfigError(f"Sobolev order must be >= 1, got {self.order}")
        self.nodes = mask.in_mask if node_subset is None else np.asarray(node_subset, bool)
        if not np.any(self.nodes):
            raise GeometryError("Sobolev space over an empty node set")
        if np.any(self.nodes & ~mask.in_mask):
            raise ConfigError("Sobolev node subset reaches outside the mask")
        self.weights = np.where(self.nodes, mask.quad_weight, 0.0)
        self.monomials = difference_monomials(self.grid.dim, self.order)
        self.free_index = np.flatnonzero(mask.free.ravel())
        self._constrained_index = np.flatnonzero(mask.constrained.ravel())
        self._gram_matrix = None
        self._free_matrix = None
        self._free_solve = None
        self.last_riesz_history: list[float] = []

        # a monomial contributes at p only when its whole forward stencil box
        # sits inside the node set; composed differences are raw otherwise
        inside = mask.in_mask
        self._dof_weights = self.weights[inside]
        self._dof_valid = [self._box(beta)[inside] for beta in self.monomials]
        self._forward = [neighbor_table(inside, axis_offset(self.grid.dim, a))
                         for a in range(self.grid.dim)]
        self._backward = [neighbor_table(inside, axis_offset(self.grid.dim, a, -1))
                          for a in range(self.grid.dim)]
        # D^beta = D_a D^parent with a the last axis beta differences along;
        # monomials are sorted by order, so the parent always comes first
        self._chain = []
        for beta in self.monomials:
            if not any(beta):
                self._chain.append((None, None))
                continue
            axis = max(a for a, b in enumerate(beta) if b)
            parent = list(beta)
            parent[axis] -= 1
            self._chain.append((self.monomials.index(tuple(parent)), axis))

    def _box(self, beta: tuple[int, ...]) -> np.ndarray:
        valid = self.nodes.copy()
        for off in product(*[range(b + 1) for b in beta]):
            if any(off):
                valid &= shift(self.nodes, off, fill=False)
        return valid

    def monomial_validity(self, beta: tuple[int, ...]) -> np.ndarray:
        """Full-grid nodes where the monomial's whole stencil box is in the node set."""
        out = np.zeros(self.grid.shape, dtype=bool)
        out.ravel()[self.mask.dofs] = self._dof_valid[self.monomials.index(beta)]
        return out

    # -- masked DOF vectors ----------------------------------------------------

    def dof_differences(self, v: np.ndarray) -> list[np.ndarray]:
        """Forward-difference monomials of a DOF vector, in `monomials` order,
        zeroed where the stencil box leaves the node set."""
        raw, out = [], []
        for (parent, axis), valid in zip(self._chain, self._dof_valid):
            if parent is None:
                d = v
            else:
                prev = raw[parent]
                d = (np.append(prev, 0.0)[self._forward[axis]] - prev) / self.grid.spacing[axis]
            raw.append(d)
            out.append(np.where(valid, d, 0.0))
        return out

    def dof_inner(self, v: np.ndarray, w: np.ndarray) -> float:
        dv = self.dof_differences(v)
        dw = dv if w is v else self.dof_differences(w)
        total = 0.0
        for a, b in zip(dv, dw):
            total += float(np.sum(a * b * self._dof_weights))
        return total

    def dof_norm_sq(self, v: np.ndarray) -> float:
        return self.dof_inner(v, v)

    def dof_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(self.dof_norm_sq(v), 0.0)))

    def dof_gram(self, v: np.ndarray) -> np.ndarray:
        """Gram action sum_beta (D^beta)^T (w . D^beta v) on a DOF vector."""
        out = np.zeros(v.size)
        for beta, d in zip(self.monomials, self.dof_differences(v)):
            x = self._dof_weights * d
            for axis in reversed(range(self.grid.dim)):
                h = self.grid.spacing[axis]
                for _ in range(beta[axis]):
                    x = (np.append(x, 0.0)[self._backward[axis]] - x) / h
            out += x
        return out

    # -- full-grid fields --------------------------------------------------------

    def inner_product(self, f: Field, g: Field) -> float:
        if f.grid != self.grid or g.grid != self.grid:
            raise ConfigError("fields live on a different grid than the space")
        v = self.mask.gather(f.values)
        return self.dof_inner(v, v if g is f else self.mask.gather(g.values))

    def norm_sq(self, f: Field) -> float:
        return self.inner_product(f, f)

    def norm(self, f: Field) -> float:
        return float(np.sqrt(max(self.norm_sq(f), 0.0)))

    def apply_gram(self, values: np.ndarray) -> np.ndarray:
        """Gram action on a full-grid array; zero outside the mask."""
        return self.mask.scatter(self.dof_gram(self.mask.gather(values)))

    def gram_matrix(self) -> sp.csr_matrix:
        """Sparse Gram matrix over flat node indices (assembled once)."""
        if self._gram_matrix is None:
            n = self.grid.node_count
            idx = np.arange(n).reshape(self.grid.shape)
            atoms = []
            for axis in range(self.grid.dim):
                target = shift(idx, axis_offset(self.grid.dim, axis), fill=-1)
                ok = target >= 0
                rows = idx.ravel()
                h = self.grid.spacing[axis]
                mat = sp.coo_matrix(
                    (
                        np.concatenate([np.full(n, -1.0 / h), np.full(ok.sum(), 1.0 / h)]),
                        (
                            np.concatenate([rows, idx[ok]]),
                            np.concatenate([rows, target[ok]]),
                        ),
                    ),
                    shape=(n, n),
                ).tocsr()
                atoms.append(mat)
            gram = sp.csr_matrix((n, n))
            for beta in self.monomials:
                bmat = sp.identity(n, format="csr")
                for axis, times in enumerate(beta):
                    for _ in range(times):
                        bmat = atoms[axis] @ bmat
                qmat = sp.diags((self.weights * self.monomial_validity(beta)).ravel())
                gram = gram + bmat.T @ qmat @ bmat
            self._gram_matrix = gram.tocsr()
        return self._gram_matrix

    # -- constrained (zero-trace) system ---------------------------------------

    def constrained_gram(self) -> sp.csc_matrix:
        if self._free_matrix is None:
            free = self.free_index
            self._free_matrix = self.gram_matrix()[free][:, free].tocsc()
        return self._free_matrix

    def constrained_solver(self):
        if self._free_solve is None:
            self._free_solve = spd_factorized(self.constrained_gram())
        return self._free_solve


def zero_trace_project(space: SobolevSpace, f: Field) -> Field:
    """Zero the Cauchy-constrained degrees of freedom (both trace layers)."""
    out = f.values.copy()
    out[space.mask.constrained] = 0.0
    return Field(space.grid, out)


def riesz_solve(space: SobolevSpace, rhs: Field, tol: float = 1e-10,
                max_iters: int = 500, precondition: bool = True) -> Field:
    """Solve gram(g) = rhs on the zero-trace subspace by preconditioned CG.

    The returned g satisfies [g, h] = <rhs, h> (Euclidean pairing) for every
    zero-trace field h, up to the relative residual tolerance. The rhs must
    already be trace-projected. Non-convergence raises SolverError with the
    residual history attached; negative curvature raises IndefiniteGramError.
    """
    if tol <= 0:
        raise ConfigError(f"riesz tolerance must be positive, got {tol}")
    if np.any(rhs.values.ravel()[space._constrained_index] != 0.0):
        raise ConfigError("riesz_solve rhs is not zero-trace projected")

    free = space.free_index
    b = rhs.values.ravel()[free]
    bnorm = float(np.linalg.norm(b))
    out = np.zeros(space.grid.shape)
    if bnorm == 0.0:
        return Field(space.grid, out)

    amat = space.constrained_gram()
    msolve = space.constrained_solver() if precondition else (lambda r: r)

    x = np.zeros_like(b)
    r = b.copy()
    z = msolve(r)
    p = z.copy()
    rz = float(r @ z)
    history = [1.0]
    for _ in range(max_iters):
        ap = amat @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteGramError(
                f"negative curvature in Gram solve (p^T A p = {pap:.3g}); "
                "the discrete inner product is not positive definite"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r)) / bnorm
        history.append(rel)
        if rel <= tol:
            out.ravel()[free] = x
            space.last_riesz_history = history
            logger.debug("riesz solve converged in %d iterations (rel %.3g)", len(history) - 1, rel)
            return Field(space.grid, out)
        z = msolve(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    err = SolverError(
        f"Gram CG did not reach tol={tol:.3g} within {max_iters} iterations "
        f"(last relative residual {history[-1]:.3g})"
    )
    err.residual_history = history
    raise err
