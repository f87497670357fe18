"""Discrete H^k inner products, the Cauchy-trace constraint, and Riesz solves.

The inner product sums, over all mixed forward-difference monomials of total
order <= k with unit weights,

    [f, g] = sum_beta sum_nodes D^beta f * D^beta g * quad_weight,

where a forward difference contributes only where both stencil endpoints are
masked. The order-zero monomial alone makes the Gram map positive definite on
mask-supported fields, so the constrained Gram (trace layers removed) is SPD,
and a Riesz solve is one solve with its sparse factorization.

The Cauchy pair (trace value and normal derivative) is encoded by fixing two
node layers: the data face itself and the first layer inward, which pins the
one-sided first difference across the face.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, GeometryError, SolverError
from .grid import DomainMask, axis_offset, flat_strides, inverse_table


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


def _splu(matrix: sp.csc_matrix):
    """Sparse LU tuned for symmetric positive definite matrices.

    A minimum-degree ordering of A^T + A with symmetric mode and no partial
    pivoting keeps the symmetric structure, which cuts fill and factorization
    time against SuperLU's unsymmetric default (COLAMD).
    """
    try:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SolverError(f"sparse factorization of the {matrix.shape[0]} x {matrix.shape[1]} "
                          f"system failed: {exc}") from exc


def spd_factorized(matrix: sp.spmatrix):
    """Solve callable of the float64 SPD sparse LU (see _splu); a singular
    factor raises SolverError."""
    return _splu(matrix.tocsc()).solve


# mixed-precision solve: CG stops at this relative residual within this many
# iterations, and the true float64 residual must then pass the backward-error
# test at the same tolerance
REFINE_TOL = 1e-14
REFINE_MAX_ITERS = 20
# SobolevSpace.solve refines a float32 factor (spd_solve) on grids with at
# least this many axes, unless it reuses the space's float64 factor of G_ff;
# in 2-D the H^k Gram's conditioning (h^-2k) leaves a float32 factor no gain
MIXED_PRECISION_DIM = 3


class SpdSolve(NamedTuple):
    x: np.ndarray
    factorizations: int  # 1, or 2 after a fall back to the float64 factor
    refinements: int  # CG iterations on the float32 factor


def spd_solve(matrix: sp.spmatrix, rhs: np.ndarray, mixed: bool = True) -> SpdSolve:
    """Solve the SPD system matrix @ x = rhs by mixed-precision refinement.

    The matrix is factorized in float32 (about a third faster than float64
    on 3-D systems), and a float64 conjugate-gradient iteration
    preconditioned by that factor brings the solution to float64 accuracy,
    typically in 3-8 iterations. The result x is accepted only when its true
    float64 residual passes the backward-error test

        ||rhs - A x|| <= REFINE_TOL * (max_i A_ii ||x|| + ||rhs||).

    For SPD A the largest diagonal entry is at most ||A||_2, so the test is
    no looser than a normwise backward error of REFINE_TOL, and it needs no
    copy of A. Every x within REFINE_TOL of rhs in relative residual passes
    it, and so does a badly scaled A where even its float64 factor misses
    the relative test. A float32 cast that is not finite, a singular float32
    factor, CG that misses REFINE_TOL within REFINE_MAX_ITERS, an iterate
    that is not finite, or a failed residual check fall back to
    spd_factorized, whose solution is returned bit for bit; so does
    mixed=False, without the float32 attempt.
    """
    matrix = matrix.tocsc()
    if not mixed:
        return SpdSolve(spd_factorized(matrix)(rhs), 1, 0)
    x, iterations = _refine(matrix, rhs)
    if x is not None and (np.linalg.norm(rhs - matrix @ x) <= REFINE_TOL * (
            matrix.diagonal().max(initial=0.0) * np.linalg.norm(x) + np.linalg.norm(rhs))):
        return SpdSolve(x, 1, iterations)
    return SpdSolve(spd_factorized(matrix)(rhs), 2, iterations)


def _refine(matrix: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray | None, int]:
    """CG on matrix @ x = rhs preconditioned by its float32 LU: the solution
    and the iterations made, the solution None when the float32 factor
    fails or CG does not converge to a finite iterate."""
    with np.errstate(over="ignore"):
        single = matrix.astype(np.float32)
    if not np.all(np.isfinite(single.data)):
        return None, 0
    try:
        lu = _splu(single)
    except SolverError:
        return None, 0
    del single  # SuperLU keeps its own copy

    def precondition(r: np.ndarray) -> np.ndarray:
        # scaled to max-abs 1, so the float32 cast neither overflows nor underflows
        scale = np.max(np.abs(r)) or 1.0
        return lu.solve((r / scale).astype(np.float32)).astype(float) * scale

    x = np.zeros(rhs.size)
    r = np.array(rhs, dtype=float)
    stop = REFINE_TOL * np.linalg.norm(r)
    r_old = p = None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(REFINE_MAX_ITERS + 1):
            if not np.all(np.isfinite(x)):
                return None, it
            if np.linalg.norm(r) <= stop:
                return x, it
            if it == REFINE_MAX_ITERS:
                return None, it
            z = precondition(r)
            rz = r @ z
            # Polak-Ribiere form: robust to the float32 factor's slight asymmetry
            p = z if p is None else z + ((r - r_old) @ z / rz_old) * p
            q = matrix @ p
            alpha = rz / (p @ q)
            x = x + alpha * p
            r_old, rz_old = r, rz
            r = r - alpha * q


class SobolevSpace:
    """H^order inner product over a node subset of a domain mask.

    By default the subset is every masked node and the order follows
    sobolev_order(grid dim). A restricted subset (e.g. the inner subdomain),
    given as DOF positions, yields the corresponding local norm. `node_pos`
    holds its DOF positions, sorted, and `nodes` is its full-grid form,
    built on each access.

    Every method takes and returns masked DOF vectors (see DomainMask); the
    assembled Gram matrices are free x free (constrained_gram) or DOF x DOF
    (gram_matrix, a test oracle). The quadrature weight of each DOF,
    zero off the node subset, is the vector `dof_weights`; `weights` is its
    full-grid form, built on demand. Every monomial is a chain of
    first differences (v[p + e] - v[p]) / h taken through gather tables,
    never a precombined multi-axis stencil: for smooth fields the nested
    differences are nearly exact in floating point, and a summed stencil is
    not.
    """

    def __init__(self, mask: DomainMask, order: int | None = None,
                 node_subset: np.ndarray | None = None):
        self.mask = mask
        self.grid = mask.grid
        self.order = sobolev_order(self.grid.dim) if order is None else int(order)
        if self.order < 1:
            raise ConfigError(f"Sobolev order must be >= 1, got {self.order}")
        on_nodes = np.zeros(mask.dofs.size, dtype=bool)
        on_nodes[slice(None) if node_subset is None else node_subset] = True
        if not np.any(on_nodes):
            raise GeometryError("Sobolev space over an empty node set")
        self.node_pos = np.flatnonzero(on_nodes)
        self.monomials = difference_monomials(self.grid.dim, self.order)
        self._free_solve = None
        self.factorizations = self.refinements = 0  # the work of every solve (see solve)

        self.dof_weights = np.where(on_nodes, mask.dof_quad_weight, 0.0)
        # a DOF without a forward neighbour along an axis points at itself:
        # its raw difference reads 0 there and is zeroed by validity anyway
        rows = np.arange(self.dof_weights.size)
        tables = mask.neighbor_tables([axis_offset(self.grid.dim, a) for a in range(self.grid.dim)])
        self._forward = [np.where(table < rows.size, table, rows) for table in tables]
        self._backward = [inverse_table(table, rows.size) for table in tables]
        # D^beta = D_a D^parent with a the last axis beta differences along;
        # monomials are sorted by order, so the parent always comes first.
        # A monomial contributes at p only when its whole forward stencil box
        # sits inside the node set (composed differences are raw otherwise):
        # the box of beta is the parent's box at p and at p + e_a.
        self._chain = []
        self._dof_valid = []
        for beta in self.monomials:
            if not any(beta):
                self._chain.append((None, None))
                self._dof_valid.append(on_nodes)
                continue
            axis = max(a for a, b in enumerate(beta) if b)
            parent = list(beta)
            parent[axis] -= 1
            parent = self.monomials.index(tuple(parent))
            self._chain.append((parent, axis))
            box = self._dof_valid[parent]
            forward = self._forward[axis]
            self._dof_valid.append(box & box[forward] & (forward != rows))

    @property
    def nodes(self) -> np.ndarray:
        return self.mask.node_set(self.node_pos)

    @property
    def weights(self) -> np.ndarray:
        """Full-grid form of dof_weights (zero off the node set), built on each
        access; the library itself reads only the DOF vector."""
        return self.mask.scatter(self.dof_weights)

    def differences(self, v: np.ndarray) -> list[np.ndarray]:
        """Forward-difference monomials of a DOF vector, in `monomials` order,
        zeroed where the stencil box leaves the node set."""
        if np.shape(v) != self.dof_weights.shape:
            raise ConfigError(f"field of shape {np.shape(v)} is not a DOF vector of the "
                              f"space's {self.dof_weights.size} masked nodes")
        raw, out = [], []
        for (parent, axis), valid in zip(self._chain, self._dof_valid):
            if parent is None:
                d = v
            else:
                prev = raw[parent]
                d = (prev[self._forward[axis]] - prev) / self.grid.spacing[axis]
            raw.append(d)
            out.append(np.where(valid, d, 0.0))
        return out

    def inner_product(self, v: np.ndarray, w: np.ndarray) -> float:
        dv = self.differences(v)
        return self._pair(dv, dv if w is v else self.differences(w))

    def _pair(self, dv: list[np.ndarray], dw: list[np.ndarray]) -> float:
        total = 0.0
        for a, b in zip(dv, dw):
            total += float(np.sum(a * b * self.dof_weights))
        return total

    def norm_sq(self, v: np.ndarray, differences: list[np.ndarray] | None = None) -> float:
        """[v, v]; `differences`, when given, must be self.differences(v)."""
        if differences is None:
            return self.inner_product(v, v)
        return self._pair(differences, differences)

    def norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(max(self.norm_sq(v), 0.0)))

    def apply_gram(self, v: np.ndarray,
                   differences: list[np.ndarray] | None = None) -> np.ndarray:
        """Gram action sum_beta (D^beta)^T (w . D^beta v) on a DOF vector;
        `differences`, when given, must be self.differences(v)."""
        out = np.zeros(v.size)
        buf = np.zeros(v.size + 1)  # the last slot is the tables' zero sentinel
        if differences is None:
            differences = self.differences(v)
        for beta, d in zip(self.monomials, differences):
            x = self.dof_weights * d
            for axis in reversed(range(self.grid.dim)):
                h = self.grid.spacing[axis]
                for _ in range(beta[axis]):
                    buf[:-1] = x
                    x = (buf[self._backward[axis]] - x) / h
            out += x
        return out

    def riesz(self, b: np.ndarray) -> np.ndarray:
        """Riesz representative of the Euclidean pairing with b.

        Returns the DOF vector g, zero on the trace layers, with [g, h] = b . h
        for every zero-trace DOF vector h: one solve with the factorized
        constrained Gram. b must vanish on the trace layers.
        """
        if np.any(b[self.mask.trace_pos]):
            raise ConfigError("Riesz right-hand side is not zero on the trace layers")
        free = self.mask.free_pos
        g = np.zeros(b.size)
        g[free] = self.constrained_solver()(b[free])
        return g

    def gram_matrix(self) -> sp.csr_matrix:
        """Sparse DOF x DOF Gram matrix, sum_beta B^T diag(w) B, built on each
        call: a test oracle, since the solvers factorize constrained_gram."""
        return self._assemble(np.arange(self.mask.dofs.size)).tocsr()

    # -- constrained (zero-trace) system ---------------------------------------

    def constrained_gram(self, scale: float = 1.0,
                         plus: sp.spmatrix | None = None) -> sp.csc_matrix:
        """scale * G_ff + plus, with G_ff the Gram matrix over the free DOFs
        (trace layers removed) in mask.free_pos order and plus an optional
        free x free matrix: entry for entry the bits of the scipy sum
        plus + scale * gram_matrix()[free][:, free], built in place."""
        return self._assemble(self.mask.free_pos, scale, plus)

    def solve(self, rhs: np.ndarray, scale: float = 1.0,
              plus: sp.spmatrix | None = None) -> np.ndarray:
        """x with (scale * G_ff + plus) x = rhs on the free DOFs (constrained_gram).

        G_ff alone uses the kept float64 factor (constrained_solver) when there
        is one or the grid has fewer than MIXED_PRECISION_DIM axes. Any other
        system is one spd_solve, mixed precision from MIXED_PRECISION_DIM axes
        on, whose factor is not kept; its work adds to the space's counters.
        """
        if scale == 1.0 and plus is None and (
                self._free_solve is not None or self.grid.dim < MIXED_PRECISION_DIM):
            return self.constrained_solver()(rhs)
        solved = spd_solve(self.constrained_gram(scale, plus), rhs,
                           mixed=self.grid.dim >= MIXED_PRECISION_DIM)
        self.factorizations += solved.factorizations
        self.refinements += solved.refinements
        return solved.x

    def constrained_solver(self):
        if self._free_solve is None:
            self._free_solve = spd_factorized(self.constrained_gram())
            self.factorizations += 1
        return self._free_solve

    def _difference_matrices(self) -> list[sp.csr_matrix]:
        """The DOF x DOF forward-difference matrix of each axis, (v[p + e] - v[p]) / h."""
        n = self.dof_weights.size
        rows = np.arange(n)
        steps = []
        for axis, table in enumerate(self._forward):
            h = self.grid.spacing[axis]
            hit = table != rows
            steps.append(sp.csr_matrix(
                (np.concatenate([np.full(n, -1.0 / h), np.full(hit.sum(), 1.0 / h)]),
                 (np.concatenate([rows, rows[hit]]), np.concatenate([rows, table[hit]]))),
                shape=(n, n)))
        return steps

    def _assemble(self, cols: np.ndarray, scale: float = 1.0,
                  plus: sp.spmatrix | None = None) -> sp.csc_matrix:
        """scale * sum_beta B^T diag(w) B + plus over the DOFs `cols`, in CSC.

        B is the monomial's chain of forward-difference matrices, built from
        the same gather tables and validity as `differences`, started at the
        columns `cols` of the identity. An entry couples two nodes at most
        `order` steps apart (1-norm), so the sums live in a table with a row
        per column DOF and a slot per flat node offset, the offsets of
        `plus` included. Each monomial's product is added into it in place,
        in monomial order: every entry is the sum, in the order, that a
        running sum of sparse matrices forms, and entries that end at
        exactly 0 are dropped, as that sum drops them.
        """
        grid, n, m = self.grid, self.dof_weights.size, cols.size
        steps = self._difference_matrices()
        # flat node index of each column DOF, and the offsets an entry can span;
        # int32 where it fits, as the per-entry index arithmetic is the
        # largest transient
        node = self.mask.dofs[cols].astype(np.int32 if 2 * grid.node_count < 2**31 else np.int64)
        near = [d for d in product(range(-self.order, self.order + 1), repeat=grid.dim)
                if sum(map(abs, d)) <= self.order]
        spans = np.unique(np.array(near) @ flat_strides(grid.shape)).astype(node.dtype)
        if plus is not None:
            plus = plus.tocsc()
            spans = np.union1d(spans, node[plus.indices] - np.repeat(node, np.diff(plus.indptr)))
        sums = np.zeros((m, spans.size))
        slot_of = np.zeros(spans[-1] - spans[0] + 1, dtype=np.min_scalar_type(spans.size))
        slot_of[spans - spans[0]] = np.arange(spans.size)
        first = np.arange(0, sums.size, spans.size,
                          dtype=np.int32 if sums.size < 2**31 else np.int64)
        block = max(sums.size // 8, 1)

        def add(mat: sp.csc_matrix):
            """sums += mat, entry (i, j) to row j at the slot of node_i - node_j;
            a block of columns of at most `block` entries at a time, so that
            the index arithmetic stays near a third of the table's bytes."""
            cuts = np.searchsorted(mat.indptr, np.arange(0, mat.nnz, block))
            for lo, hi in zip(cuts, [*cuts[1:], m]):
                a, b = mat.indptr[lo], mat.indptr[hi]
                count = np.diff(mat.indptr[lo:hi + 1])
                offset = node.take(mat.indices[a:b])
                offset -= np.repeat(node[lo:hi] + spans[0], count)
                at = np.repeat(first[lo:hi], count)
                at += slot_of.take(offset)
                np.add.at(sums.ravel(), at, mat.data[a:b])

        # a chain matrix is kept only until its last child is built
        last_child = {parent: k for k, (parent, _) in enumerate(self._chain)
                      if parent is not None}
        raw = {}
        for k, ((parent, axis), valid) in enumerate(zip(self._chain, self._dof_valid)):
            if parent is None:
                bmat = sp.csr_matrix((np.ones(m), (cols, np.arange(m))), shape=(n, m))
            else:
                bmat = steps[axis] @ (raw[parent] if last_child[parent] > k
                                      else raw.pop(parent))
            if k in last_child:
                raw[k] = bmat
            term = bmat.T @ sp.diags(self.dof_weights * valid)
            bmat = bmat.tocsc()  # as `term @` converts it; frees a chain without children
            term = term @ bmat
            del bmat
            add(term)
        del steps, term
        if scale != 1.0:
            sums *= scale
        if plus is not None:
            add(plus)
        keep = sums != 0
        data = sums[keep]
        del sums
        # the row of a kept entry: the column DOF at its node plus the slot's offset
        indices = np.empty(keep.shape, dtype=node.dtype)
        for k, span in enumerate(spans):
            indices[:, k] = np.searchsorted(node, node + span)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
        return sp.csc_matrix((data, indices[keep], indptr), shape=(m, m))
