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

from itertools import pairwise, product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, GeometryError, SolverError, finite
from .grid import DomainMask, flat_strides


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
    """The float64 SPD sparse LU (see _splu), which solves with `solve`; a
    singular factor raises SolverError."""
    return _splu(matrix.tocsc())


def _fill(lu, dtype) -> tuple[int, int]:
    """(nnz, bytes) of a SuperLU factor: the entries it stores for L and U, as
    its `nnz` counts them (reading `L` and `U` would copy), and their bytes."""
    return lu.nnz, lu.nnz * np.dtype(dtype).itemsize


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
    fills: tuple[tuple[int, int], ...]  # _fill of each factor made


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
        lu = spd_factorized(matrix)
        return SpdSolve(lu.solve(rhs), 1, 0, (_fill(lu, float),))
    with np.errstate(all="ignore"):  # a value past the float range falls back
        x, iterations, fills = _refine(matrix, rhs)
        if x is not None and (np.linalg.norm(rhs - matrix @ x) <= REFINE_TOL * (
                matrix.diagonal().max(initial=0.0) * np.linalg.norm(x) + np.linalg.norm(rhs))):
            return SpdSolve(x, 1, iterations, fills)
    lu = spd_factorized(matrix)
    return SpdSolve(lu.solve(rhs), 2, iterations, fills + (_fill(lu, float),))


def _refine(matrix: sp.csc_matrix, rhs: np.ndarray) -> tuple[np.ndarray | None, int, tuple]:
    """CG on matrix @ x = rhs preconditioned by its float32 LU, under spd_solve's
    np.errstate: the solution, the iterations made and the _fill of the float32
    factor in a tuple, empty when there is none; the solution None when the
    factor fails or CG does not converge to a finite iterate."""
    # the float32 matrix shares the index arrays, which astype would copy,
    # unless SuperLU would sort them in place (a matrix not in canonical form)
    single = sp.csc_matrix((matrix.data.astype(np.float32), matrix.indices, matrix.indptr),
                           shape=matrix.shape, copy=not matrix.has_canonical_format)
    # two reductions, not an n-element mask; the empty system reads initial 0
    low, high = single.data.min(initial=0.0), single.data.max(initial=0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        return None, 0, ()
    try:
        lu = _splu(single)
    except SolverError:
        return None, 0, ()
    del single  # SuperLU keeps its own copy
    fills = (_fill(lu, np.float32),)

    def precondition(r: np.ndarray) -> np.ndarray:
        # scaled to max-abs 1, so the float32 cast neither overflows nor underflows
        scale = np.max(np.abs(r)) or 1.0
        return lu.solve((r / scale).astype(np.float32)).astype(float) * scale

    x = np.zeros(rhs.size)
    r = np.array(rhs, dtype=float)
    r_old = p = None
    stop = REFINE_TOL * np.linalg.norm(r)  # inf, never met, for an rhs past the range
    for it in range(REFINE_MAX_ITERS + 1):
        if not np.all(np.isfinite(x)):
            return None, it, fills
        if np.linalg.norm(r) <= stop < np.inf:
            return x, it, fills
        if it == REFINE_MAX_ITERS:
            return None, it, fills
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
    assembled Gram matrices are free x free (constrained_gram). The
    quadrature weight of each DOF, zero off the node subset, is the vector
    `dof_weights`; `weights` is its full-grid form, built on demand. Every
    monomial is a chain of first differences (v[p + e] - v[p]) / h taken
    through gather tables, never a precombined multi-axis stencil: for smooth
    fields the nested differences are nearly exact in floating point, and a
    summed stencil is not.
    """

    def __init__(self, mask: DomainMask, order: int | None = None,
                 node_subset: np.ndarray | None = None):
        self.mask = mask
        self.grid = mask.grid
        self.order = sobolev_order(self.grid.dim) if order is None else int(order)
        if self.order < 1:
            raise ConfigError(f"Sobolev order must be >= 1, got {self.order}")
        on_nodes = np.zeros(mask.dofs.size + 1, dtype=bool)  # the last slot: the sentinel
        on_nodes[slice(-1) if node_subset is None else node_subset] = True
        if not np.any(on_nodes):
            raise GeometryError("Sobolev space over an empty node set")
        self.node_pos = np.flatnonzero(on_nodes)
        self.monomials = difference_monomials(self.grid.dim, self.order)
        self._free_solve = None
        self.factorizations = self.refinements = 0  # the work of every solve (see solve)
        self.factor_fills: list[tuple[int, int]] = []  # _fill of each factor made

        self.dof_weights = np.where(on_nodes[:-1], mask.dof_quad_weight, 0.0)
        # views of the mask's step tables; a sentinel reads v[n - 1] (clipped), zeroed by validity
        n = self.dof_weights.size
        self._forward = [plus[:n] for plus, _ in mask.steps]
        self._backward = [minus[:n] for _, minus in mask.steps]
        # D^beta = D_a D^parent with a the last axis beta differences along;
        # monomials are sorted by order, so the parent always comes first.
        # A monomial contributes at p only when its whole forward stencil box
        # sits inside the node set (composed differences are raw otherwise):
        # the box of beta is the parent's box at p and at p + e_a (the
        # sentinel's last slot stays False).
        self._chain = []
        boxes = []
        for beta in self.monomials:
            if not any(beta):
                self._chain.append((None, None))
                boxes.append(on_nodes)
                continue
            axis = max(a for a, b in enumerate(beta) if b)
            parent = list(beta)
            parent[axis] -= 1
            parent = self.monomials.index(tuple(parent))
            self._chain.append((parent, axis))
            box = boxes[parent]
            boxes.append(box & box[mask.steps[axis][0]])
        self._dof_valid = [box[:n] for box in boxes]
        # a monomial's raw difference is needed until its last child is built
        self._last_child = {parent: k for k, (parent, _) in enumerate(self._chain)
                            if parent is not None}

    @property
    def nodes(self) -> np.ndarray:
        return self.mask.node_set(self.node_pos)

    @property
    def weights(self) -> np.ndarray:
        """Full-grid form of dof_weights (zero off the node set), built on each
        access; the library itself reads only the DOF vector."""
        return self.mask.scatter(self.dof_weights)

    def differences(self, v: np.ndarray) -> list[np.ndarray]:
        """Forward-difference monomials of a DOF vector, or of a stack of them
        with the DOFs on the last axis, in `monomials` order, zeroed where the
        stencil box leaves the node set."""
        return list(self._masked_differences(v))

    def _masked_differences(self, v: np.ndarray):
        """The monomials of `differences`, one at a time: a raw difference is
        kept only until its last child is built, so a norm of a stack holds a
        few of them at once, not all."""
        if np.ndim(v) not in (1, 2) or np.shape(v)[-1:] != self.dof_weights.shape:
            raise ConfigError(f"field of shape {np.shape(v)} is not a DOF vector of the "
                              f"space's {self.dof_weights.size} masked nodes")
        raw = {}
        for k, ((parent, axis), valid) in enumerate(zip(self._chain, self._dof_valid)):
            if parent is None:
                d = v
            else:
                prev = raw[parent] if self._last_child[parent] > k else raw.pop(parent)
                d = (prev.take(self._forward[axis], -1, mode="clip")
                     - prev) / self.grid.spacing[axis]
            if k in self._last_child:
                raw[k] = d
            yield np.where(valid, d, 0.0)

    def inner_product(self, v: np.ndarray, w: np.ndarray) -> float | np.ndarray:
        """[v, w], or one per row of stacks of DOF vectors."""
        if w is v:
            return self._pair((d, d) for d in self._masked_differences(v))
        return self._pair(zip(self._masked_differences(v), self._masked_differences(w)))

    def _pair(self, pairs) -> float | np.ndarray:
        total = 0.0
        for a, b in pairs:
            # np.sum's reduction, without its Python wrapper
            total += np.add.reduce(a * b * self.dof_weights, axis=-1)
        return float(total) if np.ndim(total) == 0 else total

    def norm_sq(self, v: np.ndarray,
                differences: list[np.ndarray] | None = None) -> float | np.ndarray:
        """[v, v], or one per row of a stack of DOF vectors; `differences`,
        when given, must be self.differences(v)."""
        if differences is None:
            return self.inner_product(v, v)
        return self._pair((d, d) for d in differences)

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

    # -- constrained (zero-trace) system ---------------------------------------

    def constrained_gram(self, scale: float = 1.0,
                         normal: tuple[object, np.ndarray] | None = None) -> sp.csc_matrix:
        """scale * G_ff + L^T W L, with G_ff the Gram matrix over the free DOFs
        (trace layers removed) in mask.free_pos order and normal = (linearization,
        w) an optional linearization, whose stencil rows (LinearizedOperator.rows)
        are anchored at ascending nodes, and its row weights: entry for entry the
        bits of L.T @ diags(w) @ L + scale * G[free][:, free], with G the DOF x DOF
        Gram matrix sum_beta B^T diag(w) B and L the CSR matrix of the rows' free
        columns."""
        return self._assemble(self.mask.free_pos, scale, normal)

    def solve(self, rhs: np.ndarray, scale: float = 1.0,
              normal: tuple[object, np.ndarray] | None = None) -> np.ndarray:
        """x with (scale * G_ff + L^T W L) x = rhs on the free DOFs (constrained_gram).

        G_ff alone uses the kept float64 factor (constrained_solver) when there
        is one or the grid has fewer than MIXED_PRECISION_DIM axes. Any other
        system is one spd_solve, mixed precision from MIXED_PRECISION_DIM axes
        on, whose factor is not kept; its work adds to the space's counters.
        """
        if scale == 1.0 and normal is None and (
                self._free_solve is not None or self.grid.dim < MIXED_PRECISION_DIM):
            return self.constrained_solver()(rhs)
        solved = spd_solve(self.constrained_gram(scale, normal), rhs,
                           mixed=self.grid.dim >= MIXED_PRECISION_DIM)
        self.factorizations += solved.factorizations
        self.refinements += solved.refinements
        self.factor_fills += solved.fills
        return solved.x

    def constrained_solver(self):
        if self._free_solve is None:
            lu = spd_factorized(self.constrained_gram())
            self._free_solve = lu.solve
            self.factorizations += 1
            self.factor_fills.append(_fill(lu, float))
        return self._free_solve

    def _assemble(self, cols: np.ndarray, scale: float = 1.0,
                  normal: tuple[object, np.ndarray] | None = None) -> sp.csc_matrix:
        """scale * sum_beta B^T diag(w) B + L^T W L over the DOFs `cols`, in CSC,
        read off the gather tables and validity of `differences` and off L's rows.

        Where monomial beta is valid at p, row p of its chain B is a stencil:
        c(o) times v[p + o] over the box 0 <= o <= beta, the coefficients
        formed by the chain's own steps, (-1/h) c_parent(o) + (1/h)
        c_parent(o - e_a); a row of L is a stencil with a coefficient per row.
        _add_term sums each term as its sparse product does. An entry couples
        two nodes at most `order` steps apart (1-norm), or two offsets of L
        apart, so the sums live in a table with a row of slots, one per flat
        node offset, for each column DOF. The monomials, then scale, then L^T W L
        are added in: every entry is the sum, in the order, that a running sum of
        sparse matrices forms. Entries that end at exactly 0 are dropped, as
        that sum drops them; the kept ones move forward into the CSC data.
        Overflow runs on, and a system that is not finite raises SolverError.
        """
        grid, n, m = self.grid, self.dof_weights.size, cols.size
        strides = flat_strides(grid.shape)
        # int32 where it fits: the tables of DOFs are the largest transients after the sums
        index = np.int32 if 2 * grid.node_count < 2**31 else np.intp
        # the column of each DOF, and m, a scratch column of the sums, off `cols`
        col_of = np.full(n + 1, m, dtype=index)
        col_of[cols] = np.arange(m)
        node = self.mask.dofs[cols].astype(index)
        near = [d for d in product(range(-self.order, self.order + 1), repeat=grid.dim)
                if sum(map(abs, d)) <= self.order]
        spans = np.array(near) @ strides
        if normal is not None:
            # L's offsets ascending, and the flat offset between any two is a slot
            linearization, weight = normal
            rows = sorted(linearization.rows(), key=lambda row: np.dot(row[0], strides))
            at = np.array([off for off, _, _ in rows]) @ strides
            spans = np.concatenate([spans, (at[:, None] - at).ravel()])
        # the slot of each flat offset from the least, marked 1 first where one occurs
        lo = spans.min()
        slot_of = np.zeros(spans.max() - lo + 1, dtype=index)
        slot_of[spans - lo] = 1
        spans = np.flatnonzero(slot_of).astype(index) + lo
        slot_of[spans - lo] = np.arange(spans.size)
        sums = np.zeros((m + 1) * spans.size)  # its own data, which shrinks in place
        table = sums.reshape(m + 1, spans.size)
        coefs = []
        with np.errstate(all="ignore"):
            for (parent, axis), valid in zip(self._chain, self._dof_valid):
                if parent is None:
                    coef = np.ones((1,) * grid.dim)
                else:
                    h, up = grid.spacing[axis], coefs[parent]
                    zero = np.zeros_like(up.take([0], axis=axis))
                    coef = ((-1.0 / h) * np.concatenate([up, zero], axis=axis)
                            + (1.0 / h) * np.concatenate([zero, up], axis=axis))
                coefs.append(coef)
                p = np.flatnonzero(valid)
                if not p.size:
                    continue
                # the box in C order, which is ascending flat offset, and its
                # columns at each valid p, each a forward step from an earlier offset
                box = np.indices(coef.shape).reshape(grid.dim, -1).T
                box_strides = flat_strides(coef.shape)
                col = np.empty((box.shape[0], p.size), dtype=index)
                col[0] = p
                for i, o in enumerate(box[1:].tolist(), 1):
                    a = max(k for k, d in enumerate(o) if d)
                    col[i] = self._forward[a][col[i - box_strides[a]]]
                col = col_of[col]
                offsets = box @ strides
                _add_term(table, slot_of[offsets[:, None] - offsets - lo], col, coef.ravel(),
                          self.dof_weights[p])
                del col
            if scale != 1.0:
                sums *= scale
            if normal is not None:
                _add_term(table, slot_of[at[:, None] - at - lo],
                          [col_of[dofs] for _, dofs, _ in rows], [c for _, _, c in rows], weight)
                del rows  # not held through the compaction and the factorization
        # a block's kept cells move forward into the data; the row of each is the
        # column DOF at the slot's flat offset from the column's node, found by
        # search (`node` is sorted, as `cols` is), and SuperLU takes no row out of range
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(table[:m], axis=1), out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        for c0, c1 in pairwise(m * b // 16 for b in range(17)):
            keep = table[c0:c1] != 0
            start, end = indptr[c0], indptr[c1]
            target = (node[c0:c1, None] + spans)[keep]
            indices[start:end] = np.searchsorted(node, target)
            if not np.array_equal(node.take(indices[start:end], mode="clip"), target):
                raise SolverError("Gram assembly left an entry whose row is not a column DOF")
            sums[start:end] = table[c0:c1][keep]
        del table  # no view is left (a tracer's copy of the locals fails refcheck)
        sums.resize(indptr[-1], refcheck=False)
        finite(sums, f"{m} x {m} system at scale {scale:g}")
        return sp.csc_matrix((sums, indices, indptr), shape=(m, m))


def _add_term(table: np.ndarray, slots: np.ndarray, col, coef, weight: np.ndarray) -> None:
    """Add one term, a stencil per row p, into `table`. Stencil entry k sits at
    flat node offset o_k from p's node (ascending in k), in column col[k][p]
    (the scratch column m where that node is none) with coefficient coef[k],
    one constant (a monomial) or one per row (L). Entry (p + o_i, p + o_k)
    gets fl(fl(c_i w_p) c_k) in the slot slots[i, k] of o_i - o_k, summed one
    slot column at a time over its pairs (i, k), o_i descending: with the
    rows' nodes ascending, every entry sums its p ascending. A product whose
    row is no column has the weight 0, and its zero changes no sum."""
    m, size = table.shape[0] - 1, slots.shape[0]
    weighted = [coef[i] * np.where(col[i] < m, weight, 0.0) for i in range(size)]
    pairs = {}
    for i in reversed(range(size)):
        for k in range(size):
            pairs.setdefault(slots[i, k], []).append((i, k))
    column = np.empty(m + 1)
    for slot, slot_pairs in pairs.items():
        column.fill(0.0)
        for i, k in slot_pairs:
            np.add.at(column, col[k], coef[k] * weighted[i])
        table[:, slot] += column
