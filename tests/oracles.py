"""Assembled and brute-force forms that only the tests read: the oracles the
library's gather-table arithmetic is checked against.

    to_matrix(lin)                          L as a core-node x DOF CSR matrix
    gram_matrix(space)                      the DOF x DOF Gram matrix
    largest_cell_level_variation(mask)      the level's largest step per cell
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def to_matrix(lin) -> sp.csr_matrix:
    """Assemble LinearizedOperator.forward as a sparse core-node x DOF matrix
    of the nonzero coefficients of `lin.rows()`."""
    _, cols, coefs = zip(*lin.rows())
    cols, coefs = np.stack(cols, axis=-1), np.stack(coefs, axis=-1)
    keep = coefs != 0.0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((coefs[keep], cols[keep], indptr),
                         shape=(keep.shape[0], lin.mask.dofs.size)).sorted_indices()


def gram_matrix(space) -> sp.csr_matrix:
    """Sparse DOF x DOF Gram matrix of a SobolevSpace, sum_beta B^T diag(w) B:
    its assembly over every DOF, built on each call."""
    return space._assemble(np.arange(space.mask.dofs.size)).tocsr()


def largest_cell_level_variation(mask) -> float:
    """Max level-value change across one grid cell within a DomainMask."""
    worst, n = 0.0, mask.dofs.size
    for plus, _ in mask.steps:
        hit = np.flatnonzero(plus[:n] < n)
        step = mask.dof_ell[plus[hit]] - mask.dof_ell[hit]
        worst = max(worst, float(np.max(np.abs(step), initial=0.0)))
    return worst
