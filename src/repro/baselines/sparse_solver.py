"""General sparse symmetric direct solver (PARDISO stand-in).

R-INLA delegates its factorizations to PARDISO (paper Sec. III-B); this
module provides the equivalent role on top of SuperLU: a fill-reducing
ordering, sparse LU factorization of the SPD matrix, log-determinant from
the U diagonal, and solves.  Selected inversion for the baseline falls
back to dense inversion under a size guard — R-INLA's Takahashi-based
path is only exercised for the small validation problems anyway.

This solver sees the precision matrices as *general* sparse systems: no
BT/BTA structure exploitation, no batched block kernels — which is
precisely the gap DALIA's structured approach exploits.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SparseCholesky:
    """Symmetric factorization of an SPD sparse matrix via SuperLU.

    For an SPD matrix, LU with symmetric fill-reducing ordering and no
    pivoting perturbation behaves like a Cholesky: ``log det`` is the sum
    of log U diagonal entries (all positive for SPD input).
    """

    def __init__(self, A: sp.spmatrix):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        self.n = A.shape[0]
        # MMD on A^T + A: the symmetric ordering PARDISO-style solvers use.
        self._lu = splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        diag_u = self._lu.U.diagonal()
        if np.any(diag_u <= 0):
            from repro.errors import NotPositiveDefiniteError

            raise NotPositiveDefiniteError("matrix is not positive definite")
        self._logdet = float(np.sum(np.log(diag_u)))
        self.fill_nnz = int(self._lu.L.nnz + self._lu.U.nnz)

    def logdet(self) -> float:
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        return self._lu.solve(rhs)


def sparse_selected_inverse_diagonal(
    A: sp.spmatrix, *, dense_limit: int = 4000
) -> np.ndarray:
    """Diagonal of ``A^{-1}`` for the baseline path.

    Uses dense inversion up to ``dense_limit`` unknowns, otherwise
    column solves in blocks (exact, slow — the point of the comparison).
    """
    A = sp.csc_matrix(A)
    n = A.shape[0]
    if n <= dense_limit:
        return np.diag(np.linalg.inv(A.toarray())).copy()
    chol = SparseCholesky(A)
    out = np.empty(n)
    block = 256
    for start in range(0, n, block):
        stop = min(start + block, n)
        E = np.zeros((n, stop - start))
        E[np.arange(start, stop), np.arange(stop - start)] = 1.0
        X = chol.solve(E)
        out[start:stop] = X[np.arange(start, stop), np.arange(stop - start)]
    return out
