"""Dense ``np.linalg`` ground truth for the structured entry points.

Every function takes a :class:`~repro.structured.bta.BTAMatrix` and
answers with plain LAPACK on the full ``N x N`` matrix — only for small
validation problems.
"""

from __future__ import annotations

import numpy as np

from repro.structured.bta import BTAMatrix


def cholesky(A: BTAMatrix) -> np.ndarray:
    """Dense lower Cholesky factor."""
    return np.linalg.cholesky(A.to_dense())


def slogdet(A: BTAMatrix) -> float:
    """``log det A``; asserts the determinant is positive."""
    sign, ld = np.linalg.slogdet(A.to_dense())
    assert sign > 0, "matrix is not positive definite"
    return float(ld)


def inv(A: BTAMatrix) -> np.ndarray:
    """Dense inverse."""
    return np.linalg.inv(A.to_dense())


def solve(A: BTAMatrix, rhs) -> np.ndarray:
    """``A^{-1} rhs`` for a vector or ``(N, k)`` columns."""
    return np.linalg.solve(A.to_dense(), rhs)


def selected_inverse(A: BTAMatrix) -> np.ndarray:
    """Dense ``A^{-1}`` restricted to the BTA pattern, in the layout of
    ``pobtasi(...).to_dense()`` (zeros outside the pattern)."""
    ones = BTAMatrix(
        np.ones_like(A.diag), np.ones_like(A.lower), np.ones_like(A.arrow), np.ones_like(A.tip)
    )
    return np.where(ones.to_dense() != 0.0, inv(A), 0.0)
