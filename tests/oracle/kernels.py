"""Per-block dense kernels (SciPy/LAPACK, one ``b x b`` block per call).

These are the reference counterparts of the stacked primitives in
:mod:`repro.structured.batched`; they wrap ``scipy.linalg`` with
``check_finite=False`` and raise the same
:class:`~repro.errors.NotPositiveDefiniteError` as the production path.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cholesky as _cholesky, solve_triangular as _solve_triangular

from repro.errors import NotPositiveDefiniteError


def chol_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite block."""
    try:
        return _cholesky(a, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^{-1} B`` for lower-triangular ``L``."""
    return _solve_triangular(l, b, lower=True, check_finite=False)


def solve_lower_t(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``L^{-T} B`` for lower-triangular ``L``."""
    return _solve_triangular(l, b, lower=True, trans="T", check_finite=False)


def right_solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``B L^{-1}`` for lower-triangular ``L`` (right division)."""
    return _solve_triangular(l, b.T, lower=True, trans="T", check_finite=False).T


def right_solve_lower_t(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``B L^{-T}`` for lower-triangular ``L`` (right division by transpose)."""
    return _solve_triangular(l, b.T, lower=True, check_finite=False).T


def tri_inverse_lower(l: np.ndarray) -> np.ndarray:
    """Explicit ``L^{-1}`` of a small lower-triangular block."""
    return _solve_triangular(l, np.eye(l.shape[0]), lower=True, check_finite=False)


def logdet_from_chol_diag(l: np.ndarray) -> float:
    """``2 sum log diag(L)`` of one Cholesky block; raises on a
    non-positive or non-finite diagonal entry."""
    d = np.diagonal(l)
    with np.errstate(invalid="ignore", divide="ignore"):
        total = float(np.sum(np.log(d)))
    if d.size and not np.isfinite(total):
        raise NotPositiveDefiniteError("non-positive diagonal in Cholesky factor")
    return 2.0 * total
