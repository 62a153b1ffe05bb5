"""Per-block sequential BTA solvers — the reference the batched path is
checked against.

Same algorithms as :mod:`repro.structured.pobtaf` / ``pobtas`` /
``pobtasi`` (same Schur recurrence, same Takahashi recursion), but every
step is a separate SciPy call on one block: no fused operands, no
explicit triangular inverses, no hoisted arrow updates.  Agreement with
the production solvers is asserted to 1e-10.
"""

from __future__ import annotations

import numpy as np

from repro.structured.bta import BTAMatrix
from repro.structured.pobtaf import BTACholesky
from tests.oracle.kernels import (
    chol_lower,
    logdet_from_chol_diag,
    right_solve_lower,
    right_solve_lower_t,
    solve_lower,
    solve_lower_t,
    tri_inverse_lower,
)


def pobtaf(A: BTAMatrix) -> BTACholesky:
    """Per-block Cholesky ``A = L L^T`` (``A`` is not modified)."""
    L = A.copy()
    n, a = L.n, L.a
    diag, lower, arrow, tip = L.diag, L.lower, L.arrow, L.tip
    for i in range(n):
        # Factorize the current (Schur-complemented) diagonal block.
        diag[i] = chol_lower(diag[i])
        li = diag[i]
        if i + 1 < n:
            lower[i] = right_solve_lower_t(li, lower[i])
        if a:
            arrow[i] = right_solve_lower_t(li, arrow[i])
        # Schur-complement the trailing blocks touched by column i.
        if i + 1 < n:
            diag[i + 1] -= lower[i] @ lower[i].T
            if a:
                arrow[i + 1] -= arrow[i] @ lower[i].T
        if a:
            tip -= arrow[i] @ arrow[i].T
    if a:
        tip[...] = chol_lower(tip)
    return BTACholesky(factor=L)


def logdet(chol: BTACholesky) -> float:
    """``log det A`` summed block by block from the factor's diagonals."""
    L = chol.factor
    total = sum(logdet_from_chol_diag(L.diag[i]) for i in range(L.n))
    if L.a:
        total += logdet_from_chol_diag(L.tip)
    return total


def _columns(chol: BTACholesky, rhs) -> tuple:
    """Copy ``rhs`` into ``(N, k)`` columns plus block / tip panel views."""
    L = chol.factor
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != L.N:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {L.N}")
    x = np.array(rhs.reshape(L.N, -1), copy=True)
    return x, x[: L.n * L.b].reshape(L.n, L.b, -1), x[L.n * L.b :], rhs.ndim == 1


def _backward(L: BTAMatrix, xb, xt) -> None:
    """``L^T x = z`` in place, one block at a time."""
    n, a = L.n, L.a
    if a:
        xt[...] = solve_lower_t(L.tip, xt)
    for i in range(n - 1, -1, -1):
        if a:
            xb[i] -= L.arrow[i].T @ xt
        if i + 1 < n:
            xb[i] -= L.lower[i].T @ xb[i + 1]
        xb[i] = solve_lower_t(L.diag[i], xb[i])


def pobtas(chol: BTACholesky, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` (forward then backward per-block sweep)."""
    L = chol.factor
    n, a = L.n, L.a
    x, xb, xt, squeeze = _columns(chol, rhs)
    for i in range(n):
        if i > 0:
            xb[i] -= L.lower[i - 1] @ xb[i - 1]
        xb[i] = solve_lower(L.diag[i], xb[i])
        if a:
            xt -= L.arrow[i] @ xb[i]
    if a:
        xt[...] = solve_lower(L.tip, xt)
    _backward(L, xb, xt)
    return x[:, 0] if squeeze else x


def pobtas_lt(chol: BTACholesky, rhs) -> np.ndarray:
    """Backward-only solve ``L^T x = rhs``."""
    x, xb, xt, squeeze = _columns(chol, rhs)
    _backward(chol.factor, xb, xt)
    return x[:, 0] if squeeze else x


def pobtasi(chol: BTACholesky) -> BTAMatrix:
    """Selected inverse by the per-block Takahashi recursion."""
    L = chol.factor
    n, b, a = L.n, L.b, L.a
    X = BTAMatrix.zeros(L.shape3)
    if a:
        tip_inv = tri_inverse_lower(L.tip)
        X.tip[...] = tip_inv.T @ tip_inv
    for i in range(n - 1, -1, -1):
        li = L.diag[i]
        has_next = i + 1 < n
        lo = L.lower[i] if has_next else None
        ar = L.arrow[i] if a else None
        if has_next:
            acc_next = X.diag[i + 1] @ lo
            if a:
                acc_next += X.arrow[i + 1].T @ ar
            X.lower[i] = -right_solve_lower(li, acc_next)
            if a:
                X.arrow[i] = -right_solve_lower(li, X.arrow[i + 1] @ lo + X.tip @ ar)
        elif a:
            X.arrow[i] = -right_solve_lower(li, X.tip @ ar)
        acc_diag = solve_lower_t(li, np.eye(b))
        if has_next:
            acc_diag -= X.lower[i].T @ lo
        if a:
            acc_diag -= X.arrow[i].T @ ar
        X.diag[i] = right_solve_lower(li, acc_diag)
        X.diag[i] = 0.5 * (X.diag[i] + X.diag[i].T)
    return X
