"""``pobtas`` — sequential triangular solve with a BTA Cholesky factor.

Solves ``A x = rhs`` given ``A = L L^T`` from :func:`repro.structured.pobtaf.pobtaf`
via a forward sweep ``L z = rhs`` followed by a backward sweep
``L^T x = z``.  INLA uses this to obtain the conditional mean
``mu = Qc^{-1} A^T D y`` in every objective-function evaluation
(paper Eq. 3/8) — it is roughly an order of magnitude cheaper than the
factorization itself (paper Sec. V-C).

``rhs`` may be a vector of length ``N`` or a block of ``k`` right-hand
sides ``(N, k)``; block solves are used by the predictive-sampling helpers.
Row-major ``(k, N)`` stacks — the sampling / smart-gradient layout — go
through :mod:`repro.structured.multirhs`, which drives the *same* panel
sweeps defined here, so the stacked and unstacked paths are bit-for-bit
identical at ``k = 1``.

The per-block triangular solves are GEMMs against the cached stacked
inverses ``L[i,i]^{-1}`` (see
:meth:`repro.structured.pobtaf.BTACholesky.diag_inverses`), and the
arrow-row eliminations — which touch only the tip entry — are hoisted out
of the sweeps into single batched ``einsum``/GEMM updates over the whole
block stack.  With ``k`` right-hand sides every per-block operand widens
from a ``(b,)`` vector to a ``(b, k)`` panel, so the whole stack costs one
loop-carried pass instead of ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.structured import batched as bk
from repro.structured.pobtaf import BTACholesky


def _prepare(chol: BTACholesky, rhs: np.ndarray, *, overwrite: bool = False):
    L = chol.factor
    n, b, N = L.n, L.b, L.N
    be = chol.get_backend()
    rhs = be.asarray(rhs)
    squeeze = rhs.ndim == 1
    if rhs.shape[0] != N:
        raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {N}")
    if overwrite and rhs.ndim > 1:
        x = rhs.reshape(N, -1)
    else:
        x = be.xp.array(rhs.reshape(N, -1), copy=True)
    return L, x, x[: n * b].reshape(n, b, -1), x[n * b :], squeeze


def backward_sweep_panels(chol: BTACholesky, xb, xt, a: int, n: int) -> None:
    """``L^T x = z`` with GEMMs against the cached inverses (in place).

    ``xb`` is the ``(n, b, k)`` panel view of the right-hand sides and
    ``xt`` the ``(a, k)`` tip panel; ``k`` is arbitrary, so a whole RHS
    stack rides one loop-carried pass.  The tip back-propagation reads
    only the (final) tip solution, so it runs as one flat GEMM instead of
    n per-block panel updates.
    """
    L = chol.factor
    inv = chol.diag_inverses()
    lw = L.lower
    if a:
        xt[...] = bk.solve_lower_t_block(L.tip, xt, backend=chol.get_backend())
        x_flat = xb.reshape(n * L.b, -1)
        x_flat -= chol.arrow_flat().T @ xt
    cur = inv[n - 1].T @ xb[n - 1]
    xb[n - 1] = cur
    for i in range(n - 2, -1, -1):
        cur = inv[i].T @ (xb[i] - lw[i].T @ cur)
        xb[i] = cur


def forward_sweep_panels(chol: BTACholesky, xb, xt, a: int, n: int) -> None:
    """``L z = rhs`` on ``(b, k)`` panels (in place): GEMM against cached
    ``L[i,i]^{-1}``; arrow terms applied as single stacked updates outside
    the loop-carried chain."""
    L = chol.factor
    inv = chol.diag_inverses()
    lw = L.lower
    cur = inv[0] @ xb[0]
    xb[0] = cur
    for i in range(1, n):
        cur = inv[i] @ (xb[i] - lw[i - 1] @ cur)
        xb[i] = cur
    if a:
        # The arrow eliminations only accumulate onto the tip entry: one
        # GEMM of the flat arrow row against the solved stack.
        xt -= chol.arrow_flat() @ xb.reshape(n * L.b, -1)
        xt[...] = bk.solve_lower_block(L.tip, xt, backend=chol.get_backend())


def pobtas(chol: BTACholesky, rhs: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Solve ``A x = rhs`` using the BTA Cholesky factor ``chol``: one
    forward + one backward panel pass."""
    L, x, xb, xt, squeeze = _prepare(chol, rhs, overwrite=overwrite)
    forward_sweep_panels(chol, xb, xt, L.a, L.n)
    backward_sweep_panels(chol, xb, xt, L.a, L.n)
    return x[:, 0] if squeeze else x


def pobtas_lt(chol: BTACholesky, rhs: np.ndarray) -> np.ndarray:
    """Backward-only solve ``L^T x = rhs``.

    This is the GMRF sampling primitive: if ``z ~ N(0, I)`` then
    ``x = L^{-T} z ~ N(0, A^{-1})`` — used by the synthetic-data
    generators to draw exact samples from the model prior.
    """
    L, x, xb, xt, squeeze = _prepare(chol, rhs)
    backward_sweep_panels(chol, xb, xt, L.a, L.n)
    return x[:, 0] if squeeze else x
