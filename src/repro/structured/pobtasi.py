"""``pobtasi`` — sequential selected inversion of a BTA matrix.

Computes exactly the entries of ``X = A^{-1}`` that are structurally
nonzero in ``A`` (diagonal, sub-diagonal, arrow blocks and tip) without
ever forming a dense inverse — the operation INLA needs for the posterior
marginal variances of the latent field (paper Sec. III-4 and III-A2).

Derivation.  With ``A = L L^T`` the inverse satisfies ``X L = L^{-T}``.
Restricting to block column ``i`` of ``L`` (nonzeros at rows
``{i, i+1, tip}``) gives, for rows ``r > i`` inside the pattern:

    X[r, i] = -(X[r, i+1] L[i+1, i] + X[r, t] L[t, i]) L[i, i]^{-1}

and on the diagonal (``L^{-T}`` is upper triangular):

    X[i, i] = (L[i, i]^{-T} - X[i+1, i]^T L[i+1, i] - X[t, i]^T L[t, i])
              L[i, i]^{-1}

which closes a backward recursion starting from the tip,
``X[t, t] = L[t, t]^{-T} L[t, t]^{-1}``.  Total cost is again
``O(n (b^3 + a b^2))`` — the same order as the factorization, matching the
microbenchmark observation of paper Fig. 5.

The recursion is loop-carried (column ``i`` needs ``X[i+1, i+1]``), but
every right-division by ``L[i, i]`` is a GEMM against the cached stacked
inverses, so each step is pure batched-GEMM work — the kernel mix the
paper runs on the GPU.
"""

from __future__ import annotations

import numpy as np

from repro.structured import batched as bk
from repro.structured.bta import BTAMatrix
from repro.structured.pobtaf import BTACholesky


def _selinv(chol: BTACholesky, X: BTAMatrix, xb=None, xt=None) -> None:
    """Backward recursion where every right-division is a GEMM against the
    cached ``L[i,i]^{-1}`` stack (see ``BTACholesky.diag_inverses``).

    When solve panels are given (``xb`` the ``(n, b, k)`` right-hand-side
    panels already forward-swept, ``xt`` the ``(a, k)`` tip panel), the
    backward substitution ``L^T x = z`` rides the same ``i = n-1..0``
    loop and the same cached-inverse operands — this is the fused path
    behind :func:`pobtasi_with_solve`.
    """
    L = chol.factor
    n, a = L.n, L.a
    inv = chol.diag_inverses()
    fused = xb is not None

    if a:
        tip_inv = bk.tri_inverse_lower_block(L.tip, backend=chol.get_backend())
        X.tip[...] = tip_inv.T @ tip_inv
        if fused:
            # Solve's tip back-propagation: one flat GEMM over the stack.
            xt[...] = bk.solve_lower_t_block(L.tip, xt, backend=chol.get_backend())
            x_flat = xb.reshape(n * L.b, -1)
            x_flat -= chol.arrow_flat().T @ xt

    cur = None  # backward-solve carry (solution panel of block i + 1)
    for i in range(n - 1, -1, -1):
        inv_i = inv[i]
        has_next = i + 1 < n
        lo = L.lower[i] if has_next else None
        ar = L.arrow[i] if a else None

        if fused:
            cur = inv_i.T @ (xb[i] - lo.T @ cur) if has_next else inv_i.T @ xb[i]
            xb[i] = cur

        if has_next:
            acc_next = X.diag[i + 1] @ lo
            if a:
                acc_next += X.arrow[i + 1].T @ ar
            X.lower[i] = -(acc_next @ inv_i)
            if a:
                X.arrow[i] = -((X.arrow[i + 1] @ lo + X.tip @ ar) @ inv_i)
        elif a:
            X.arrow[i] = -(X.tip @ ar @ inv_i)

        # Diagonal block: L^{-T} is exactly inv_i^T here.
        acc_diag = inv_i.T.copy()
        if has_next:
            acc_diag -= X.lower[i].T @ lo
        if a:
            acc_diag -= X.arrow[i].T @ ar
        X.diag[i] = bk.symmetrize(acc_diag @ inv_i)


def _selinv_diag(chol: BTACholesky, xb=None, xt=None) -> np.ndarray:
    """Diagonal-only Takahashi recursion (carry-based, no ``X`` stacks).

    Every production consumer of the selected inverse — marginal
    variances, exceedance probabilities, the fused mean+variance pass —
    reads only ``diag(A^{-1})``; the full block pattern is needed for
    validation only.  This variant runs the *same* per-step operations as
    :func:`_selinv` (same expressions, same order — the
    returned diagonal is bit-identical) but keeps the ``X[i+1, i+1]`` /
    ``X[t, i+1]`` blocks as loop carries instead of materializing the
    full ``O(n b^2)`` inverse: no block-stack allocation, and the working
    set per step stays cache-resident.  Flop count is unchanged
    (:func:`repro.perfmodel.flops.bta_selected_inversion_flops`).

    Optional ``xb``/``xt`` fuse the backward substitution of a solve
    into the recursion, exactly like :func:`_selinv`.
    """
    L = chol.factor
    n, b, a = L.n, L.b, L.a
    inv = chol.diag_inverses()
    be = chol.get_backend()
    fused = xb is not None
    out = be.empty((L.N,))

    tt = None
    if a:
        tip_inv = bk.tri_inverse_lower_block(L.tip, backend=be)
        tt = tip_inv.T @ tip_inv
        out[n * b :] = be.xp.diagonal(tt)
        if fused:
            xt[...] = bk.solve_lower_t_block(L.tip, xt, backend=be)
            x_flat = xb.reshape(n * b, -1)
            x_flat -= chol.arrow_flat().T @ xt

    cur = None  # backward-solve carry (solution panel of block i + 1)
    x_next = None  # X[i+1, i+1] carry
    xa_next = None  # X[t, i+1] carry
    for i in range(n - 1, -1, -1):
        inv_i = inv[i]
        has_next = i + 1 < n
        lo = L.lower[i] if has_next else None
        ar = L.arrow[i] if a else None

        if fused:
            cur = inv_i.T @ (xb[i] - lo.T @ cur) if has_next else inv_i.T @ xb[i]
            xb[i] = cur

        x_off = None
        if has_next:
            acc_next = x_next @ lo
            if a:
                acc_next += xa_next.T @ ar
            x_off = -(acc_next @ inv_i)
            if a:
                xa = -((xa_next @ lo + tt @ ar) @ inv_i)
        elif a:
            xa = -(tt @ ar @ inv_i)

        acc_diag = inv_i.T.copy()
        if has_next:
            acc_diag -= x_off.T @ lo
        if a:
            acc_diag -= xa.T @ ar
        x_next = bk.symmetrize(acc_diag @ inv_i)
        if a:
            xa_next = xa
        out[i * b : (i + 1) * b] = be.xp.diagonal(x_next)
    return out


def pobtasi(chol: BTACholesky) -> BTAMatrix:
    """Selected inverse of the BTA matrix factorized in ``chol``.

    Returns a :class:`BTAMatrix` whose blocks hold the corresponding blocks
    of ``A^{-1}`` (symmetric; lower-triangle layout like the input).
    """
    X = BTAMatrix.zeros(chol.factor.shape3, backend=chol.get_backend())
    _selinv(chol, X)
    return X


def pobtasi_with_solve(chol: BTACholesky, rhs: np.ndarray) -> tuple:
    """Selected inverse *and* ``A^{-1} rhs`` from one factor, fused.

    The INLA marginals need both the conditional means (a solve) and the
    marginal variances (a selected inversion) at the mode; historically
    that cost two factorizations of ``Qc``.  This entry point reuses one
    :class:`BTACholesky` for both: the forward sweep runs first, then the
    backward substitution rides the same ``i = n-1..0`` recursion (and the
    same cached ``L[i,i]^{-1}`` GEMM operands) as the selected-inversion
    backward pass.  ``rhs`` may be a vector ``(N,)`` or columns ``(N, k)``
    (for row-major ``(k, N)`` stacks go through
    :mod:`repro.structured.multirhs` and transpose).

    Returns ``(X, x)`` — the selected inverse and the solution in the
    layout of ``rhs``.
    """
    from repro.structured.pobtas import _prepare, forward_sweep_panels

    L = chol.factor
    _, x, xb, xt, squeeze = _prepare(chol, rhs)
    forward_sweep_panels(chol, xb, xt, L.a, L.n)
    X = BTAMatrix.zeros(chol.factor.shape3, backend=chol.get_backend())
    _selinv(chol, X, xb=xb, xt=xt)
    return X, (x[:, 0] if squeeze else x)


def selected_inverse_diagonal(chol: BTACholesky) -> np.ndarray:
    """Scalar diagonal of ``A^{-1}`` (the posterior marginal variances).

    Runs the carry-based diagonal-only recursion (:func:`_selinv_diag`) —
    bit-identical values to ``pobtasi(chol).diagonal()`` without
    materializing the full selected inverse.
    """
    return _selinv_diag(chol)


def solve_and_selected_inverse_diagonal(chol: BTACholesky, rhs: np.ndarray) -> tuple:
    """``(x, var)`` — conditional mean and marginal variances, fused.

    The INLA marginals' hot pair, via the diagonal-only Takahashi
    recursion with the solve's backward substitution riding the same
    loop (the carry-based analogue of :func:`pobtasi_with_solve`).
    ``rhs`` may be a vector ``(N,)`` or columns ``(N, k)``.
    """
    from repro.structured.pobtas import _prepare, forward_sweep_panels

    L = chol.factor
    _, x, xb, xt, squeeze = _prepare(chol, rhs)
    forward_sweep_panels(chol, xb, xt, L.a, L.n)
    var = _selinv_diag(chol, xb=xb, xt=xt)
    return (x[:, 0] if squeeze else x), var
