"""``d_pobtasi`` — distributed selected inversion of a BTA matrix.

Given the distributed factors of ``d_pobtaf``, computes the selected
inverse (the blocks of ``A^{-1}`` inside the BTA pattern) with the same
nested-dissection decomposition:

1. every rank selected-inverts the reduced boundary system redundantly
   with the sequential ``pobtasi`` (it already holds the reduced factor);
2. every rank then sweeps its interior *backwards*, propagating the
   boundary inverse blocks inward with the Takahashi recursion restricted
   to the permuted sparsity pattern ``{j+1, s, tip}``.

Step 2 is embarrassingly parallel — no communication at all — which is
why the selected inversion weak-scales like the factorization in the
paper's Fig. 5.

The interior sweep's right-divisions by ``L[j, j]`` are GEMMs against the
rank's cached ``L[j,j]^{-1}`` stack (computed in one batched triangular
inversion over the independent interior factors), so each recursion step
is pure batched-GEMM work.

Production consumers read only ``diag(A^{-1})`` (marginal variances):
:func:`d_pobtasi_diag` mirrors the sequential carry-based recursion
(:func:`repro.structured.pobtasi._selinv_diag`) per rank — the
same per-step operations and order as :func:`d_pobtasi`, but the
``X[j+1, j+1]`` / ``X[s, j+1]`` / ``X[t, j+1]`` blocks stay loop carries
instead of materializing the full ``O(n_local b^2)`` inverse slice.
"""

from __future__ import annotations

import numpy as np

from repro.structured.d_pobtaf import DistributedFactors, LocalBTASlice
from repro.structured.pobtasi import pobtasi


def _symmetrize(block: np.ndarray) -> np.ndarray:
    return 0.5 * (block + block.T)


def d_pobtasi(factors: DistributedFactors) -> LocalBTASlice:
    """This rank's slice of the selected inverse (no communication needed).

    Returns a :class:`LocalBTASlice` holding the inverse blocks for the
    rank's partition: diagonal blocks, within-slice sub-diagonal blocks,
    arrow blocks, the (replicated) tip inverse, and — for partitions
    ``p >= 1`` — the inter-partition coupling block ``X[s_p, s_p - 1]``.
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior
    Xr = pobtasi(factors.reduced_chol)
    pos_top, pos_bottom = factors.positions
    if m:
        inv = factors.ldiag_inverses()
        inv_t = inv.transpose(0, 2, 1)

    diag_out = np.empty((nl, b, b))
    lower_out = np.empty((max(nl - 1, 0), b, b))
    arrow_out = np.empty((nl, a, b))
    tip_out = Xr.tip.copy()

    if part.is_first:
        x_next = Xr.diag[pos_bottom]  # X[j+1, j+1], starts at the boundary
        xa_next = Xr.arrow[pos_bottom]  # X[t, j+1]
        diag_out[-1] = x_next
        arrow_out[-1] = xa_next
        for k in range(m - 1, -1, -1):
            en, ea = factors.lnext[k], factors.larrow[k]
            acc = x_next @ en
            if a:
                acc += xa_next.T @ ea
            x_off = -(acc @ inv[k])  # X[j+1, j]
            if a:
                x_arr = -((xa_next @ en + tip_out @ ea) @ inv[k])  # X[t, j]
            else:
                x_arr = np.zeros((a, b))
            acc_d = inv_t[k].copy() - x_off.T @ en
            if a:
                acc_d -= x_arr.T @ ea
            x_diag = _symmetrize(acc_d @ inv[k])
            lower_out[k] = x_off
            arrow_out[k] = x_arr
            diag_out[k] = x_diag
            x_next, xa_next = x_diag, x_arr
        return LocalBTASlice(
            part=part,
            diag=diag_out,
            lower=lower_out,
            arrow=arrow_out,
            tip=tip_out,
            lower_prev=None,
        )

    # ---- partitions p >= 1 ------------------------------------------------
    x_ss = Xr.diag[pos_top]  # X[s, s]
    x_ts = Xr.arrow[pos_top]  # X[t, s]
    lower_prev_out = Xr.lower[pos_top - 1].copy()  # X[s_p, e_{p-1}]
    diag_out[0] = x_ss
    arrow_out[0] = x_ts

    if nl == 1:
        return LocalBTASlice(
            part=part,
            diag=diag_out,
            lower=lower_out,
            arrow=arrow_out,
            tip=tip_out,
            lower_prev=lower_prev_out,
        )

    x_next = Xr.diag[pos_bottom]  # X[e, e]
    xa_next = Xr.arrow[pos_bottom]  # X[t, e]
    xs_next = Xr.lower[pos_top].T  # X[s, e]  (reduced stores X[e, s])
    diag_out[-1] = x_next
    arrow_out[-1] = xa_next
    if m == 0:
        # Two boundary blocks, no interior: the within-slice coupling is
        # exactly the reduced off-diagonal block.
        lower_out[0] = Xr.lower[pos_top]
        return LocalBTASlice(
            part=part,
            diag=diag_out,
            lower=lower_out,
            arrow=arrow_out,
            tip=tip_out,
            lower_prev=lower_prev_out,
        )

    xs_j = None  # X[s, j] from the previous iteration (for lower_out[0])
    for k in range(m - 1, -1, -1):
        j = k + 1  # local index of the interior block
        en, ef, ea = factors.lnext[k], factors.lfill[k], factors.larrow[k]
        # X[j+1, j]
        acc = x_next @ en + xs_next.T @ ef
        if a:
            acc += xa_next.T @ ea
        x_off = -(acc @ inv[k])
        # X[s, j]
        acc_s = xs_next @ en + x_ss @ ef
        if a:
            acc_s += x_ts.T @ ea
        xs_j = -(acc_s @ inv[k])
        # X[t, j]
        if a:
            x_arr = -((xa_next @ en + x_ts @ ef + tip_out @ ea) @ inv[k])
        else:
            x_arr = np.zeros((a, b))
        # X[j, j]
        acc_d = inv_t[k].copy() - x_off.T @ en - xs_j.T @ ef
        if a:
            acc_d -= x_arr.T @ ea
        x_diag = _symmetrize(acc_d @ inv[k])

        lower_out[j] = x_off
        arrow_out[j] = x_arr
        diag_out[j] = x_diag
        x_next, xs_next, xa_next = x_diag, xs_j, x_arr
    # The coupling between the top boundary and the first interior block:
    # X[s+1, s] = X[s, s+1]^T, computed in the last iteration above.
    lower_out[0] = xs_j.T
    return LocalBTASlice(
        part=part,
        diag=diag_out,
        lower=lower_out,
        arrow=arrow_out,
        tip=tip_out,
        lower_prev=lower_prev_out,
    )


def d_pobtasi_diag(factors: DistributedFactors) -> tuple:
    """This rank's slice of ``diag(A^{-1})`` — carry-based, no full slice.

    Returns ``(diag_local, tip_diag)``: the scalar diagonal over the
    rank's partition (length ``n_local * b``) and the (replicated) tip
    diagonal (length ``a``).  Runs the *same* per-step expressions in the
    same order as :func:`d_pobtasi` — the returned diagonal is
    bit-identical — but keeps the previous block's inverse blocks as loop
    carries, so no ``(n_local, b, b)`` inverse stacks are ever
    materialized (only the small reduced boundary system is still
    selected-inverted in full).
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior
    Xr = pobtasi(factors.reduced_chol)
    pos_top, pos_bottom = factors.positions
    tip_out = Xr.tip
    tip_diag = np.ascontiguousarray(np.diagonal(tip_out))
    diag_out = np.empty((nl, b))

    if m:
        inv = factors.ldiag_inverses()
        inv_t = inv.transpose(0, 2, 1)

    if part.is_first:
        x_next = Xr.diag[pos_bottom]  # X[j+1, j+1] carry, starts at the boundary
        xa_next = Xr.arrow[pos_bottom]  # X[t, j+1] carry
        diag_out[-1] = np.diagonal(x_next)
        for k in range(m - 1, -1, -1):
            en, ea = factors.lnext[k], factors.larrow[k]
            acc = x_next @ en
            if a:
                acc += xa_next.T @ ea
            x_off = -(acc @ inv[k])  # X[j+1, j]
            if a:
                x_arr = -((xa_next @ en + tip_out @ ea) @ inv[k])  # X[t, j]
            acc_d = inv_t[k].copy() - x_off.T @ en
            if a:
                acc_d -= x_arr.T @ ea
            x_next = _symmetrize(acc_d @ inv[k])
            if a:
                xa_next = x_arr
            diag_out[k] = np.diagonal(x_next)
        return diag_out.ravel(), tip_diag

    # ---- partitions p >= 1 ------------------------------------------------
    x_ss = Xr.diag[pos_top]  # X[s, s]
    x_ts = Xr.arrow[pos_top]  # X[t, s]
    diag_out[0] = np.diagonal(x_ss)
    if nl == 1:
        return diag_out.ravel(), tip_diag

    x_next = Xr.diag[pos_bottom]  # X[e, e] carry
    xa_next = Xr.arrow[pos_bottom]  # X[t, e] carry
    xs_next = Xr.lower[pos_top].T  # X[s, e] carry (reduced stores X[e, s])
    diag_out[-1] = np.diagonal(x_next)
    for k in range(m - 1, -1, -1):
        j = k + 1  # local index of the interior block
        en, ef, ea = factors.lnext[k], factors.lfill[k], factors.larrow[k]
        acc = x_next @ en + xs_next.T @ ef  # X[j+1, j]
        if a:
            acc += xa_next.T @ ea
        x_off = -(acc @ inv[k])
        acc_s = xs_next @ en + x_ss @ ef  # X[s, j]
        if a:
            acc_s += x_ts.T @ ea
        xs_j = -(acc_s @ inv[k])
        if a:
            x_arr = -((xa_next @ en + x_ts @ ef + tip_out @ ea) @ inv[k])  # X[t, j]
        acc_d = inv_t[k].copy() - x_off.T @ en - xs_j.T @ ef
        if a:
            acc_d -= x_arr.T @ ea
        x_next = _symmetrize(acc_d @ inv[k])
        xs_next = xs_j
        if a:
            xa_next = x_arr
        diag_out[j] = np.diagonal(x_next)
    return diag_out.ravel(), tip_diag


def gather_selected_inverse(slices: list) -> "np.ndarray":
    """Stitch per-rank selected-inverse slices into dense blocks (test helper).

    Returns a dense ``N x N`` matrix holding the selected entries (zeros
    elsewhere).  Only for small validation problems.
    """
    from repro.structured.bta import BTAMatrix

    slices = sorted(slices, key=lambda s: s.part.index)
    n = slices[-1].part.stop
    b = slices[0].b
    a = slices[0].a
    diag = np.zeros((n, b, b))
    lower = np.zeros((max(n - 1, 0), b, b))
    arrow = np.zeros((n, a, b))
    for sl in slices:
        s, e = sl.part.start, sl.part.stop
        diag[s:e] = sl.diag
        lower[s : e - 1] = sl.lower
        arrow[s:e] = sl.arrow
        if sl.lower_prev is not None:
            lower[s - 1] = sl.lower_prev
    return BTAMatrix(diag, lower, arrow, slices[0].tip).to_dense()
