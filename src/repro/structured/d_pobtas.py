"""``d_pobtas`` — distributed triangular solve (the paper's P POBTAS).

Serinv ships distributed factorization and selected inversion but *not* a
distributed triangular solve; the paper contributes this routine
(Sec. IV-E) using the same nested-dissection scheme as ``d_pobtaf``:

1. every rank forward-eliminates its interior right-hand-side entries,
   accumulating updates onto its boundary entries and a tip delta;
2. tip deltas are summed with an ``Allreduce``, boundary entries are
   ``Allgather``-ed into the reduced right-hand side;
3. the reduced BTA system is solved redundantly with the sequential
   ``pobtas``;
4. every rank back-substitutes its interior using the boundary solutions.

The routine is roughly an order of magnitude cheaper than factorization
(``O(n b^2)`` vs ``O(n b^3)`` per right-hand side), which is why the paper
observes it reacts *worse* to load balancing tuned for the ``b^3`` kernels
(Fig. 5 discussion).

The interior sweeps run as GEMMs against the cached ``L[j,j]^{-1}``
stack, and every update that targets a *fixed* entry (the tip delta, the
top-boundary fill accumulation, and the back-propagation of the
boundary/tip solutions) is hoisted out of the loop-carried chain into one
batched ``einsum``/GEMM over the whole interior stack.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.structured import batched as bk
from repro.structured.d_pobtaf import DistributedFactors
from repro.structured.pobtas import pobtas, pobtas_lt


def _forward(factors: DistributedFactors, rb, tip_delta, a: int, m: int) -> None:
    inv = factors.ldiag_inverses()
    first = factors.part.is_first
    off = 0 if first else 1  # interiors live at rb[off : off + m]
    for i in range(m):
        j = i + off
        rb[j] = inv[i] @ rb[j]
        rb[j + 1] -= factors.lnext[i] @ rb[j]
    solved = rb[off : off + m]
    if not first and m:
        # Fill-column accumulation onto the (fixed) top boundary entry:
        # one batched contraction over the whole solved interior stack.
        rb[0] -= np.einsum("ibc,ick->bk", factors.lfill, solved)
    if a and m:
        tip_delta -= np.einsum("iab,ibk->ak", factors.larrow, solved)


def _backward(factors: DistributedFactors, x, x_tip, a: int, m: int) -> None:
    inv_t = factors.ldiag_inverses().transpose(0, 2, 1)
    first = factors.part.is_first
    off = 0 if first else 1
    if m == 0:
        return
    interior = x[off : off + m]
    # The boundary/tip solutions are fixed during the backward sweep, so
    # their propagation into the interior batches across the whole stack.
    if a:
        interior -= bk.batched_gemm(
            factors.larrow.transpose(0, 2, 1), x_tip[None, :, :]
        )
    if not first:
        interior -= bk.batched_gemm(
            factors.lfill.transpose(0, 2, 1), x[0][None, :, :]
        )
    for i in range(m - 1, -1, -1):
        j = i + off
        x[j] = inv_t[i] @ (x[j] - factors.lnext[i].T @ x[j + 1])


def d_pobtas(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
) -> tuple:
    """Solve ``A x = rhs`` with distributed factors (collective over ``comm``).

    Parameters
    ----------
    factors:
        This rank's :class:`DistributedFactors` from ``d_pobtaf``.
    rhs_local:
        This rank's slice of the right-hand side, shape ``(nl * b,)`` or
        ``(nl * b, k)`` where ``nl`` is the partition's block count.
    rhs_tip:
        The arrow-tip right-hand side, replicated on every rank,
        shape ``(a,)`` or ``(a, k)``.

    Returns
    -------
    (x_local, x_tip):
        This rank's solution slice (same shape as ``rhs_local``) and the
        tip solution (identical on every rank).
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior

    rhs_local = np.asarray(rhs_local, dtype=np.float64)
    rhs_tip = np.asarray(rhs_tip, dtype=np.float64)
    squeeze = rhs_local.ndim == 1
    if rhs_local.shape[0] != nl * b:
        raise ValueError(f"rhs_local leading dim {rhs_local.shape[0]} != {nl * b}")
    r = np.array(rhs_local.reshape(nl * b, -1), copy=True)
    k = r.shape[1]
    rb = r.reshape(nl, b, k)
    tip_delta = np.zeros((a, k))

    # ---- forward: eliminate interior unknowns ---------------------------
    _forward(factors, rb, tip_delta, a, m)

    # ---- reduced right-hand side ----------------------------------------
    if a:
        tip_sum = comm.Allreduce(tip_delta)
        rt = rhs_tip.reshape(a, -1) + tip_sum
    else:
        comm.Allreduce(tip_delta)  # keep the collective schedule uniform
        rt = np.zeros((0, k))

    r_red = _gather_reduced_rhs(factors, rb, rt, comm)

    x_red = pobtas(factors.reduced_chol, r_red)

    # ---- backward: recover interior unknowns -----------------------------
    x = rb  # solve in place; boundary slots receive the reduced solution
    x_tip = _scatter_reduced_solution(factors, x, x_red)

    _backward(factors, x, x_tip, a, m)

    x_local = x.reshape(nl * b, k)
    if squeeze:
        return x_local[:, 0], x_tip[:, 0]
    return x_local, x_tip


def _boundary_panels(factors: DistributedFactors, rb: np.ndarray) -> np.ndarray:
    """This rank's boundary rows of ``rb`` (the Allgather payload)."""
    pos_top, pos_bottom = factors.positions
    if pos_top is None or pos_top == pos_bottom:
        return rb[-1]
    return np.concatenate([rb[0], rb[-1]], axis=0)


def _reduced_from_gathered(
    factors: DistributedFactors, gathered: list, rt: np.ndarray, k: int
) -> np.ndarray:
    """Scatter gathered boundary pieces into the ``(mr b + a, k)`` reduced RHS."""
    b, a = factors.b, factors.a
    mr = factors.reduced.m
    r_red = np.zeros((mr * b + a, k))
    for p, piece in enumerate(gathered):
        top, bottom = factors.reduced.positions[p]
        if top is None or top == bottom:
            r_red[bottom * b : (bottom + 1) * b] = piece
        else:
            r_red[top * b : (top + 1) * b] = piece[:b]
            r_red[bottom * b : (bottom + 1) * b] = piece[b:]
    if a:
        r_red[mr * b :] = rt
    return r_red


def _gather_reduced_rhs(
    factors: DistributedFactors, rb: np.ndarray, rt: np.ndarray, comm: Communicator
) -> np.ndarray:
    """Allgather the per-rank boundary entries into the reduced RHS.

    ``rb`` is this rank's ``(nl, b, k)`` right-hand-side panels (boundary
    slots carry the boundary entries) and ``rt`` the ``(a, k)`` tip RHS
    (identical on every rank).  One collective per call, whatever ``k``.
    """
    gathered = comm.Allgather(np.ascontiguousarray(_boundary_panels(factors, rb)))
    return _reduced_from_gathered(factors, gathered, rt, rb.shape[-1])


def _scatter_reduced_solution(
    factors: DistributedFactors, x: np.ndarray, x_red: np.ndarray
) -> np.ndarray:
    """Place this rank's boundary slots from the reduced solution.

    Writes the top/bottom boundary panels of ``x`` in place and returns
    the ``(a, k)`` tip solution (identical on every rank).
    """
    b = factors.b
    pos_top, pos_bottom = factors.positions
    if pos_top is not None:
        x[0] = x_red[pos_top * b : (pos_top + 1) * b]
    x[-1] = x_red[pos_bottom * b : (pos_bottom + 1) * b]
    return x_red[factors.reduced.m * b :]


def d_pobtas_lt(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
) -> tuple:
    """Backward-only distributed solve ``L^T x = rhs`` (collective).

    The distributed sampling primitive (paper's S3-scale analogue of
    :func:`repro.structured.pobtas.pobtas_lt`): with ``z ~ N(0, I)`` the
    solution ``x = L^{-T} z`` is an exact draw from ``N(0, A^{-1})``.
    Here ``L`` is the *nested-dissection* Cholesky factor of the
    symmetrically permuted matrix (interiors first, boundaries last), so
    the solution differs sample-by-sample from the sequential
    ``pobtas_lt`` — but its covariance is exactly ``A^{-1}``, which is the
    sampling contract (``x^T A x = z^T z`` holds identically; see
    ``tests/structured/test_distributed_lt.py``).

    The sweep needs a single ``Allgather`` (of the boundary right-hand
    sides) per call — one collective round for a whole ``(nl b, k)``
    stack: in the permuted ordering ``L^T`` is upper-triangular with the
    boundary block last, so the reduced system solves first
    (redundantly, via the sequential ``pobtas_lt``) and the interiors
    back-substitute without further communication.

    Parameters mirror :func:`d_pobtas`; returns ``(x_local, x_tip)``.
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior

    rhs_local = np.asarray(rhs_local, dtype=np.float64)
    rhs_tip = np.asarray(rhs_tip, dtype=np.float64)
    squeeze = rhs_local.ndim == 1
    if rhs_local.shape[0] != nl * b:
        raise ValueError(f"rhs_local leading dim {rhs_local.shape[0]} != {nl * b}")
    r = np.array(rhs_local.reshape(nl * b, -1), copy=True)
    k = r.shape[1]
    rb = r.reshape(nl, b, k)
    rt = rhs_tip.reshape(a, -1) if a else np.zeros((0, k))

    # ---- reduced system first: (L^T)[B, B] = L_red^T is the trailing
    # block of the permuted upper-triangular system, so the boundary/tip
    # unknowns close without any interior contribution.
    r_red = _gather_reduced_rhs(factors, rb, rt, comm)
    x_red = pobtas_lt(factors.reduced_chol, r_red)

    # ---- interiors: pure local back-substitution against the boundary
    # and tip solutions (no further collectives).
    x = rb
    x_tip = _scatter_reduced_solution(factors, x, x_red)
    _backward(factors, x, x_tip, a, m)

    x_local = x.reshape(nl * b, k)
    if squeeze:
        return x_local[:, 0], x_tip[:, 0]
    return x_local, x_tip


def _lane_views(rhs_local: np.ndarray, rhs_tip: np.ndarray, widths, nl_b: int, a: int):
    """Split column-concatenated lanes back into per-lane contiguous copies.

    Each lane is copied out at its *own* width: the GEMM panel shapes —
    and therefore the floating-point bits — of every per-lane sweep then
    match the standalone :func:`d_pobtas` call on that lane exactly,
    which is the lanes contract the tests assert.
    """
    rhs_local = np.asarray(rhs_local, dtype=np.float64)
    rhs_tip = np.asarray(rhs_tip, dtype=np.float64)
    widths = [int(w) for w in widths]
    K = sum(widths)
    if rhs_local.shape != (nl_b, K):
        raise ValueError(f"rhs_local must be ({nl_b}, {K}), got {rhs_local.shape}")
    if rhs_tip.shape != (a, K):
        raise ValueError(f"rhs_tip must be ({a}, {K}), got {rhs_tip.shape}")
    locs, tips, off = [], [], 0
    for w in widths:
        locs.append(np.array(rhs_local[:, off : off + w], order="C", copy=True))
        tips.append(np.array(rhs_tip[:, off : off + w], order="C", copy=True))
        off += w
    return locs, tips, widths, K


def d_pobtas_lanes(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
    widths,
) -> tuple:
    """Multi-lane distributed solve: one collective round for many stacks.

    ``rhs_local`` is the column concatenation of several independent
    right-hand-side stacks ("lanes") of widths ``widths`` — this rank's
    slices — and ``rhs_tip`` the matching ``(a, sum(widths))`` tip block.
    Each lane's interior sweeps and reduced-system solve run at the
    lane's *exact* width (bit-identical to a standalone :func:`d_pobtas`
    per lane: the collectives are element-wise/concatenating, so a
    column's bits never depend on its neighbors), but the tip-delta
    ``Allreduce`` and the boundary ``Allgather`` each fire ONCE for the
    whole lane set instead of once per lane — the k-collectives-to-one
    batching of the serving sweep groups.

    Returns ``(x_local, x_tip)`` in the same column-concatenated layout.
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior
    locs, tips, widths, K = _lane_views(rhs_local, rhs_tip, widths, nl * b, a)

    # ---- forward: per-lane interior elimination (local, exact widths) ---
    rbs, tip_deltas = [], []
    for r in locs:
        rb = r.reshape(nl, b, -1)
        tip_delta = np.zeros((a, rb.shape[-1]))
        _forward(factors, rb, tip_delta, a, m)
        rbs.append(rb)
        tip_deltas.append(tip_delta)

    # ---- ONE Allreduce for every lane's tip delta -----------------------
    tip_all = comm.Allreduce(np.ascontiguousarray(np.concatenate(tip_deltas, axis=1)))
    rts = []
    off = 0
    for rt, w in zip(tips, widths):
        rts.append(rt + tip_all[:, off : off + w] if a else np.zeros((0, w)))
        off += w

    # ---- ONE Allgather for every lane's boundary panels -----------------
    mine = np.concatenate([_boundary_panels(factors, rb) for rb in rbs], axis=1)
    gathered = comm.Allgather(np.ascontiguousarray(mine))

    # ---- per-lane reduced solve + backward sweep (local, exact widths) --
    xls, xts = [], []
    off = 0
    for rb, rt, w in zip(rbs, rts, widths):
        piece = [np.array(g[:, off : off + w], order="C", copy=True) for g in gathered]
        r_red = _reduced_from_gathered(factors, piece, rt, w)
        x_red = pobtas(factors.reduced_chol, r_red)
        x = rb
        x_tip = _scatter_reduced_solution(factors, x, x_red)
        _backward(factors, x, x_tip, a, m)
        xls.append(x.reshape(nl * b, w))
        xts.append(x_tip)
        off += w
    return np.concatenate(xls, axis=1), np.concatenate(xts, axis=1)


def d_pobtas_lt_lanes(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
    widths,
) -> tuple:
    """Multi-lane backward-only distributed solve (one Allgather total).

    The ``L^T`` sibling of :func:`d_pobtas_lanes` — no forward sweep, no
    Allreduce; the single boundary ``Allgather`` carries every lane.
    Per-lane math at exact widths, bit-identical to standalone
    :func:`d_pobtas_lt` calls.
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior
    locs, tips, widths, K = _lane_views(rhs_local, rhs_tip, widths, nl * b, a)

    rbs = [r.reshape(nl, b, -1) for r in locs]
    rts = [rt if a else np.zeros((0, w)) for rt, w in zip(tips, widths)]

    mine = np.concatenate([_boundary_panels(factors, rb) for rb in rbs], axis=1)
    gathered = comm.Allgather(np.ascontiguousarray(mine))

    xls, xts = [], []
    off = 0
    for rb, rt, w in zip(rbs, rts, widths):
        piece = [np.array(g[:, off : off + w], order="C", copy=True) for g in gathered]
        r_red = _reduced_from_gathered(factors, piece, rt, w)
        x_red = pobtas_lt(factors.reduced_chol, r_red)
        x = rb
        x_tip = _scatter_reduced_solution(factors, x, x_red)
        _backward(factors, x, x_tip, a, m)
        xls.append(x.reshape(nl * b, w))
        xts.append(x_tip)
        off += w
    return np.concatenate(xls, axis=1), np.concatenate(xts, axis=1)
