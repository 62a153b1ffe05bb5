"""Per-block nested-dissection reference for the distributed solvers.

Interior elimination, forward and backward sweeps of
:mod:`repro.structured.d_pobtaf` / :mod:`repro.structured.d_pobtas`,
written one block and one SciPy call at a time.  The reduced boundary
system is factorized and solved with the per-block sequential oracle on
every rank.  The collective plumbing (allgather of the boundary
contributions, reduced right-hand-side gather/scatter) is shared with
production: it moves data and does no arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.structured.d_pobtaf import DistributedFactors, LocalBTASlice
from repro.structured.d_pobtas import _gather_reduced_rhs, _scatter_reduced_solution
from repro.structured.reduced_system import BoundaryContribution, ReducedSystem
from tests.oracle import blocked
from tests.oracle.kernels import (
    chol_lower,
    logdet_from_chol_diag,
    right_solve_lower_t,
    solve_lower,
    solve_lower_t,
)


def _eliminate_first_partition(sl: LocalBTASlice):
    """Top-down interior elimination of partition 0 (no fill column)."""
    nl, b, a = sl.part.n_blocks, sl.b, sl.a
    m = nl - 1  # interiors
    ldiag = np.empty((m, b, b))
    lnext = np.empty((m, b, b))
    larrow = np.zeros((m, a, b))
    diag = sl.diag.copy()
    lower = sl.lower.copy()
    arrow = sl.arrow.copy()
    tip_delta = np.zeros((a, a))
    for k in range(m):
        ldiag[k] = chol_lower(diag[k])
        lnext[k] = right_solve_lower_t(ldiag[k], lower[k])
        diag[k + 1] -= lnext[k] @ lnext[k].T
        if a:
            larrow[k] = right_solve_lower_t(ldiag[k], arrow[k])
            arrow[k + 1] -= larrow[k] @ lnext[k].T
            tip_delta -= larrow[k] @ larrow[k].T
    contrib = BoundaryContribution(
        part=sl.part,
        diag_top=None,
        diag_bottom=diag[-1],
        coupling=None,
        lower_prev=None,
        arrow_top=None,
        arrow_bottom=arrow[-1],
        tip_delta=tip_delta,
    )
    return ldiag, lnext, None, larrow, contrib


def _eliminate_middle_partition(sl: LocalBTASlice):
    """Interior elimination maintaining the fill column to the top boundary.

    Eliminating interior block ``j`` (neighbors ``{j+1, s, tip}`` in the
    permuted matrix) performs three TRSMs and six GEMM updates.
    """
    nl, b, a = sl.part.n_blocks, sl.b, sl.a
    m = max(nl - 2, 0)  # interiors between the two boundaries
    ldiag = np.empty((m, b, b))
    lnext = np.empty((m, b, b))
    lfill = np.empty((m, b, b))
    larrow = np.zeros((m, a, b))
    diag = sl.diag.copy()
    lower = sl.lower.copy()
    arrow = sl.arrow.copy()
    tip_delta = np.zeros((a, a))

    # Local indices: boundary top = 0, interiors = 1..nl-2, bottom = nl-1.
    # fill = A[s, j] for the current column j (starts at A[s, s+1] = lower[0]^T).
    fill = lower[0].T.copy() if m > 0 else None
    for k in range(m):
        j = k + 1
        ldiag[k] = chol_lower(diag[j])
        lnext[k] = right_solve_lower_t(ldiag[k], lower[j])
        lfill[k] = right_solve_lower_t(ldiag[k], fill)
        diag[j + 1] -= lnext[k] @ lnext[k].T
        diag[0] -= lfill[k] @ lfill[k].T
        new_fill = -lfill[k] @ lnext[k].T  # A[s, j+1] fill (original entry is 0)
        if a:
            larrow[k] = right_solve_lower_t(ldiag[k], arrow[j])
            arrow[j + 1] -= larrow[k] @ lnext[k].T
            arrow[0] -= larrow[k] @ lfill[k].T
            tip_delta -= larrow[k] @ larrow[k].T
        fill = new_fill
    if m == 0:
        # No interior: boundaries are directly coupled by the original block.
        coupling = lower[0].copy() if nl == 2 else None
    else:
        # The reduced system stores the lower block A[e, s] = fill^T.
        coupling = fill.T.copy()
    contrib = BoundaryContribution(
        part=sl.part,
        diag_top=diag[0] if nl > 1 else None,
        diag_bottom=diag[-1],
        coupling=coupling,
        lower_prev=sl.lower_prev,
        arrow_top=arrow[0] if nl > 1 else None,
        arrow_bottom=arrow[-1],
        tip_delta=tip_delta,
    )
    return ldiag, lnext, lfill, larrow, contrib


def d_pobtaf(sl: LocalBTASlice, comm: Communicator) -> DistributedFactors:
    """Per-block distributed factorization (collective over ``comm``);
    every rank factorizes its own copy of the reduced system."""
    if sl.part.is_first:
        eliminate = _eliminate_first_partition
    else:
        eliminate = _eliminate_middle_partition
    ldiag, lnext, lfill, larrow, contrib = eliminate(sl)
    contributions = sorted(comm.allgather(contrib), key=lambda c: c.part.index)
    reduced = ReducedSystem.assemble(contributions, tip_original=sl.tip)
    return DistributedFactors(
        part=sl.part,
        ldiag=ldiag,
        lnext=lnext,
        lfill=lfill,
        larrow=larrow,
        reduced=reduced,
        reduced_chol=blocked.pobtaf(reduced.matrix),
        b=sl.b,
        a=sl.a,
    )


def d_logdet(factors: DistributedFactors, comm: Communicator) -> float:
    """Global ``log det A`` summed block by block (collective)."""
    local = sum(logdet_from_chol_diag(factors.ldiag[k]) for k in range(factors.n_interior))
    return comm.allreduce_scalar(local) + blocked.logdet(factors.reduced_chol)


def _forward(factors: DistributedFactors, rb, tip_delta) -> None:
    a, m = factors.a, factors.n_interior
    off = 0 if factors.part.is_first else 1  # interiors live at rb[off : off + m]
    for i in range(m):
        j = i + off
        rb[j] = solve_lower(factors.ldiag[i], rb[j])
        rb[j + 1] -= factors.lnext[i] @ rb[j]
        if off:
            rb[0] -= factors.lfill[i] @ rb[j]
        if a:
            tip_delta -= factors.larrow[i] @ rb[j]


def _backward(factors: DistributedFactors, x, x_tip) -> None:
    a, m = factors.a, factors.n_interior
    off = 0 if factors.part.is_first else 1
    for i in range(m - 1, -1, -1):
        j = i + off
        acc = x[j] - factors.lnext[i].T @ x[j + 1]
        if off:
            acc -= factors.lfill[i].T @ x[0]
        if a:
            acc -= factors.larrow[i].T @ x_tip
        x[j] = solve_lower_t(factors.ldiag[i], acc)


def _panels(factors: DistributedFactors, rhs_local, rhs_tip) -> tuple:
    nl, b, a = factors.part.n_blocks, factors.b, factors.a
    rhs_local = np.asarray(rhs_local, dtype=np.float64)
    if rhs_local.shape[0] != nl * b:
        raise ValueError(f"rhs_local leading dim {rhs_local.shape[0]} != {nl * b}")
    r = np.array(rhs_local.reshape(nl * b, -1), copy=True)
    k = r.shape[1]
    rt = np.asarray(rhs_tip, dtype=np.float64).reshape(a, k) if a else np.zeros((0, k))
    return r.reshape(nl, b, k), rt, rhs_local.ndim == 1


def _finish(factors: DistributedFactors, x, x_tip, squeeze: bool) -> tuple:
    x_local = x.reshape(factors.part.n_blocks * factors.b, -1)
    if squeeze:
        return x_local[:, 0], x_tip[:, 0]
    return x_local, x_tip


def d_pobtas(factors: DistributedFactors, rhs_local, rhs_tip, comm: Communicator) -> tuple:
    """Per-block distributed solve ``A x = rhs`` (collective); returns
    ``(x_local, x_tip)`` like :func:`repro.structured.d_pobtas.d_pobtas`."""
    rb, rt, squeeze = _panels(factors, rhs_local, rhs_tip)
    tip_delta = np.zeros(rt.shape)
    _forward(factors, rb, tip_delta)
    rt = rt + comm.Allreduce(tip_delta)
    x_red = blocked.pobtas(factors.reduced_chol, _gather_reduced_rhs(factors, rb, rt, comm))
    x_tip = _scatter_reduced_solution(factors, rb, x_red)
    _backward(factors, rb, x_tip)
    return _finish(factors, rb, x_tip, squeeze)


def d_pobtas_lt(factors: DistributedFactors, rhs_local, rhs_tip, comm: Communicator) -> tuple:
    """Per-block backward-only distributed solve ``L^T x = rhs`` (collective)."""
    rb, rt, squeeze = _panels(factors, rhs_local, rhs_tip)
    x_red = blocked.pobtas_lt(factors.reduced_chol, _gather_reduced_rhs(factors, rb, rt, comm))
    x_tip = _scatter_reduced_solution(factors, rb, x_red)
    _backward(factors, rb, x_tip)
    return _finish(factors, rb, x_tip, squeeze)
