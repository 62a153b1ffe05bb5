"""``d_pobtaf`` — distributed Cholesky factorization of a BTA matrix.

Nested-dissection factorization across ``P`` time-domain partitions
(paper Sec. IV-C/D3).  Each rank owns a contiguous slice of diagonal
blocks and eliminates its *interior*:

- partition 0 eliminates top-down, exactly like the sequential ``pobtaf``
  restricted to its slice (one TRSM + two GEMM updates per block);
- partitions ``p >= 1`` eliminate their interior while maintaining a fill
  coupling to their top boundary block, which roughly doubles the
  per-block work — this is the load imbalance the paper's ``lb`` factor
  compensates (Fig. 5).

The remaining boundary blocks form a reduced BTA system of ``2P - 1``
blocks (see :mod:`repro.structured.reduced_system`), allgathered with the
same all-to-all pattern NCCL executes in the paper and factorized ONCE
per epoch via :func:`~repro.structured.reduced_system.factorize_reduced`
(rank 0 sweeps, the factor is broadcast).

Each interior elimination step fuses the operands that feed back into the
chain (the next coupling and, for ``p >= 1``, the fill column) into one
GEMM against the explicit ``L^{-T}`` and one ``G G^T`` Schur GEMM whose
tiles land on ``{diag, fill}`` — the same fusion the sequential
``pobtaf`` uses, applied to the permuted sparsity pattern
``{j+1, s, tip}``.  The arrow row is deferred into a GEMM substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.communicator import Communicator
from repro.structured import batched as bk
from repro.structured.bta import BTAMatrix
from repro.structured.partition import Partition, balanced_partitions
from repro.structured.pobtaf import BTACholesky
from repro.structured.reduced_system import (
    BoundaryContribution,
    ReducedSystem,
    factorize_reduced,
)


@dataclass
class LocalBTASlice:
    """One rank's slice of a global BTA matrix.

    ``diag``/``arrow`` cover global blocks ``[part.start, part.stop)``;
    ``lower`` holds the couplings *within* the slice (``A[j+1, j]`` for
    ``j`` in ``[start, stop-1)``); ``lower_prev`` is the coupling to the
    previous partition (``A[start, start-1]``, None for partition 0);
    ``tip`` is replicated on every rank (it is only ``a x a``).
    """

    part: Partition
    diag: np.ndarray
    lower: np.ndarray
    arrow: np.ndarray
    tip: np.ndarray
    lower_prev: np.ndarray | None

    def __post_init__(self):
        nl = self.part.n_blocks
        b = self.diag.shape[1]
        a = self.tip.shape[0]
        if self.diag.shape != (nl, b, b):
            raise ValueError(f"diag shape {self.diag.shape} != {(nl, b, b)}")
        if self.lower.shape != (max(nl - 1, 0), b, b):
            raise ValueError(f"lower shape {self.lower.shape} != {(nl - 1, b, b)}")
        if self.arrow.shape != (nl, a, b):
            raise ValueError(f"arrow shape {self.arrow.shape} != {(nl, a, b)}")
        if (self.lower_prev is None) != self.part.is_first:
            raise ValueError("lower_prev must be given exactly for partitions p >= 1")

    @property
    def b(self) -> int:
        return self.diag.shape[1]

    @property
    def a(self) -> int:
        return self.tip.shape[0]

    @classmethod
    def from_global(cls, A: BTAMatrix, part: Partition) -> "LocalBTASlice":
        """Cut one partition's slice out of a fully assembled matrix (tests)."""
        s, e = part.start, part.stop
        return cls(
            part=part,
            diag=A.diag[s:e].copy(),
            lower=A.lower[s : e - 1].copy(),
            arrow=A.arrow[s:e].copy(),
            tip=A.tip.copy(),
            lower_prev=None if part.is_first else A.lower[s - 1].copy(),
        )


@dataclass
class DistributedFactors:
    """Per-rank result of ``d_pobtaf``.

    Interior factor stacks are indexed in elimination order (ascending
    global block index over ``part.interior()``):

    - ``ldiag[k]``  — lower Cholesky factor of interior block ``j_k``
    - ``lnext[k]``  — ``L[j_k + 1, j_k]``
    - ``lfill[k]``  — ``L[s_p, j_k]`` (fill column; partitions ``p >= 1`` only)
    - ``larrow[k]`` — ``L[tip, j_k]``

    ``reduced`` is the assembled reduced boundary system and
    ``reduced_chol`` its (epoch-shared) Cholesky factor.
    """

    part: Partition
    ldiag: np.ndarray
    lnext: np.ndarray
    lfill: np.ndarray | None
    larrow: np.ndarray
    reduced: ReducedSystem
    reduced_chol: BTACholesky
    b: int
    a: int
    _ldiag_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_interior(self) -> int:
        return self.ldiag.shape[0]

    @property
    def positions(self) -> tuple:
        """(top, bottom) reduced positions of this rank's boundaries."""
        return self.reduced.positions[self.part.index]

    def ldiag_inverses(self) -> np.ndarray:
        """Stacked ``L[j_k, j_k]^{-1}`` over this rank's interior — one
        genuinely batched call (the interiors are independent blocks)."""
        if self._ldiag_inv is None:
            self._ldiag_inv = bk.batched_tri_inverse_lower(self.ldiag)
        return self._ldiag_inv

    def logdet(self, comm: Communicator) -> float:
        """Global ``log det A``: interior contributions summed across ranks
        plus the reduced-system determinant (identical on every rank)."""
        local = bk.batched_logdet_from_chol_diag(self.ldiag)
        total = comm.allreduce_scalar(local)
        return total + self.reduced_chol.logdet()


def _eliminate_first_partition(sl: LocalBTASlice):
    """Top-down interior elimination of partition 0 (no fill column).

    Like the sequential ``pobtaf``: the BT chain runs one POTRF +
    TRTRI per step with the TRSMs realized as GEMMs against the explicit
    triangular inverse (returned stacked, for reuse by ``d_pobtas`` /
    ``d_pobtasi``); the arrow row is deferred into a GEMM substitution
    whose tip update batches over the whole interior stack.
    """
    nl, b, a = sl.part.n_blocks, sl.b, sl.a
    m = nl - 1
    ldiag = np.empty((m, b, b))
    linv = np.empty((m, b, b))
    lnext = np.empty((m, b, b))
    larrow = np.zeros((m, a, b))
    diag = sl.diag.copy()
    lower = sl.lower.copy()
    arrow = sl.arrow.copy()
    tip_delta = np.zeros((a, a))
    chol_inv = bk.chol_and_inverse_block
    for k in range(m):
        li, inv_k = chol_inv(diag[k])
        ldiag[k] = li
        linv[k] = inv_k
        G = lower[k] @ inv_k.T
        lnext[k] = G
        diag[k + 1] -= G @ G.T
    if a and m:
        cur = arrow[0] @ linv[0].T
        larrow[0] = cur
        for k in range(1, m):
            cur = (arrow[k] - cur @ lnext[k - 1].T) @ linv[k].T
            larrow[k] = cur
        # Boundary arrow block: Schur-updated by the last interior column.
        arrow[m] -= cur @ lnext[m - 1].T
        tip_delta -= np.einsum("iab,icb->ac", larrow, larrow)
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
    return ldiag, lnext, None, larrow, contrib, linv


def _eliminate_middle_partition(sl: LocalBTASlice):
    """Interior elimination maintaining the fill column to the top boundary.

    Eliminating interior block ``j`` (neighbors ``{j+1, s, tip}`` in the
    permuted matrix) is twice the work of a partition-0 step — the source
    of the paper's load-imbalance discussion.  The loop-carried chain
    fuses the two ``b x b`` operands that feed back into it — the next
    coupling and the fill column — into one GEMM against ``L^{-T}`` and
    one Schur GEMM whose tiles update ``{diag[j+1], diag[s], fill}``.
    The arrow row is deferred like in the sequential solver; its
    accumulations onto the two boundary targets (top-boundary arrow and
    tip delta) batch over the whole interior stack as single
    contractions.
    """
    nl, b, a = sl.part.n_blocks, sl.b, sl.a
    m = max(nl - 2, 0)
    ldiag = np.empty((m, b, b))
    linv = np.empty((m, b, b))
    lnext = np.empty((m, b, b))
    lfill = np.empty((m, b, b))
    larrow = np.zeros((m, a, b))
    diag = sl.diag.copy()
    lower = sl.lower.copy()
    arrow = sl.arrow.copy()
    tip_delta = np.zeros((a, a))
    chol_inv = bk.chol_and_inverse_block

    fill = lower[0].T.copy() if m > 0 else None
    for k in range(m):
        j = k + 1
        li, inv_k = chol_inv(diag[j])
        ldiag[k] = li
        linv[k] = inv_k
        G = np.concatenate([lower[j], fill], axis=0) @ inv_k.T
        S = G @ G.T
        lnext[k] = G[:b]
        lfill[k] = G[b:]
        diag[j + 1] -= S[:b, :b]
        diag[0] -= S[b:, b:]
        fill = -S[b:, :b]  # -lfill @ lnext^T: A[s, j+1] fill
    if a and m:
        cur = arrow[1] @ linv[0].T
        larrow[0] = cur
        for k in range(1, m):
            cur = (arrow[k + 1] - cur @ lnext[k - 1].T) @ linv[k].T
            larrow[k] = cur
        # Bottom-boundary arrow: updated by the last interior column.
        arrow[-1] -= cur @ lnext[m - 1].T
        # Top-boundary arrow and tip delta: batched over the whole stack.
        arrow[0] -= np.einsum("iab,icb->ac", larrow, lfill)
        tip_delta -= np.einsum("iab,icb->ac", larrow, larrow)
    if m == 0:
        coupling = lower[0].copy() if nl == 2 else None
    else:
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
    return ldiag, lnext, lfill, larrow, contrib, linv


def d_pobtaf(sl: LocalBTASlice, comm: Communicator) -> DistributedFactors:
    """Distributed BTA Cholesky factorization (collective over ``comm``).

    Every rank passes its :class:`LocalBTASlice`; partition indices must
    equal communicator ranks.  Returns this rank's
    :class:`DistributedFactors`, including the reduced-system factor
    (factorized once per epoch and broadcast — see
    :func:`repro.structured.reduced_system.factorize_reduced`).
    """
    if sl.part.index != comm.Get_rank():
        raise ValueError(
            f"partition index {sl.part.index} != communicator rank {comm.Get_rank()}"
        )
    eliminate = _eliminate_first_partition if sl.part.is_first else _eliminate_middle_partition
    ldiag, lnext, lfill, larrow, contrib, linv = eliminate(sl)

    contributions = comm.allgather(contrib)
    contributions.sort(key=lambda c: c.part.index)
    reduced = ReducedSystem.assemble(contributions, tip_original=sl.tip)
    # One factorization per epoch (rank 0 sweeps, everyone gets the factor)
    # instead of the historical P redundant per-rank sweeps.
    reduced_chol = factorize_reduced(reduced, comm)
    return DistributedFactors(
        part=sl.part,
        ldiag=ldiag,
        lnext=lnext,
        lfill=lfill,
        larrow=larrow,
        reduced=reduced,
        reduced_chol=reduced_chol,
        b=sl.b,
        a=sl.a,
        _ldiag_inv=linv,
    )


def partition_matrix(A: BTAMatrix, P: int, *, lb: float = 1.0) -> list:
    """Split a fully assembled BTA matrix into ``P`` rank slices (driver/test helper)."""
    parts = balanced_partitions(A.n, P, lb=lb)
    return [LocalBTASlice.from_global(A, part) for part in parts]
