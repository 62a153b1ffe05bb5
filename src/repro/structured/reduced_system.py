"""Reduced (separator) system of the nested-dissection scheme.

Eliminating every partition's interior blocks leaves a system coupling only
the partition *boundary* blocks and the arrow tip.  With partitions
``p = 0..P-1`` the boundary blocks, in global order, are::

    [e_0,  s_1, e_1,  s_2, e_2,  ...,  s_{P-1}, e_{P-1}]

(``s_p``/``e_p`` = first/last block of partition ``p``; partition 0 has no
top boundary).  Consecutive boundary blocks are coupled either by an
original off-diagonal block (``e_p`` to ``s_{p+1} = e_p + 1``) or by the
fill block created through partition ``p``'s interior (``s_p`` to ``e_p``),
so the reduced system is itself a BTA matrix with ``2P - 1`` diagonal
blocks — this is what lets the same sequential kernels solve it.

Factorizing it is a collective concern: every rank needs the factor (the
backward/selected-inverse sweeps start from it), but the system is tiny
compared to the partitions, so the historical scheme — every rank runs
its own ``pobtaf`` on its own assembled copy — wastes ``P - 1``
factorizations per epoch and only looked free because ranks were
simulated threads.  :func:`factorize_reduced` replaces it: rank 0
factorizes ONCE and broadcasts the factor's block stacks; under the
thread backend the broadcast is a zero-copy reference hand-off, under the
process/MPI backends it is one small message instead of ``P`` redundant
sweeps.  The broadcast factor is bit-identical to the one any rank would
compute itself — every rank assembled the same reduced matrix from the
same ordered contributions, and ``pobtaf`` is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.communicator import Communicator
from repro.structured.bta import BTAMatrix
from repro.structured.partition import Partition


@dataclass
class BoundaryContribution:
    """Schur-complement data one partition contributes to the reduced system.

    All arrays are the partition's *updated* copies (original block plus
    accumulated Schur updates from the partition's interior elimination).
    """

    part: Partition
    #: updated top-boundary diagonal block ``A[s, s]`` (None for partition 0)
    diag_top: np.ndarray | None
    #: updated bottom-boundary diagonal block ``A[e, e]``
    diag_bottom: np.ndarray
    #: coupling ``A[e, s]`` through the interior (None for partition 0 and
    #: for single-boundary partitions)
    coupling: np.ndarray | None
    #: original inter-partition coupling ``A[s, s-1]`` (None for partition 0)
    lower_prev: np.ndarray | None
    #: updated arrow blocks ``A[t, s]`` / ``A[t, e]``
    arrow_top: np.ndarray | None
    arrow_bottom: np.ndarray
    #: this partition's Schur update to the arrow tip (a, a)
    tip_delta: np.ndarray


@dataclass
class ReducedSystem:
    """Assembled reduced BTA system plus the position bookkeeping."""

    matrix: BTAMatrix
    #: reduced position of each partition's (top, bottom) boundary;
    #: top is None for partition 0.
    positions: list

    @property
    def m(self) -> int:
        return self.matrix.n

    @classmethod
    def assemble(
        cls,
        contributions: list,
        tip_original: np.ndarray,
    ) -> "ReducedSystem":
        """Build the reduced BTA matrix from all partitions' contributions.

        ``contributions`` must be ordered by partition index.  The original
        tip is added exactly once; per-partition ``tip_delta`` updates are
        summed on top.
        """
        P = len(contributions)
        if P < 1:
            raise ValueError("need at least one contribution")
        b = contributions[0].diag_bottom.shape[0]
        a = tip_original.shape[0]
        m = 1 + sum(2 if c.part.index > 0 else 0 for c in contributions)
        # Single-boundary later partitions (top == bottom) contribute one block.
        for c in contributions[1:]:
            if c.part.n_blocks == 1:
                m -= 1

        diag = np.zeros((m, b, b))
        lower = np.zeros((max(m - 1, 0), b, b))
        arrow = np.zeros((m, a, b))
        tip = np.array(tip_original, copy=True)

        positions = []
        pos = 0
        for c in contributions:
            if c.part.index == 0:
                diag[pos] = c.diag_bottom
                arrow[pos] = c.arrow_bottom
                positions.append((None, pos))
                pos += 1
            else:
                # Coupling across the partition boundary: A[s_p, e_{p-1}].
                lower[pos - 1] = c.lower_prev
                if c.part.n_blocks == 1:
                    diag[pos] = c.diag_bottom
                    arrow[pos] = c.arrow_bottom
                    positions.append((pos, pos))
                    pos += 1
                else:
                    diag[pos] = c.diag_top
                    arrow[pos] = c.arrow_top
                    diag[pos + 1] = c.diag_bottom
                    arrow[pos + 1] = c.arrow_bottom
                    lower[pos] = c.coupling
                    positions.append((pos, pos + 1))
                    pos += 2
            tip += c.tip_delta
        assert pos == m, f"assembled {pos} reduced blocks, expected {m}"
        return cls(matrix=BTAMatrix(diag, lower, arrow, tip), positions=positions)


def factorize_reduced(reduced: ReducedSystem, comm: Communicator):
    """Factorize the reduced system once per *epoch*, not once per rank.

    Collective over ``comm``.  Rank 0 factorizes its assembled copy in
    place and broadcasts the factor's block stacks
    (``diag``/``lower``/``arrow``/``tip``); every rank, rank 0 included,
    then wraps the stacks in a fresh
    :class:`~repro.structured.pobtaf.BTACholesky`.  Rank 0 drops the
    ``L[i,i]^{-1}`` by-product of its sweep on purpose: the sweep inverts
    the Fortran-ordered POTRF output while a fresh handle inverts the
    C-ordered stack, and at some block sizes (``b = 64``, ``b = 120``)
    the two differ in the last bits.  The replicated tip of every later
    solve must be bit-identical across ranks, so all ranks derive the
    inverses the same way.  Returns this rank's factor handle.
    """
    from repro.structured.pobtaf import BTACholesky, pobtaf

    if comm.Get_size() == 1:
        return pobtaf(reduced.matrix, overwrite=True)
    if comm.Get_rank() == 0:
        f = pobtaf(reduced.matrix, overwrite=True).factor
        comm.bcast((f.diag, f.lower, f.arrow, f.tip), root=0)
        return BTACholesky(f)
    diag, lower, arrow, tip = comm.bcast(None, root=0)
    return BTACholesky(BTAMatrix(diag, lower, arrow, tip))
