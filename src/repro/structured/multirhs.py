"""Stacked multi-RHS sweeps through the BTA solve stack.

The INLA workloads that dominate after the mode search — posterior
sampling, smart-gradient stencils, predictive variances — each push many
right-hand sides through the *same* BTA Cholesky factor.  The per-RHS
entry points (:func:`repro.structured.pobtas.pobtas` and friends) pay one
full loop-carried sweep per right-hand side; this module is the stacked
interface that amortizes them: a row-major ``(k, N)`` RHS stack costs one
forward + one backward pass in which every per-block operand is a
``(b, k)`` GEMM/TRSM panel against the cached per-factor triangular
inverses (``BTACholesky.diag_inverses`` / ``arrow_flat``).

Layout contract
---------------
Stacks are **row-major**: ``stack[j]`` is the ``j``-th right-hand side of
length ``N = n b + a``.  This is the natural layout of the consumers
(each posterior draw / stencil point is a row) and of
``rng.standard_normal((k, N))``.  Internally the stack is transposed once
into the ``(n, b, k)`` panel blocks the sweeps operate on — an ``O(k N)``
copy, negligible against the ``O(k n b^2)`` sweep — and transposed back
on return.  Non-contiguous and strided stacks are accepted.

Path contract
-------------
The stacked sweeps drive the exact same panel-sweep kernels as the
unstacked solvers, so a stacked solve with ``k = 1`` is **bit-for-bit
identical** to the per-RHS entry point.  The looped per-RHS solve is the
semantic baseline the tests compare against (1e-10) and the A/B baseline
of ``benchmarks/bench_multirhs.py``.
"""

from __future__ import annotations

import numpy as np

from repro.backend.protocol import Backend, backend_for
from repro.comm.communicator import Communicator
from repro.structured.d_pobtaf import DistributedFactors
from repro.structured.d_pobtas import (
    d_pobtas,
    d_pobtas_lanes,
    d_pobtas_lt,
    d_pobtas_lt_lanes,
)
from repro.structured.pobtaf import BTACholesky
from repro.structured.pobtas import backward_sweep_panels, forward_sweep_panels

__all__ = [
    "as_rhs_stack",
    "pobtas_stack",
    "pobtas_lt_stack",
    "d_pobtas_stack",
    "d_pobtas_lt_stack",
    "d_pobtas_stack_lanes",
    "d_pobtas_lt_stack_lanes",
]


def as_rhs_stack(stack: np.ndarray, N: int, *, backend: Backend | None = None) -> tuple:
    """Normalize a row-major RHS stack to ``(k, N)`` float64.

    A 1-D vector of length ``N`` is promoted to a ``k = 1`` stack; the
    returned flag records whether the caller should squeeze the result
    back to 1-D.  Strided / non-contiguous inputs are accepted (the panel
    transpose below copies anyway).  ``backend`` pins the array home
    (host stacks handed to a device factor cross H2D here).
    """
    be = backend if backend is not None else backend_for(stack)
    stack = be.asarray(stack)
    squeeze = stack.ndim == 1
    if squeeze:
        stack = stack[None, :]
    if stack.ndim != 2 or stack.shape[1] != N:
        raise ValueError(f"rhs stack must be (k, {N}), got {stack.shape}")
    return stack, squeeze


def _to_panels(chol: BTACholesky, stack: np.ndarray, workspace: np.ndarray | None) -> tuple:
    """``(k, N)`` stack -> contiguous ``(N, k)`` columns + panel views.

    Always copies the stack out of the caller's memory: the sweeps run in
    place on the returned buffer, and for degenerate shapes (``k = 1``)
    ``ascontiguousarray(stack.T)`` would alias it.  A ``workspace`` — a
    C-contiguous ``(N, k)`` buffer owned by a factor handle — is reused
    as that buffer, making the sweep allocation-free per call; results
    are copied out before return, so the buffer never escapes.
    """
    L = chol.factor
    n, b = L.n, L.b
    if workspace is not None and workspace.shape == (stack.shape[1], stack.shape[0]):
        cols = workspace
        cols[...] = stack.T
    else:
        cols = chol.get_backend().xp.array(stack.T, order="C", copy=True)
    return cols, cols[: n * b].reshape(n, b, -1), cols[n * b :]


def _from_panels(cols: np.ndarray, squeeze: bool, *, owned: bool) -> np.ndarray:
    xp = backend_for(cols).xp
    if squeeze:
        # cols[:, 0] aliases the sweep buffer; only safe to hand out when
        # the buffer was allocated for this call.
        return cols[:, 0] if owned else cols[:, 0].copy()
    if owned:
        return xp.ascontiguousarray(cols.T)
    # A reused workspace must never escape: for k = 1 the transposed
    # (1, N) view is already flagged contiguous, so ascontiguousarray
    # would return the alias — force the copy.
    return xp.array(cols.T, order="C", copy=True)


def pobtas_stack(
    chol: BTACholesky,
    stack: np.ndarray,
    *,
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``A X^T = stack^T`` for a row-major ``(k, N)`` RHS stack.

    Returns the solutions in the same row-major layout.  All ``k``
    right-hand sides share one forward + one backward loop-carried pass.
    ``workspace`` optionally supplies the ``(N, k)`` sweep buffer (see
    :class:`repro.structured.factor.BTAFactor`).
    """
    L = chol.factor
    stack, squeeze = as_rhs_stack(stack, L.N, backend=chol.get_backend())
    if stack.shape[0] == 0:
        return stack.copy()
    cols, xb, xt = _to_panels(chol, stack, workspace)
    forward_sweep_panels(chol, xb, xt, L.a, L.n)
    backward_sweep_panels(chol, xb, xt, L.a, L.n)
    return _from_panels(cols, squeeze, owned=cols is not workspace)


def pobtas_lt_stack(
    chol: BTACholesky,
    stack: np.ndarray,
    *,
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """Backward-only stacked solve ``L^T X^T = stack^T`` (row-major).

    The GMRF sampling primitive: ``k`` i.i.d. standard-normal rows become
    ``k`` exact draws from ``N(0, A^{-1})`` in one backward panel pass —
    this is what :class:`repro.inla.sampling.LatentPosterior` drives.
    """
    L = chol.factor
    stack, squeeze = as_rhs_stack(stack, L.N, backend=chol.get_backend())
    if stack.shape[0] == 0:
        return stack.copy()
    cols, xb, xt = _to_panels(chol, stack, workspace)
    backward_sweep_panels(chol, xb, xt, L.a, L.n)
    return _from_panels(cols, squeeze, owned=cols is not workspace)


def d_pobtas_stack(
    factors: DistributedFactors,
    stack_local: np.ndarray,
    stack_tip: np.ndarray,
    comm: Communicator,
) -> tuple:
    """Row-major stacked interface to the distributed solve (P POBTAS).

    ``stack_local`` is ``(k, nl b)`` — this rank's slice of every RHS —
    and ``stack_tip`` the replicated ``(k, a)`` tip stack.  Internally the
    stacks are transposed once into the column panels ``d_pobtas``
    already batches over, so the interior sweeps, the reduced-system
    solve, and every collective carry all ``k`` right-hand sides in one
    pass (one Allreduce / Allgather for the whole stack instead of k).
    """
    nl_b = factors.part.n_blocks * factors.b
    stack_local, squeeze = as_rhs_stack(stack_local, nl_b)
    stack_tip, _ = as_rhs_stack(stack_tip, factors.a)
    if stack_tip.shape[0] != stack_local.shape[0]:
        raise ValueError(
            f"tip stack height {stack_tip.shape[0]} != rhs stack height {stack_local.shape[0]}"
        )
    xl, xt = d_pobtas(
        factors,
        np.ascontiguousarray(stack_local.T),
        np.ascontiguousarray(stack_tip.T),
        comm,
    )
    if squeeze:
        return xl[:, 0], xt[:, 0]
    return np.ascontiguousarray(xl.T), np.ascontiguousarray(xt.T)


def d_pobtas_lt_stack(
    factors: DistributedFactors,
    stack_local: np.ndarray,
    stack_tip: np.ndarray,
    comm: Communicator,
) -> tuple:
    """Row-major stacked interface to the distributed ``L^T`` solve.

    The S3-scale sampling primitive: ``k`` standard-normal rows become
    ``k`` exact draws from ``N(0, A^{-1})`` (``L`` is the
    nested-dissection factor — see
    :func:`repro.structured.d_pobtas.d_pobtas_lt`) with **one**
    ``Allgather`` round for the whole stack instead of one per draw.
    ``stack_local`` is ``(k, nl b)`` — this rank's slice of every RHS —
    and ``stack_tip`` the replicated ``(k, a)`` tip stack.
    """
    nl_b = factors.part.n_blocks * factors.b
    stack_local, squeeze = as_rhs_stack(stack_local, nl_b)
    stack_tip, _ = as_rhs_stack(stack_tip, factors.a)
    if stack_tip.shape[0] != stack_local.shape[0]:
        raise ValueError(
            f"tip stack height {stack_tip.shape[0]} != rhs stack height {stack_local.shape[0]}"
        )
    xl, xt = d_pobtas_lt(
        factors,
        np.ascontiguousarray(stack_local.T),
        np.ascontiguousarray(stack_tip.T),
        comm,
    )
    if squeeze:
        return xl[:, 0], xt[:, 0]
    return np.ascontiguousarray(xl.T), np.ascontiguousarray(xt.T)


def _lanes_to_cols(stacks_local: list, stacks_tip: list, nl_b: int, a: int) -> tuple:
    """Row-major lane stacks -> column-concatenated panels + widths."""
    if len(stacks_local) != len(stacks_tip):
        raise ValueError("need one tip stack per local stack")
    widths, loc_cols, tip_cols = [], [], []
    for sl, st in zip(stacks_local, stacks_tip):
        sl, _ = as_rhs_stack(sl, nl_b)
        st, _ = as_rhs_stack(st, a)
        if st.shape[0] != sl.shape[0]:
            raise ValueError(
                f"tip stack height {st.shape[0]} != rhs stack height {sl.shape[0]}"
            )
        widths.append(sl.shape[0])
        loc_cols.append(sl.T)
        tip_cols.append(st.T)
    return (
        np.ascontiguousarray(np.concatenate(loc_cols, axis=1)),
        np.ascontiguousarray(np.concatenate(tip_cols, axis=1)),
        widths,
    )


def _cols_to_lanes(xl: np.ndarray, xt: np.ndarray, widths: list) -> list:
    """Column-concatenated solutions -> per-lane row-major ``(k_i, ...)``."""
    out, off = [], 0
    for w in widths:
        out.append(
            (
                np.ascontiguousarray(xl[:, off : off + w].T),
                np.ascontiguousarray(xt[:, off : off + w].T),
            )
        )
        off += w
    return out


def d_pobtas_stack_lanes(
    factors: DistributedFactors,
    stacks_local: list,
    stacks_tip: list,
    comm: Communicator,
) -> list:
    """Row-major multi-lane interface to the distributed solve.

    ``stacks_local[i]`` is a ``(k_i, nl b)`` rank slice and
    ``stacks_tip[i]`` its replicated ``(k_i, a)`` tip stack.  All lanes
    share ONE Allreduce + ONE Allgather round
    (:func:`repro.structured.d_pobtas.d_pobtas_lanes`) while each lane's
    sweeps run at its exact width — the per-lane results are bit-identical
    to separate :func:`d_pobtas_stack` calls.  Returns a list of
    ``(x_local, x_tip)`` row-major pairs, in lane order.
    """
    nl_b = factors.part.n_blocks * factors.b
    cols_local, cols_tip, widths = _lanes_to_cols(stacks_local, stacks_tip, nl_b, factors.a)
    xl, xt = d_pobtas_lanes(factors, cols_local, cols_tip, comm, widths)
    return _cols_to_lanes(xl, xt, widths)


def d_pobtas_lt_stack_lanes(
    factors: DistributedFactors,
    stacks_local: list,
    stacks_tip: list,
    comm: Communicator,
) -> list:
    """Row-major multi-lane interface to the distributed ``L^T`` solve.

    One boundary ``Allgather`` for every lane (no Allreduce in the
    backward-only sweep); per-lane bits match separate
    :func:`d_pobtas_lt_stack` calls.  Returns ``(x_local, x_tip)``
    row-major pairs in lane order.
    """
    nl_b = factors.part.n_blocks * factors.b
    cols_local, cols_tip, widths = _lanes_to_cols(stacks_local, stacks_tip, nl_b, factors.a)
    xl, xt = d_pobtas_lt_lanes(factors, cols_local, cols_tip, comm, widths)
    return _cols_to_lanes(xl, xt, widths)
