"""Factorization handles — one ``pobtaf`` amortized over every consumer.

The DALIA pipeline computes *several* quantities from each factorized
precision matrix: the log-determinant for the objective, conditional-mean
solves, Takahashi selected inversion for the marginal variances, and
``L^{-T} z`` sampling sweeps.  The historical ``StructuredSolver`` API was
stateless — every call took a raw :class:`~repro.structured.bta.BTAMatrix`
and refactorized — so consumers either paid redundant ``O(n b^3)``
factorizations or reached for ad-hoc fused entry points
(``pobtasi_with_solve``).

This module makes the factorization a first-class object:

- :class:`BTAFactor` — the sequential handle returned by
  :func:`factorize` / ``SequentialSolver.factorize``.  It owns the
  Cholesky block stacks, the cached per-factor triangular inverses and
  flat arrow row (computed once, GEMMed against by every sweep), the
  cached log-determinant and selected-inverse diagonal, and preallocated
  ``(N, k)`` sweep workspaces — so ``logdet()``, ``solve()``,
  ``solve_stack()``, ``solve_lt_stack()``, ``selected_inverse_diagonal()``
  and ``sample()`` all reuse the one factorization with zero per-call
  block allocation.
- :class:`DistributedBTAFactor` — the rank-partitioned handle returned by
  ``DistributedSolver.factorize``.  It retains every rank's
  :class:`~repro.structured.d_pobtaf.DistributedFactors` (interior factor
  stacks, cached interior inverses, the shared reduced-system factor)
  across SPMD epochs: each method launches one collective round
  against the stored factors instead of re-running ``d_pobtaf``.

Results are bit-identical to the legacy one-shot calls (which are now
thin ``factorize``-then-call wrappers).  Sequential handles are safe to
*read* concurrently: the mutable per-solve state is the sweep buffer,
which each stacked solve leases from a small acquire/release pool
(:class:`SweepWorkspacePool`) — a shared mode-factor can serve several
S1 sampler threads without racing (the scalar caches are idempotent).
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.backend.protocol import NUMPY_BACKEND, Backend
from repro.errors import NotPositiveDefiniteError, NPDJitterWarning

# Pinned to the thread launcher on purpose: the closure-based rank
# functions below capture (and mutate) handle state across epochs, which
# only shared-memory threads can do.  The process backend has its own
# entry point (ProcDistributedBTAFactor / d_factorize_proc) whose jobs
# are module-level picklable and keep state in the worker_store.
from repro.comm.local import run_spmd
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import DistributedFactors, d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi_diag
from repro.structured.multirhs import (
    as_rhs_stack,
    d_pobtas_lt_stack,
    d_pobtas_lt_stack_lanes,
    d_pobtas_stack,
    d_pobtas_stack_lanes,
    pobtas_lt_stack,
    pobtas_stack,
)
from repro.structured.pobtaf import BTACholesky, pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import (
    pobtasi,
    selected_inverse_diagonal,
    solve_and_selected_inverse_diagonal,
)

__all__ = [
    "BTAFactor",
    "DistributedBTAFactor",
    "ProcDistributedBTAFactor",
    "NPDJitterPolicy",
    "factorize",
    "d_factorize",
    "d_factorize_proc",
]

# Idle sweep workspaces cached per factor; buffers beyond this many are
# dropped on release instead of pooled (consumers use a handful of stack
# widths: sample counts, stencil widths, prediction batch sizes).
_MAX_WORKSPACES = 8


class SweepWorkspacePool:
    """Acquire/release pool of ``(N, k)`` sweep buffers for one factor.

    A shared mode-factor may serve several S1 sampler threads at once;
    the historical per-factor buffer dict handed every caller the *same*
    ``(N, k)`` array, so two concurrent ``solve_stack`` calls with equal
    ``k`` would race.  The pool leases a buffer per solve instead: free
    buffers are reused (the steady-state single-caller case stays
    allocation-free), a second concurrent lease of the same width simply
    allocates its own buffer, and at most ``max_idle`` buffers are kept
    idle.  Sweep results never alias the buffer (see
    :func:`repro.structured.multirhs._to_panels`), so returning it to
    the pool after the solve is safe.
    """

    def __init__(
        self,
        N: int,
        max_idle: int = _MAX_WORKSPACES,
        *,
        backend: Backend | None = None,
    ):
        self._N = int(N)
        self._max_idle = int(max_idle)
        self._backend = backend if backend is not None else NUMPY_BACKEND
        self._lock = threading.Lock()
        self._free: list = []  # [(k, buffer)] most-recently released last

    @contextmanager
    def lease(self, k: int):
        ws = None
        with self._lock:
            for i in range(len(self._free) - 1, -1, -1):
                if self._free[i][0] == k:
                    ws = self._free.pop(i)[1]
                    break
        if ws is None:
            # Buffers live where the factor lives: the owning backend's
            # allocator, never a bare np.empty.
            ws = self._backend.empty((self._N, k), order="C")
        try:
            yield ws
        finally:
            with self._lock:
                self._free.append((k, ws))
                while len(self._free) > self._max_idle:
                    self._free.pop(0)


def _run_spmd_spd(P: int, fn):
    """``run_spmd`` that surfaces per-rank positive-definiteness failures.

    An infeasible hyperparameter configuration makes a rank's Cholesky
    fail; the objective layer must see ``NotPositiveDefiniteError`` (so
    the optimizer backtracks) rather than a generic SPMD error.
    """
    try:
        return run_spmd(P, fn)
    except RuntimeError as exc:
        cause = exc.__cause__
        while cause is not None:
            if isinstance(cause, NotPositiveDefiniteError):
                raise NotPositiveDefiniteError(str(cause)) from exc
            cause = cause.__cause__
        raise


@dataclass
class BTAFactor:
    """Sequential factorization handle over one :class:`BTACholesky`.

    Every method reuses the one factorization; scalar/diagonal results
    are cached on first computation.  Obtain via :func:`factorize` or
    ``StructuredSolver.factorize``.
    """

    chol: BTACholesky
    #: Absolute diagonal jitter the NPD recovery chain added before this
    #: factorization succeeded (0.0 on the normal, unjittered path).  The
    #: handle then factors ``A + applied_jitter * I``, not ``A``.
    applied_jitter: float = 0.0
    _logdet: float | None = field(default=None, repr=False)
    _selinv_diag: np.ndarray | None = field(default=None, repr=False)
    _pool: SweepWorkspacePool | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._pool is None:
            self._pool = SweepWorkspacePool(self.N, backend=self.backend)

    # -- structure ---------------------------------------------------------

    @property
    def shape3(self) -> BTAShape:
        return self.chol.factor.shape3

    @property
    def n(self) -> int:
        return self.chol.n

    @property
    def b(self) -> int:
        return self.chol.b

    @property
    def a(self) -> int:
        return self.chol.a

    @property
    def N(self) -> int:
        return self.chol.N

    @property
    def backend(self) -> Backend:
        """The :class:`Backend` the factor's block stacks live on."""
        return self.chol.get_backend()

    # -- the amortized operations ------------------------------------------

    def logdet(self) -> float:
        """``log det A`` from the factor diagonal (cached)."""
        if self._logdet is None:
            self._logdet = self.chol.logdet()
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (vector ``(N,)`` or columns ``(N, k)``)."""
        return pobtas(self.chol, rhs)

    def solve_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Solve a row-major ``(k, N)`` RHS stack in one panel pass.

        Thread-safe: the sweep buffer is leased from the factor's
        workspace pool for the duration of the solve, so concurrent
        callers sharing one handle never share a buffer.
        """
        rhs_stack = self.backend.asarray(rhs_stack)
        k = 1 if rhs_stack.ndim == 1 else rhs_stack.shape[0]
        with self._pool.lease(k) as ws:
            return pobtas_stack(self.chol, rhs_stack, workspace=ws)

    def solve_lt(self, rhs: np.ndarray) -> np.ndarray:
        """Backward-only solve ``L^T x = rhs`` (the sampling primitive)."""
        return pobtas_lt(self.chol, rhs)

    def solve_lt_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Backward-only solve for a row-major ``(k, N)`` stack.

        Thread-safe via the same leased sweep buffer as
        :meth:`solve_stack` — the S1 sampling primitive a shared
        mode-factor serves to concurrent samplers.
        """
        rhs_stack = self.backend.asarray(rhs_stack)
        k = 1 if rhs_stack.ndim == 1 else rhs_stack.shape[0]
        with self._pool.lease(k) as ws:
            return pobtas_lt_stack(self.chol, rhs_stack, workspace=ws)

    def solve_stack_lanes(self, stacks: list) -> list:
        """Solve several independent ``(k_i, N)`` stacks, in lane order.

        The sequential handle has no collectives to batch, so lanes are
        simply looped — the method exists so sweep-group consumers can
        target one API on every factor type (the distributed handles
        collapse the per-lane collective rounds into one).
        """
        return [self.solve_stack(s) for s in stacks]

    def solve_lt_stack_lanes(self, stacks: list) -> list:
        """Backward-only lane solves (see :meth:`solve_stack_lanes`)."""
        return [self.solve_lt_stack(s) for s in stacks]

    def selected_inverse(self) -> BTAMatrix:
        """Selected entries of ``A^{-1}`` (full BTA block pattern)."""
        return pobtasi(self.chol)

    def selected_inverse_diagonal(self) -> np.ndarray:
        """Diagonal of ``A^{-1}`` — the marginal variances (cached).

        Runs the diagonal-only Takahashi recursion (no full-``X``
        materialization).
        """
        if self._selinv_diag is None:
            self._selinv_diag = selected_inverse_diagonal(self.chol)
        return self._selinv_diag.copy()

    def solve_and_selected_inverse_diagonal(self, rhs: np.ndarray) -> tuple:
        """``(x, var)`` from one fused backward recursion.

        The conditional-mean solve rides the diagonal-only
        selected-inversion backward pass
        (:func:`repro.structured.pobtasi.solve_and_selected_inverse_diagonal`)
        — the INLA marginals' hot pair.
        """
        x, var = solve_and_selected_inverse_diagonal(self.chol, rhs)
        if self._selinv_diag is None:
            self._selinv_diag = var.copy()
        return x, var

    def sample(self, k: int, rng: np.random.Generator, *, mean: np.ndarray | None = None):
        """``k`` exact draws from ``N(mean, A^{-1})``, row-major ``(k, N)``.

        One stacked backward sweep (``x = mean + L^{-T} z``); no dense
        covariance is ever formed.
        """
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        # The normal draws are generated on the host (the RNG lives
        # there); moving them through the backend's asarray is the H2D
        # crossing a real device pays per sampling round.
        z = self.backend.asarray(rng.standard_normal((k, self.N)))
        x = self.solve_lt_stack(z)
        if mean is not None:
            x += self.backend.asarray(mean)[None, :]
        return x


@dataclass
class DistributedBTAFactor:
    """Rank-partitioned factorization handle (strategy S3).

    Holds every rank's :class:`DistributedFactors` from one ``d_pobtaf``
    collective; each method launches a single SPMD epoch over the stored
    factors — the factorization itself (and its cached interior
    inverses and reduced-system factor) is never recomputed.  Built by
    :func:`d_factorize` / ``DistributedSolver.factorize``.
    """

    shape3: BTAShape
    factors: list
    _logdet: float | None = field(default=None, repr=False)
    _selinv_diag: np.ndarray | None = field(default=None, repr=False)

    @property
    def P(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        return self.shape3.n

    @property
    def b(self) -> int:
        return self.shape3.b

    @property
    def a(self) -> int:
        return self.shape3.a

    @property
    def N(self) -> int:
        return self.shape3.N

    def _rank_factors(self, comm) -> DistributedFactors:
        return self.factors[comm.Get_rank()]

    def _local(self, arr: np.ndarray, f: DistributedFactors) -> np.ndarray:
        """This rank's slice of a leading-``N`` array (blocks, then tip)."""
        b = self.b
        return arr[f.part.start * b : f.part.stop * b]

    def logdet(self) -> float:
        """Global ``log det A`` (one Allreduce round; cached)."""
        if self._logdet is None:

            def rank_fn(comm):
                f = self._rank_factors(comm)
                return f.logdet(comm)

            self._logdet = _run_spmd_spd(self.P, rank_fn)[0]
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` with the stored factors (one pipeline)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        tip = rhs[self.n * self.b :]

        def rank_fn(comm):
            f = self._rank_factors(comm)
            return d_pobtas(f, self._local(rhs, f), tip, comm)

        out = _run_spmd_spd(self.P, rank_fn)
        return np.concatenate([o[0] for o in out] + [out[0][1]])

    def solve_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Row-major ``(k, N)`` stack: one collective round for the lot."""
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        tip = stack[:, self.n * self.b :]

        def rank_fn(comm):
            f = self._rank_factors(comm)
            b = self.b
            return d_pobtas_stack(f, stack[:, f.part.start * b : f.part.stop * b], tip, comm)

        out = _run_spmd_spd(self.P, rank_fn)
        x = np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)
        return x[0] if squeeze else x

    def solve_lt_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Backward-only ``L^T`` solve for a ``(k, N)`` stack.

        ``L`` is the nested-dissection factor of the permuted matrix, so
        individual solutions differ from the sequential ``pobtas_lt`` —
        but ``x = L^{-T} z`` has covariance exactly ``A^{-1}``, which is
        the sampling contract (see
        :func:`repro.structured.d_pobtas.d_pobtas_lt`).  One Allgather
        round per stack.
        """
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        tip = stack[:, self.n * self.b :]

        def rank_fn(comm):
            f = self._rank_factors(comm)
            b = self.b
            return d_pobtas_lt_stack(f, stack[:, f.part.start * b : f.part.stop * b], tip, comm)

        out = _run_spmd_spd(self.P, rank_fn)
        x = np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)
        return x[0] if squeeze else x

    def _solve_lanes(self, stacks: list, lanes_fn) -> list:
        """Shared driver for the multi-lane solves: one SPMD epoch, one
        collective round, per-lane results reassembled in lane order."""
        norm = [as_rhs_stack(s, self.N)[0] for s in stacks]
        tips = [s[:, self.n * self.b :] for s in norm]

        def rank_fn(comm):
            f = self._rank_factors(comm)
            b = self.b
            locs = [s[:, f.part.start * b : f.part.stop * b] for s in norm]
            return lanes_fn(f, locs, tips, comm)

        out = _run_spmd_spd(self.P, rank_fn)
        return [
            np.concatenate([o[i][0] for o in out] + [out[0][i][1]], axis=1)
            for i in range(len(stacks))
        ]

    def solve_stack_lanes(self, stacks: list) -> list:
        """Solve several ``(k_i, N)`` stacks with ONE collective round.

        All lanes share a single Allreduce + Allgather
        (:func:`repro.structured.multirhs.d_pobtas_stack_lanes`); each
        lane's sweeps run at its exact width, so the per-lane results are
        bit-identical to separate :meth:`solve_stack` calls.
        """
        return self._solve_lanes(stacks, d_pobtas_stack_lanes)

    def solve_lt_stack_lanes(self, stacks: list) -> list:
        """Backward-only lane solves, one Allgather round for the lot."""
        return self._solve_lanes(stacks, d_pobtas_lt_stack_lanes)

    def selected_inverse_diagonal(self) -> np.ndarray:
        """Diagonal of ``A^{-1}`` (communication-free per rank; cached).

        Each rank runs the carry-based diagonal-only recursion
        (:func:`repro.structured.d_pobtasi.d_pobtasi_diag`) — bit-identical
        values to the full per-rank selected inversion without
        materializing any inverse block slice.
        """
        if self._selinv_diag is None:

            def rank_fn(comm):
                return d_pobtasi_diag(self._rank_factors(comm))

            out = _run_spmd_spd(self.P, rank_fn)
            self._selinv_diag = np.concatenate([o[0] for o in out] + [out[0][1]])
        return self._selinv_diag.copy()

    def solve_and_selected_inverse_diagonal(self, rhs: np.ndarray) -> tuple:
        """``(x, var)`` from one SPMD epoch over the stored factors."""
        rhs = np.asarray(rhs, dtype=np.float64)
        tip = rhs[self.n * self.b :]

        def rank_fn(comm):
            f = self._rank_factors(comm)
            xl, xt = d_pobtas(f, self._local(rhs, f), tip, comm)
            var_local, var_tip = d_pobtasi_diag(f)
            return xl, xt, var_local, var_tip

        out = _run_spmd_spd(self.P, rank_fn)
        x = np.concatenate([o[0] for o in out] + [out[0][1]])
        var = np.concatenate([o[2] for o in out] + [out[0][3]])
        if self._selinv_diag is None:
            self._selinv_diag = var.copy()
        return x, var

    def sample(self, k: int, rng: np.random.Generator, *, mean: np.ndarray | None = None):
        """``k`` exact draws from ``N(mean, A^{-1})``, row-major ``(k, N)``."""
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        z = rng.standard_normal((k, self.N))
        x = self.solve_lt_stack(z)
        if mean is not None:
            x += np.asarray(mean, dtype=np.float64)[None, :]
        return x


# ---------------------------------------------------------------------------
# Process-backed distributed handle
# ---------------------------------------------------------------------------
#
# The closure-based DistributedBTAFactor above keeps every rank's factors in
# the PARENT's memory and re-binds them each epoch — only threads can do
# that.  The proc-backed handle below keeps each rank's DistributedFactors
# resident in its OWN worker process (repro.comm.launcher.worker_store)
# across epochs, shipping only RHS vectors and results.  The job functions
# are module-level so they pickle under any start method.

_STORE_KEY = "dbta_factors"


def _proc_job_factorize(comm, slices):
    from repro.comm.launcher import worker_store

    f = d_pobtaf(slices[comm.Get_rank()], comm)
    worker_store()[_STORE_KEY] = f
    return f.logdet(comm)


def _proc_job_solve(comm, rhs, tip):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    return d_pobtas(f, rhs[f.part.start * b : f.part.stop * b], tip, comm)


def _proc_job_solve_stack(comm, stack, tip):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    return d_pobtas_stack(f, stack[:, f.part.start * b : f.part.stop * b], tip, comm)


def _proc_job_solve_lt_stack(comm, stack, tip):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    return d_pobtas_lt_stack(f, stack[:, f.part.start * b : f.part.stop * b], tip, comm)


def _proc_job_solve_stack_lanes(comm, stacks, tips):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    locs = [s[:, f.part.start * b : f.part.stop * b] for s in stacks]
    return d_pobtas_stack_lanes(f, locs, tips, comm)


def _proc_job_solve_lt_stack_lanes(comm, stacks, tips):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    locs = [s[:, f.part.start * b : f.part.stop * b] for s in stacks]
    return d_pobtas_lt_stack_lanes(f, locs, tips, comm)


def _proc_job_selinv_diag(comm):
    from repro.comm.launcher import worker_store

    return d_pobtasi_diag(worker_store()[_STORE_KEY])


def _proc_job_solve_and_selinv(comm, rhs, tip):
    from repro.comm.launcher import worker_store

    f = worker_store()[_STORE_KEY]
    b = f.b
    xl, xt = d_pobtas(f, rhs[f.part.start * b : f.part.stop * b], tip, comm)
    var_local, var_tip = d_pobtasi_diag(f)
    return xl, xt, var_local, var_tip


class ProcDistributedBTAFactor:
    """Distributed factorization handle over persistent worker *processes*.

    Same epoch-reuse contract as :class:`DistributedBTAFactor` — one
    ``d_pobtaf`` collective, then every logdet/solve/selected-inverse/
    sampling call reuses the stored factors — but the ranks are OS
    processes holding their factor slices in their own address space
    (via :func:`repro.comm.launcher.worker_store`), talking through a
    :class:`~repro.comm.shm.ShmComm` shared-memory segment.  Built by
    :func:`d_factorize_proc`; close (or use as a context manager) to
    release the workers and the segment.
    """

    def __init__(
        self,
        A: BTAMatrix,
        P: int,
        *,
        lb: float = 1.6,
        start_method: str | None = None,
    ):
        from repro.comm.launcher import SpmdSession

        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        self.shape3 = A.shape3
        slices = partition_matrix(A, P, lb=lb)
        self._bounds = [(sl.part.start, sl.part.stop) for sl in slices]
        self._selinv_diag: np.ndarray | None = None
        self._session = SpmdSession(P, start_method=start_method)
        try:
            # warmup=True: the session replays this epoch after a respawn,
            # rebuilding every rank's resident factor slices before any
            # retried solve epoch touches the worker_store.
            self._logdet = self._run(_proc_job_factorize, slices, warmup=True)[0]
        except BaseException:
            self._session.close()
            raise

    def _run(self, job, *args, warmup: bool = False) -> list:
        try:
            return self._session.run(job, *args, warmup=warmup)
        except RuntimeError as exc:
            cause = exc.__cause__
            while cause is not None:
                if isinstance(cause, NotPositiveDefiniteError):
                    raise NotPositiveDefiniteError(str(cause)) from exc
                cause = cause.__cause__
            raise

    @property
    def P(self) -> int:
        return len(self._bounds)

    @property
    def n(self) -> int:
        return self.shape3.n

    @property
    def b(self) -> int:
        return self.shape3.b

    @property
    def a(self) -> int:
        return self.shape3.a

    @property
    def N(self) -> int:
        return self.shape3.N

    def logdet(self) -> float:
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        out = self._run(_proc_job_solve, rhs, rhs[self.n * self.b :])
        return np.concatenate([o[0] for o in out] + [out[0][1]])

    def solve_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        out = self._run(_proc_job_solve_stack, stack, stack[:, self.n * self.b :])
        x = np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)
        return x[0] if squeeze else x

    def solve_lt_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        out = self._run(_proc_job_solve_lt_stack, stack, stack[:, self.n * self.b :])
        x = np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)
        return x[0] if squeeze else x

    def _solve_lanes(self, stacks: list, job) -> list:
        norm = [as_rhs_stack(s, self.N)[0] for s in stacks]
        tips = [s[:, self.n * self.b :] for s in norm]
        out = self._run(job, norm, tips)
        return [
            np.concatenate([o[i][0] for o in out] + [out[0][i][1]], axis=1)
            for i in range(len(stacks))
        ]

    def solve_stack_lanes(self, stacks: list) -> list:
        """Multi-lane solve: one worker epoch, one collective round.

        Bit-identical per lane to :meth:`solve_stack` — and to the
        thread-backed :class:`DistributedBTAFactor` lanes (the collectives
        reduce in rank order on both transports).
        """
        return self._solve_lanes(stacks, _proc_job_solve_stack_lanes)

    def solve_lt_stack_lanes(self, stacks: list) -> list:
        """Backward-only multi-lane solve (see :meth:`solve_stack_lanes`)."""
        return self._solve_lanes(stacks, _proc_job_solve_lt_stack_lanes)

    def selected_inverse_diagonal(self) -> np.ndarray:
        if self._selinv_diag is None:
            out = self._run(_proc_job_selinv_diag)
            self._selinv_diag = np.concatenate([o[0] for o in out] + [out[0][1]])
        return self._selinv_diag.copy()

    def solve_and_selected_inverse_diagonal(self, rhs: np.ndarray) -> tuple:
        rhs = np.asarray(rhs, dtype=np.float64)
        out = self._run(_proc_job_solve_and_selinv, rhs, rhs[self.n * self.b :])
        x = np.concatenate([o[0] for o in out] + [out[0][1]])
        var = np.concatenate([o[2] for o in out] + [out[0][3]])
        if self._selinv_diag is None:
            self._selinv_diag = var.copy()
        return x, var

    def sample(self, k: int, rng: np.random.Generator, *, mean: np.ndarray | None = None):
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        z = rng.standard_normal((k, self.N))
        x = self.solve_lt_stack(z)
        if mean is not None:
            x += np.asarray(mean, dtype=np.float64)[None, :]
        return x

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "ProcDistributedBTAFactor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def d_factorize_proc(
    A: BTAMatrix,
    P: int,
    *,
    lb: float = 1.6,
    start_method: str | None = None,
) -> ProcDistributedBTAFactor:
    """Distributed factorization over ``P`` worker *processes*.

    The factorization epoch runs immediately; the returned handle keeps
    the workers (and their resident factor slices) alive for later
    solve/selected-inverse/sampling epochs.  Close the handle when done.
    """
    return ProcDistributedBTAFactor(A, P, lb=lb, start_method=start_method)


@dataclass(frozen=True)
class NPDJitterPolicy:
    """Opt-in escalating diagonal-jitter recovery for non-SPD matrices.

    When a factorization hits :class:`NotPositiveDefiniteError`, the
    recovery chain retries on a *fresh copy* of the pristine input with
    ``eps * scale`` added to every diagonal entry (``scale`` = mean
    absolute diagonal entry of the input), escalating ``eps`` from
    ``initial`` by ``growth`` per rung for at most ``max_tries`` rungs.
    A success reports the absolute jitter on the handle
    (``applied_jitter``) and warns (:class:`NPDJitterWarning`) — never
    silent.  Exhausting the rungs re-raises the final
    ``NotPositiveDefiniteError``.
    """

    initial: float = 1e-8
    growth: float = 100.0
    max_tries: int = 4

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError(f"initial jitter must be positive, got {self.initial}")
        if self.growth <= 1:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")

    def rungs(self):
        eps = self.initial
        for _ in range(self.max_tries):
            yield eps
            eps *= self.growth


def _resolve_jitter(jitter) -> NPDJitterPolicy | None:
    if jitter is None or jitter is False:
        return None
    if jitter is True:
        return NPDJitterPolicy()
    if not isinstance(jitter, NPDJitterPolicy):
        raise TypeError(f"jitter must be None, bool, or NPDJitterPolicy, got {jitter!r}")
    return jitter


def _diag_scale(A: BTAMatrix) -> float:
    """Mean absolute diagonal entry — the jitter's relative unit."""
    total = float(abs(A.diag.diagonal(axis1=1, axis2=2)).sum())
    count = A.n * A.b
    if A.a:
        total += float(abs(A.tip.diagonal()).sum())
        count += A.a
    scale = total / count
    return scale if scale > 0 else 1.0


def _with_diag_jitter(A: BTAMatrix, amount: float) -> BTAMatrix:
    """A fresh copy of ``A`` with ``amount`` added to every diagonal entry."""
    Aj = A.copy()
    ib = np.arange(A.b)
    Aj.diag[:, ib, ib] += amount
    if A.a:
        ia = np.arange(A.a)
        Aj.tip[ia, ia] += amount
    return Aj


def factorize(
    A: BTAMatrix,
    *,
    overwrite: bool = False,
    jitter: bool | NPDJitterPolicy | None = None,
) -> BTAFactor:
    """Factorize ``A = L L^T`` and return the sequential handle.

    ``overwrite=True`` reuses ``A``'s storage for the factor (the
    caller's matrix is destroyed) — the memory-lean mode of the INLA
    objective, where precision matrices are rebuilt every evaluation.

    ``jitter`` opts into the audited NPD recovery chain (``True`` for the
    default :class:`NPDJitterPolicy`, or a custom policy).  A matrix that
    factorizes cleanly is returned bit-identically to the ``jitter=None``
    path — recovery never changes the bits of a successful result — and a
    recovered factorization reports the added diagonal on the handle's
    ``applied_jitter`` and via :class:`NPDJitterWarning`.  With jitter
    active the first attempt never overwrites the caller's matrix (the
    pristine values seed every retry); ``overwrite=True`` then only
    grants permission to drop the input after the outcome is decided.
    """
    policy = _resolve_jitter(jitter)
    if policy is None:
        return BTAFactor(chol=pobtaf(A, overwrite=overwrite))
    try:
        # Never in place: a mid-factorization NPD abort would corrupt the
        # pristine values every recovery rung must start from.
        return BTAFactor(chol=pobtaf(A, overwrite=False))
    except NotPositiveDefiniteError:
        pass
    scale = _diag_scale(A)
    last_exc: NotPositiveDefiniteError | None = None
    for eps in policy.rungs():
        amount = eps * scale
        try:
            chol = pobtaf(_with_diag_jitter(A, amount), overwrite=True)
        except NotPositiveDefiniteError as exc:
            last_exc = exc
            continue
        warnings.warn(
            f"factorization succeeded only after adding {amount:.3e} "
            f"(= {eps:.1e} x mean |diag|) to the diagonal",
            NPDJitterWarning,
            stacklevel=2,
        )
        return BTAFactor(chol=chol, applied_jitter=amount)
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even after {policy.max_tries} "
        f"diagonal jitter attempts up to {eps * scale:.3e}"
    ) from last_exc


def d_factorize(A: BTAMatrix, P: int, *, lb: float = 1.6) -> DistributedBTAFactor:
    """Distributed factorization over ``P`` SPMD ranks, returning the handle.

    One collective ``d_pobtaf`` epoch; the per-rank factors (and the
    shared reduced-system factor) persist on the handle for
    every later solve / selected-inversion / sampling round.  The global
    log-determinant is computed in the same epoch — it costs one scalar
    Allreduce against the already-synchronized ranks — and cached.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    slices = partition_matrix(A, P, lb=lb)

    def rank_fn(comm):
        f = d_pobtaf(slices[comm.Get_rank()], comm)
        return f, f.logdet(comm)

    out = _run_spmd_spd(P, rank_fn)
    return DistributedBTAFactor(
        shape3=A.shape3,
        factors=[o[0] for o in out],
        _logdet=out[0][1],
    )
