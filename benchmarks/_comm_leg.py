"""Shared S3 comm-backend leg for the measured figure benchmarks.

The figure benchmarks' measured parts exercise the S1 layer on real
threads; the ``--comm`` option adds a distributed-solver (S3) leg that
runs one factorize+solve epoch on a matched-size BTA system under the
selected SPMD backend — in-process ``ThreadComm`` ranks or real forked
workers over the ``ShmComm`` shared-memory segment.  The rank job is
module-level so it pickles under any start method.
"""

import numpy as np

from repro.comm import run_spmd
from repro.diagnostics import Timer
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.pobtaf import FACTORIZATIONS


def bta_case(n, b, a, seed=0):
    """A random SPD BTA system plus an RHS, sized to match a figure leg."""
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, rng.standard_normal(A.N)


def epoch_job(comm, slices, rhs):
    """One d_pobtaf + d_pobtas epoch; returns this rank's solution slice
    plus its local ``pobtaf`` sweep delta (= reduced-system sweeps: the
    interior eliminations never call ``pobtaf``)."""
    before = FACTORIZATIONS.count
    sl = slices[comm.Get_rank()]
    b = sl.diag.shape[1]
    f = d_pobtaf(sl, comm)
    xl, xt = d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[rhs.shape[0] - f.a :], comm)
    return xl, xt, FACTORIZATIONS.count - before


def timed_epoch(A, rhs, P, backend, *, lb=1.6):
    """Run one distributed epoch under ``backend``.

    Returns ``(seconds, x, reduced_sweeps)`` where ``reduced_sweeps`` is
    the number of reduced-system factorizations the epoch ran (one: rank
    0 factorizes the reduced system and broadcasts the factor).  For
    the proc backend the wall time includes forking the workers and
    mapping the shared segment (the cost ``SpmdSession`` amortizes).
    """
    slices = partition_matrix(A, P, lb=lb)
    before = FACTORIZATIONS.count
    with Timer() as t:
        out = run_spmd(P, epoch_job, slices, rhs, backend=backend)
    x = np.concatenate([o[0] for o in out] + [out[0][1]])
    if backend == "proc" and P > 1:
        # Each worker counted its own process-local sweeps.
        sweeps = sum(o[2] for o in out)
    else:
        # Thread ranks share the parent's counter; read it once here
        # (per-rank deltas would overlap).
        sweeps = FACTORIZATIONS.count - before
    return t.elapsed, x, sweeps
