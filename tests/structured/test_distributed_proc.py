"""d_pobtaf / d_pobtas / d_pobtasi under real worker processes.

Acceptance coverage for the process backend: the full distributed sweep
family running over :class:`~repro.comm.shm.ShmComm` must be BIT-IDENTICAL
to the thread backend (same reductions in the same rank order) and agree
with the sequential solver to 1e-10.  Also exercises the persistent
:class:`~repro.structured.factor.ProcDistributedBTAFactor` handle, whose
workers keep their factor slices resident across epochs.

Rank functions are module-level so they stay picklable under any start
method.
"""

import numpy as np
import pytest

from repro.comm import SpmdSession, run_spmd
from repro.errors import NotPositiveDefiniteError
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi_diag
from repro.structured.factor import (
    DistributedBTAFactor,
    ProcDistributedBTAFactor,
    d_factorize,
    d_factorize_proc,
)
from repro.structured.multirhs import d_pobtas_stack
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas
from repro.structured.pobtasi import selected_inverse_diagonal
from tests import oracle


def _case(n=11, b=3, a=2, seed=0):
    rng = np.random.default_rng(seed)
    return BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)


def _epoch(comm, slices, rhs, impl):
    """One full distributed epoch: factorize, logdet, solve, selinv diag.

    ``impl="oracle"`` factorizes, reduces the logdet and solves with the
    per-block oracle; the diagonal sweep then runs on the oracle factors.
    """
    sl = slices[comm.Get_rank()]
    b, start, stop = sl.diag.shape[1], sl.part.start, sl.part.stop
    n_total = rhs.shape[0]  # n*b + a; tip lives past the block section
    rhs_local, rhs_tip = rhs[start * b : stop * b], rhs[n_total - sl.a :]
    if impl == "oracle":
        f = oracle.d_pobtaf(sl, comm)
        ld = oracle.d_logdet(f, comm)
        xl, xt = oracle.d_pobtas(f, rhs_local, rhs_tip, comm)
    else:
        f = d_pobtaf(sl, comm)
        ld = f.logdet(comm)
        xl, xt = d_pobtas(f, rhs_local, rhs_tip, comm)
    var_local, var_tip = d_pobtasi_diag(f)
    return ld, xl, xt, var_local, var_tip


def _npd_epoch(comm, slices):
    return d_pobtaf(slices[comm.Get_rank()], comm)


def _tip_epoch(comm, seed, epoch, shape):
    """One seeded epoch: factorize, solve an 8-RHS stack; this rank's tip."""
    rng = np.random.default_rng([seed, epoch])
    A = BTAMatrix.random_spd(BTAShape(**shape), rng)
    rhs = rng.standard_normal((8, A.N))
    sl = partition_matrix(A, comm.Get_size())[comm.Get_rank()]
    lo, hi = sl.part.start * A.b, sl.part.stop * A.b
    f = d_pobtaf(sl, comm)
    return d_pobtas_stack(f, rhs[:, lo:hi], rhs[:, A.N - A.a :], comm)[1]


def _assemble(out, tip_index):
    x = np.concatenate([o[1] for o in out] + [out[0][2]])
    var = np.concatenate([o[3] for o in out] + [out[0][4]])
    return out[0][0], x, var


class TestProcMatchesThreadsAndSequential:
    @pytest.mark.parametrize("P", [2, 4])
    @pytest.mark.parametrize("impl", ["oracle", "batched"])
    def test_epoch_bitwise_and_vs_sequential(self, P, impl):
        A = _case()
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(A.n * A.b + A.a)
        slices = partition_matrix(A, P, lb=1.6)

        proc = run_spmd(P, _epoch, slices, rhs, impl, backend="proc")
        thr = run_spmd(P, _epoch, slices, rhs, impl, backend="threads")

        # Bit-identity between backends: same ordered reductions.
        for po, to in zip(proc, thr):
            assert po[0] == to[0]  # logdet
            for pa, ta in zip(po[1:], to[1:]):
                assert np.array_equal(pa, ta)

        # 1e-10 agreement with the sequential solver of the same impl.
        ld, x, var = _assemble(proc, A.n * A.b)
        if impl == "oracle":
            chol = oracle.pobtaf(A)
            ref = oracle.logdet(chol), oracle.pobtas(chol, rhs), oracle.pobtasi(chol).diagonal()
        else:
            chol = pobtaf(A)
            ref = chol.logdet(), pobtas(chol, rhs), selected_inverse_diagonal(chol)
        assert np.isclose(ld, ref[0], atol=1e-10)
        assert np.allclose(x, ref[1], atol=1e-10)
        assert np.allclose(var, ref[2], atol=1e-10)

    def test_not_positive_definite_propagates(self):
        A = _case()
        A.diag[2] -= 50.0 * np.eye(A.b)  # make a partition interior indefinite
        slices = partition_matrix(A, 2, lb=1.6)
        with pytest.raises(RuntimeError) as info:
            run_spmd(2, _npd_epoch, slices, backend="proc")
        cause = info.value.__cause__
        assert isinstance(cause, NotPositiveDefiniteError)


class TestProcFactorHandle:
    def test_epoch_reuse_matches_thread_handle(self):
        A = _case(seed=3)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(A.N)
        stack = rng.standard_normal((3, A.N))

        ref: DistributedBTAFactor = d_factorize(A, 4)
        chol = oracle.pobtaf(A)
        assert np.isclose(ref.logdet(), oracle.logdet(chol), atol=1e-10)
        assert np.allclose(ref.solve(rhs), oracle.pobtas(chol, rhs), atol=1e-10)
        with d_factorize_proc(A, 4) as h:
            assert isinstance(h, ProcDistributedBTAFactor)
            assert (h.P, h.n, h.b, h.a, h.N) == (ref.P, ref.n, ref.b, ref.a, ref.N)
            # One factorization epoch, many solve epochs against resident
            # factors — every result bit-identical to the thread handle.
            assert h.logdet() == ref.logdet()
            assert np.array_equal(h.solve(rhs), ref.solve(rhs))
            assert np.array_equal(h.solve_stack(stack), ref.solve_stack(stack))
            assert np.array_equal(h.solve_lt_stack(stack), ref.solve_lt_stack(stack))
            assert np.array_equal(
                h.selected_inverse_diagonal(), ref.selected_inverse_diagonal()
            )
            x, var = h.solve_and_selected_inverse_diagonal(rhs)
            x_ref, var_ref = ref.solve_and_selected_inverse_diagonal(rhs)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(var, var_ref)
            # Second solve epoch on the same resident factors.
            assert np.array_equal(h.solve(rhs), x_ref)

    def test_sample_covariance_shape_and_determinism(self):
        A = _case(seed=5)
        with d_factorize_proc(A, 2) as h:
            s1 = h.sample(4, np.random.default_rng(9))
            s2 = h.sample(4, np.random.default_rng(9))
        assert s1.shape == (4, A.N)
        assert np.array_equal(s1, s2)

    def test_solve_matches_sequential(self):
        A = _case(seed=6)
        rhs = np.random.default_rng(7).standard_normal(A.N)
        x_ref = pobtas(pobtaf(A), rhs)
        with d_factorize_proc(A, 4) as h:
            assert np.allclose(h.solve(rhs), x_ref, atol=1e-10)

    def test_close_releases_workers(self):
        A = _case(seed=8)
        h = d_factorize_proc(A, 2)
        ld = h.logdet()
        h.close()
        h.close()  # idempotent
        assert np.isfinite(ld)
        with pytest.raises(RuntimeError, match="closed"):
            h.solve(np.zeros(A.N))

    def test_not_positive_definite_raises_and_cleans_up(self):
        A = _case(seed=9)
        A.diag[1] -= 50.0 * np.eye(A.b)
        with pytest.raises(NotPositiveDefiniteError):
            d_factorize_proc(A, 2)

    def test_p1_runs_inline(self):
        A = _case(seed=10)
        with d_factorize_proc(A, 1) as h:
            assert np.isclose(h.logdet(), pobtaf(A).logdet(), atol=1e-10)


class TestReplicatedTipIdentity:
    def test_tip_bitwise_identical_across_ranks(self):
        """The replicated tip of the solution is the same bits on every
        rank.  The reduced factor's cached inverses used to come from the
        fused factor-and-invert kernel (Fortran-ordered POTRF output) on
        rank 0 but from the lazy inverse of the C-ordered stack on the
        other ranks; at b = 64 about a fifth of these epochs diverged in
        the last bits."""
        shape = {"n": 4, "b": 64, "a": 6}
        with SpmdSession(2) as session:
            for epoch in range(64):
                tips = session.run(_tip_epoch, 17, epoch, shape)
                assert np.array_equal(tips[0], tips[1]), f"epoch {epoch}"
