"""Distributed solvers must match the sequential ones exactly.

These are the strongest correctness tests in the repository: the whole
nested-dissection pipeline (interior elimination, reduced-system assembly
over real collectives, back-substitution, selected-inverse propagation) is
compared block-for-block against the sequential kernels, for several
partition counts, with and without load balancing, with and without the
arrowhead.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import run_spmd
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import LocalBTASlice, d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi, d_pobtasi_diag, gather_selected_inverse
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtasi import pobtasi
from tests import oracle


def _case(n, b, a, seed=0):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, A.to_dense(), rng


def _run_pipeline(A, P, lb, rhs):
    slices = partition_matrix(A, P, lb=lb)
    b, n = A.b, A.n

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = d_pobtaf(sl, comm)
        ld = f.logdet(comm)
        xl, xt = d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[n * b :], comm)
        return ld, xl, xt, d_pobtasi(f)

    return run_spmd(P, rank_fn)


class TestDistributedFactorization:
    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    @pytest.mark.parametrize("lb", [1.0, 1.6])
    def test_logdet_matches_sequential(self, P, lb):
        A, Ad, _ = _case(10, 3, 2)
        ref = pobtaf(A).logdet()
        slices = partition_matrix(A, P, lb=lb)
        out = run_spmd(P, lambda comm: d_pobtaf(slices[comm.Get_rank()], comm).logdet(comm))
        assert all(np.isclose(v, ref) for v in out)

    def test_bt_case(self):
        A, Ad, _ = _case(9, 4, 0)
        ref = np.linalg.slogdet(Ad)[1]
        slices = partition_matrix(A, 3)
        out = run_spmd(3, lambda comm: d_pobtaf(slices[comm.Get_rank()], comm).logdet(comm))
        assert all(np.isclose(v, ref) for v in out)

    def test_rank_mismatch_rejected(self):
        A, _, _ = _case(6, 2, 1)
        slices = partition_matrix(A, 2)

        def bad(comm):
            # Every rank grabs slice 0 -> partition index mismatch on rank 1.
            return d_pobtaf(slices[0], comm)

        with pytest.raises(RuntimeError):
            run_spmd(2, bad)


class TestDistributedTriangularSolve:
    @pytest.mark.parametrize("P", [2, 3, 4])
    @pytest.mark.parametrize("lb", [1.0, 1.6])
    def test_solution_matches_dense(self, P, lb):
        A, Ad, rng = _case(11, 3, 2, seed=P)
        rhs = rng.standard_normal(A.N)
        out = _run_pipeline(A, P, lb, rhs)
        x = np.concatenate([o[1] for o in out] + [out[0][2]])
        assert np.allclose(Ad @ x, rhs, atol=1e-8)

    def test_tip_solution_identical_on_all_ranks(self):
        A, _, rng = _case(8, 2, 3)
        rhs = rng.standard_normal(A.N)
        out = _run_pipeline(A, 2, 1.0, rhs)
        assert np.allclose(out[0][2], out[1][2])

    def test_multiple_rhs(self):
        A, Ad, rng = _case(9, 3, 2, seed=5)
        rhs = rng.standard_normal((A.N, 3))
        slices = partition_matrix(A, 3)
        b, n = A.b, A.n

        def rank_fn(comm):
            sl = slices[comm.Get_rank()]
            f = d_pobtaf(sl, comm)
            return d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[n * b :], comm)

        out = run_spmd(3, rank_fn)
        x = np.concatenate([o[0] for o in out] + [out[0][1]])
        assert np.allclose(Ad @ x, rhs, atol=1e-8)

    def test_bt_case(self):
        A, Ad, rng = _case(8, 3, 0)
        rhs = rng.standard_normal(A.N)
        out = _run_pipeline(A, 2, 1.0, rhs)
        x = np.concatenate([o[1] for o in out])
        assert np.allclose(Ad @ x, rhs, atol=1e-8)


class TestDistributedSelectedInversion:
    @pytest.mark.parametrize("P", [2, 3, 4])
    @pytest.mark.parametrize("lb", [1.0, 1.6])
    def test_matches_sequential(self, P, lb):
        A, Ad, rng = _case(12, 3, 2, seed=10 + P)
        rhs = rng.standard_normal(A.N)
        out = _run_pipeline(A, P, lb, rhs)
        dense_sel = gather_selected_inverse([o[3] for o in out])
        ref = BTAMatrix.from_dense(np.linalg.inv(Ad), A.shape3).to_dense()
        assert np.allclose(dense_sel, ref, atol=1e-8)

    def test_matches_sequential_pobtasi(self):
        A, _, rng = _case(10, 2, 1, seed=3)
        rhs = rng.standard_normal(A.N)
        ref = pobtasi(pobtaf(A))
        out = _run_pipeline(A, 3, 1.0, rhs)
        slices = sorted([o[3] for o in out], key=lambda s: s.part.index)
        for sl in slices:
            s, e = sl.part.start, sl.part.stop
            assert np.allclose(sl.diag, ref.diag[s:e], atol=1e-10)
            assert np.allclose(sl.arrow, ref.arrow[s:e], atol=1e-10)
            assert np.allclose(sl.lower, ref.lower[s : e - 1], atol=1e-10)
            if sl.lower_prev is not None:
                assert np.allclose(sl.lower_prev, ref.lower[s - 1], atol=1e-10)

    def test_no_interior_partitions(self):
        """Two-block partitions exercise the m == 0 code path."""
        A, Ad, rng = _case(6, 3, 2, seed=9)
        rhs = rng.standard_normal(A.N)
        out = _run_pipeline(A, 3, 1.0, rhs)  # 3 partitions of 2 blocks
        dense_sel = gather_selected_inverse([o[3] for o in out])
        ref = BTAMatrix.from_dense(np.linalg.inv(Ad), A.shape3).to_dense()
        assert np.allclose(dense_sel, ref, atol=1e-8)


class TestDistributedDiagonalOnly:
    """Carry-based per-rank diagonal recursion (no full inverse slices)."""

    @pytest.mark.parametrize("P", [2, 3, 4])
    @pytest.mark.parametrize("a", [0, 2])
    def test_bit_identical_to_full_recursion(self, P, a):
        A, _, _ = _case(12, 3, a, seed=20 + P + a)
        slices = partition_matrix(A, P, lb=1.6)

        def rank_fn(comm):
            f = d_pobtaf(slices[comm.Get_rank()], comm)
            xi = d_pobtasi(f)
            full = (
                np.ascontiguousarray(np.diagonal(xi.diag, axis1=1, axis2=2)).ravel(),
                np.ascontiguousarray(np.diagonal(xi.tip)),
            )
            return full, d_pobtasi_diag(f)

        for full, carry in run_spmd(P, rank_fn):
            assert np.array_equal(full[0], carry[0])
            assert np.array_equal(full[1], carry[1])

    @pytest.mark.parametrize("factorizer", [oracle.d_pobtaf, d_pobtaf], ids=["oracle", "batched"])
    def test_matches_dense_inverse(self, factorizer):
        """The diagonal sweep over the production factors and over the
        per-block oracle's factors both match the dense inverse."""
        A, Ad, _ = _case(10, 3, 2, seed=31)
        P = 3
        slices = partition_matrix(A, P, lb=1.0)

        def rank_fn(comm):
            f = factorizer(slices[comm.Get_rank()], comm)
            return f.part, d_pobtasi_diag(f)

        out = run_spmd(P, rank_fn)
        diag = np.empty(A.N)
        for part, (local, tip) in out:
            diag[part.start * A.b : part.stop * A.b] = local
            diag[A.n * A.b :] = tip
        assert np.allclose(diag, np.diag(np.linalg.inv(Ad)), atol=1e-9)

    def test_no_interior_partitions_diag(self):
        """Two-block partitions exercise the m == 0 carry path."""
        A, Ad, _ = _case(6, 3, 2, seed=9)
        slices = partition_matrix(A, 3, lb=1.0)

        def rank_fn(comm):
            f = d_pobtaf(slices[comm.Get_rank()], comm)
            return f.part, d_pobtasi_diag(f)

        out = run_spmd(3, rank_fn)
        ref = np.diag(np.linalg.inv(Ad))
        for part, (local, tip) in out:
            assert np.allclose(local, ref[part.start * A.b : part.stop * A.b], atol=1e-9)
            assert np.allclose(tip, ref[A.n * A.b :], atol=1e-9)


class TestDistributedProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(6, 14),
        b=st.integers(1, 4),
        a=st.integers(0, 3),
        P=st.integers(2, 4),
        lb=st.sampled_from([1.0, 1.4, 2.0]),
        seed=st.integers(0, 10**6),
    )
    def test_distributed_equals_sequential(self, n, b, a, P, lb, seed):
        if P > n // 2:
            return
        A, Ad, rng = _case(n, b, a, seed)
        rhs = rng.standard_normal(A.N)
        ref_logdet = np.linalg.slogdet(Ad)[1]
        out = _run_pipeline(A, P, lb, rhs)
        assert np.isclose(out[0][0], ref_logdet, rtol=1e-8, atol=1e-8)
        x = np.concatenate([o[1] for o in out] + ([out[0][2]] if a else []))
        assert np.allclose(Ad @ x, rhs, atol=1e-7)
        dense_sel = gather_selected_inverse([o[3] for o in out])
        ref = BTAMatrix.from_dense(np.linalg.inv(Ad), A.shape3).to_dense()
        assert np.allclose(dense_sel, ref, atol=1e-7)


class TestLocalSlice:
    def test_from_global_roundtrip(self):
        A, _, _ = _case(10, 2, 1)
        slices = partition_matrix(A, 3)
        assert slices[0].lower_prev is None
        assert slices[1].lower_prev is not None
        total = sum(sl.part.n_blocks for sl in slices)
        assert total == A.n

    def test_shape_validation(self):
        A, _, _ = _case(6, 2, 1)
        slices = partition_matrix(A, 2)
        with pytest.raises(ValueError):
            LocalBTASlice(
                part=slices[1].part,
                diag=slices[1].diag,
                lower=slices[1].lower,
                arrow=slices[1].arrow,
                tip=slices[1].tip,
                lower_prev=None,  # missing for p >= 1
            )
