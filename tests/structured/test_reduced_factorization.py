"""Reduced-system factorization: once per epoch, shared by every rank.

The ``2P-1``-block separator system used to be factorized by EVERY rank;
``factorize_reduced`` runs one sweep on rank 0 and broadcasts the factor.
These tests pin (a) bit-identity of every rank's broadcast factor with a
sequential ``pobtaf`` of the same reduced matrix at P=2,4,8 (and 1e-10
agreement with the per-block oracle), (b) the ``FACTORIZATIONS`` sweep
count of one per epoch, and (c) full-pipeline agreement with the
sequential solver and with the per-block oracle.
"""

import numpy as np
import pytest

from repro.comm.local import run_spmd as run_spmd_threads
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.pobtaf import FACTORIZATIONS, pobtaf
from repro.structured.pobtas import pobtas
from tests import oracle


def _case(n, b, a, seed=0):
    rng = np.random.default_rng(seed)
    return BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)


def _factor_bits(chol):
    f = chol.factor
    return f.diag.copy(), f.lower.copy(), f.arrow.copy(), f.tip.copy()


def _run_epoch(A, P):
    """One d_pobtaf epoch: each rank's reduced factor bits, the reduced
    factor's logdet, and the rank's assembled reduced matrix."""
    slices = partition_matrix(A, P, lb=1.6)

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = d_pobtaf(sl, comm)
        # Rank 0 factorized its reduced matrix in place; the others still
        # hold the assembled (identical) values.
        reduced = None if comm.Get_rank() == 0 else f.reduced.matrix.copy()
        return _factor_bits(f.reduced_chol), f.reduced_chol.logdet(), reduced

    return run_spmd_threads(P, rank_fn)


class TestSharedFactorIdentity:
    @pytest.mark.parametrize("P", [2, 4, 8])
    @pytest.mark.parametrize("ref", ["batched", "oracle"])
    def test_factor_bits_identical(self, P, ref):
        """Every rank's broadcast factor equals a sequential factorization
        of the reduced matrix: bitwise against ``pobtaf`` (what each rank
        would compute on its own), 1e-10 against the per-block oracle."""
        A = _case(2 * P + 3, 3, 2)
        out = _run_epoch(A, P)
        reduced = out[1][2]
        chol = pobtaf(reduced) if ref == "batched" else oracle.pobtaf(reduced)
        ld_ref = chol.logdet() if ref == "batched" else oracle.logdet(chol)
        for bits, ld, _ in out:
            for arr, arr_ref in zip(bits, _factor_bits(chol)):
                if ref == "batched":
                    assert np.array_equal(arr, arr_ref)  # bitwise, not approx
                else:
                    assert np.allclose(arr, arr_ref, atol=1e-10)
            if ref == "batched":
                assert ld == ld_ref
            else:
                assert np.isclose(ld, ld_ref, atol=1e-10)

    def test_all_ranks_hold_identical_factor(self):
        A = _case(11, 3, 2)
        out = _run_epoch(A, 4)
        bits0 = out[0][0]
        for bits, _, _ in out[1:]:
            for arr, arr0 in zip(bits, bits0):
                assert np.array_equal(arr, arr0)


class TestFactorizationCount:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_shared_runs_one_reduced_sweep_per_epoch(self, P):
        """Counter assertion that per-rank redundancy is gone: an epoch is
        P interior eliminations (not counted: they never call pobtaf) plus
        exactly ONE reduced-system sweep — historically it was P."""
        A = _case(2 * P + 3, 3, 2)
        slices = partition_matrix(A, P, lb=1.6)

        def rank_fn(comm):
            return d_pobtaf(slices[comm.Get_rank()], comm).positions

        before = FACTORIZATIONS.count
        run_spmd_threads(P, rank_fn)
        assert FACTORIZATIONS.count - before == 1


class TestSharedPipelineCorrectness:
    @pytest.mark.parametrize("P", [2, 4])
    @pytest.mark.parametrize("ref", ["batched", "oracle"])
    def test_solve_matches_sequential(self, P, ref):
        A = _case(11, 3, 2)
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(A.n * A.b + A.a)
        if ref == "batched":
            ref_ld, x_ref = pobtaf(A).logdet(), pobtas(pobtaf(A), rhs)
        else:
            ref_ld, x_ref = oracle.logdet(oracle.pobtaf(A)), oracle.pobtas(oracle.pobtaf(A), rhs)
        slices = partition_matrix(A, P, lb=1.6)
        b, n = A.b, A.n

        def rank_fn(comm):
            sl = slices[comm.Get_rank()]
            f = d_pobtaf(sl, comm)
            ld = f.logdet(comm)
            xl, xt = d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[n * b :], comm)
            return ld, xl, xt

        out = run_spmd_threads(P, rank_fn)
        x_parts = [xl for _, xl, _ in out]
        x = np.concatenate(x_parts + [out[0][2]])
        assert np.allclose(x, x_ref, atol=1e-10)
        for ld, _, _ in out:
            assert np.isclose(ld, ref_ld)
