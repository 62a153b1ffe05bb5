"""Batched kernel layer vs. the per-block oracle (``tests/oracle``).

The production solvers must agree with the per-block reference for every
BTA shape — including the degenerate ``n = 1`` and ``a = 0`` cases — to
1e-10 on the factor, the solution, the selected inverse, and ``log det``,
and must raise the same ``NotPositiveDefiniteError`` on non-SPD input.
At the application's block shape (``b = 330``, ``a = 15``) they must
also agree with the dense ``np.linalg`` oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import run_spmd
from repro.errors import NotPositiveDefiniteError
from repro.structured import batched as bk
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi, gather_selected_inverse
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import pobtasi
from tests import oracle
from tests.oracle import dense
from tests.oracle.kernels import (
    chol_lower,
    logdet_from_chol_diag,
    solve_lower,
    solve_lower_t,
    tri_inverse_lower,
)

ATOL = 1e-10

# Shapes chosen to hit the degenerate corners: single block, no arrowhead,
# arrow wider than the blocks, scalar blocks.
SHAPES = [(4, 3, 2), (1, 5, 3), (1, 4, 0), (7, 2, 0), (3, 1, 1), (2, 4, 6), (6, 4, 3)]

#: The production factorization and its per-block oracle (same contract).
FACTORIZERS = [pobtaf, oracle.pobtaf]
FACTORIZER_IDS = ["batched", "oracle"]


def _case(n, b, a, seed=0):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, rng


def _chol_stack(n, b, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, b, b))
    spd = s @ s.transpose(0, 2, 1) + (b + 1) * np.eye(b)
    return np.linalg.cholesky(spd), rng


class TestPrimitives:
    """Stacked primitives against the looped per-block oracle kernels."""

    def test_batched_cholesky_matches_per_block(self):
        L, _ = _chol_stack(6, 5)
        spd = L @ L.transpose(0, 2, 1)
        got = bk.batched_chol_lower(spd)
        ref = np.stack([chol_lower(spd[i]) for i in range(6)])
        assert np.allclose(got, ref, atol=ATOL)

    def test_batched_cholesky_raises_on_any_bad_block(self):
        L, _ = _chol_stack(4, 3)
        spd = L @ L.transpose(0, 2, 1)
        spd[2] = -np.eye(3)
        with pytest.raises(NotPositiveDefiniteError):
            bk.batched_chol_lower(spd)

    @pytest.mark.parametrize("k", [1, 4])
    def test_batched_solves_match_per_block(self, k):
        L, rng = _chol_stack(5, 4)
        rhs = rng.standard_normal((5, 4, k))
        fwd = bk.batched_solve_lower(L, rhs)
        bwd = bk.batched_solve_lower_t(L, rhs)
        for i in range(5):
            assert np.allclose(fwd[i], solve_lower(L[i], rhs[i]), atol=ATOL)
            assert np.allclose(bwd[i], solve_lower_t(L[i], rhs[i]), atol=ATOL)

    def test_substitution_fallback_matches_lapack_path(self):
        """The vectorized-substitution fallback (the CuPy-shaped code path)
        agrees with the looped-LAPACK host path."""
        L, rng = _chol_stack(6, 5, seed=3)
        rhs = rng.standard_normal((6, 5, 3))
        assert np.allclose(
            bk._subst_solve_lower(L, rhs), bk.batched_solve_lower(L, rhs), atol=ATOL
        )
        assert np.allclose(
            bk._subst_solve_lower_t(L, rhs), bk.batched_solve_lower_t(L, rhs), atol=ATOL
        )

    def test_tall_stacks_take_substitution_path(self):
        """Above the ratio threshold the host path switches to substitution;
        results must stay interchangeable."""
        L, rng = _chol_stack(64, 2, seed=4)
        rhs = rng.standard_normal((64, 2, 3))
        got = bk.batched_solve_lower(L, rhs)
        ref = np.stack([solve_lower(L[i], rhs[i]) for i in range(64)])
        assert np.allclose(got, ref, atol=ATOL)

    def test_batched_tri_inverse(self):
        L, _ = _chol_stack(5, 4)
        inv = bk.batched_tri_inverse_lower(L)
        ref = np.stack([tri_inverse_lower(L[i]) for i in range(5)])
        assert np.allclose(inv, ref, atol=ATOL)
        # Output must be cleanly lower-triangular (it feeds GEMMs).
        assert np.allclose(inv, np.tril(inv))

    def test_empty_stacks(self):
        empty = np.zeros((0, 3, 3))
        assert bk.batched_chol_lower(empty).shape == (0, 3, 3)
        assert bk.batched_tri_inverse_lower(empty).shape == (0, 3, 3)
        assert bk.batched_logdet_from_chol_diag(empty) == 0.0


class TestLogdetKernel:
    """Single-pass logdet: same error surface as the historical two-pass."""

    def test_matches_direct_sum(self):
        L, _ = _chol_stack(1, 6)
        expected = 2.0 * np.sum(np.log(np.diagonal(L[0])))
        assert np.isclose(logdet_from_chol_diag(L[0]), expected)
        assert np.isclose(bk.batched_logdet_from_chol_diag(L), expected)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_invalid_diagonal_raises_in_both(self, bad):
        L, _ = _chol_stack(2, 3)
        L[1, 1, 1] = bad
        with pytest.raises(NotPositiveDefiniteError):
            logdet_from_chol_diag(L[1])
        with pytest.raises(NotPositiveDefiniteError):
            bk.batched_logdet_from_chol_diag(L)


class TestSequentialAgreement:
    @pytest.mark.parametrize("n,b,a", SHAPES)
    def test_factorization_agrees(self, n, b, a):
        A, _ = _case(n, b, a)
        Lb = pobtaf(A)
        Lr = oracle.pobtaf(A)
        assert np.allclose(Lb.to_dense(), Lr.to_dense(), atol=ATOL)
        assert np.isclose(Lb.logdet(), oracle.logdet(Lr), atol=ATOL)

    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_solve_agrees(self, n, b, a, k):
        A, rng = _case(n, b, a, seed=1)
        rhs = rng.standard_normal((A.N, k) if k else A.N)
        chol = pobtaf(A)
        xb = pobtas(chol, rhs)
        xr = oracle.pobtas(chol, rhs)
        assert xb.shape == xr.shape
        assert np.allclose(xb, xr, atol=ATOL)

    @pytest.mark.parametrize("n,b,a", SHAPES)
    def test_backward_only_solve_agrees(self, n, b, a):
        A, rng = _case(n, b, a, seed=2)
        chol = pobtaf(A)
        z = rng.standard_normal(A.N)
        assert np.allclose(pobtas_lt(chol, z), oracle.pobtas_lt(chol, z), atol=ATOL)

    @pytest.mark.parametrize("n,b,a", SHAPES)
    def test_selected_inversion_agrees(self, n, b, a):
        A, _ = _case(n, b, a, seed=3)
        chol = pobtaf(A)
        Xb = pobtasi(chol)
        Xr = oracle.pobtasi(chol)
        assert np.allclose(Xb.diag, Xr.diag, atol=ATOL)
        assert np.allclose(Xb.lower, Xr.lower, atol=ATOL)
        assert np.allclose(Xb.arrow, Xr.arrow, atol=ATOL)
        assert np.allclose(Xb.tip, Xr.tip, atol=ATOL)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 7),
        b=st.integers(1, 5),
        a=st.integers(0, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_paths_agree(self, n, b, a, seed):
        """For any SPD BTA shape, production and oracle agree end to end."""
        A, rng = _case(n, b, a, seed)
        rhs = rng.standard_normal(A.N)
        cb, cr = pobtaf(A), oracle.pobtaf(A)
        assert np.allclose(cb.to_dense(), cr.to_dense(), atol=ATOL)
        assert np.isclose(cb.logdet(), oracle.logdet(cr), atol=ATOL)
        assert np.allclose(pobtas(cb, rhs), oracle.pobtas(cr, rhs), atol=ATOL)
        assert np.allclose(pobtasi(cb).diagonal(), oracle.pobtasi(cr).diagonal(), atol=ATOL)

    @pytest.mark.parametrize("factorize", FACTORIZERS, ids=FACTORIZER_IDS)
    def test_not_spd_raises_in_both_paths(self, factorize):
        A = BTAMatrix(np.stack([-np.eye(3)] * 2))
        with pytest.raises(NotPositiveDefiniteError):
            factorize(A)

    @pytest.mark.parametrize("factorize", FACTORIZERS, ids=FACTORIZER_IDS)
    def test_schur_failure_raises_in_both_paths(self, factorize):
        # SPD diagonal blocks but indefinite overall matrix.
        diag = np.stack([np.eye(2), np.eye(2)])
        lower = np.array([[[5.0, 0.0], [0.0, 5.0]]])
        A = BTAMatrix(diag, lower)
        with pytest.raises(NotPositiveDefiniteError):
            factorize(A)

    @pytest.mark.parametrize("factorize", FACTORIZERS, ids=FACTORIZER_IDS)
    def test_indefinite_tip_raises_in_both_paths(self, factorize):
        """The arrowhead tip Schur complement can fail on its own."""
        A, _ = _case(3, 2, 2, seed=5)
        A.tip[...] = -np.eye(2) * 100.0
        with pytest.raises(NotPositiveDefiniteError):
            factorize(A)


class TestApplicationShape:
    """The fig8 block shape (``b = 330``, ``a = 15``) at a small ``n``:
    production agrees with the per-block and the dense oracle to 1e-10."""

    @pytest.fixture(scope="class")
    def case(self):
        A, rng = _case(3, 330, 15, seed=8)
        return A, rng.standard_normal(A.N), pobtaf(A), oracle.pobtaf(A)

    def test_factorization_and_logdet(self, case):
        A, _, chol, ref = case
        assert np.allclose(chol.to_dense(), ref.to_dense(), atol=ATOL)
        assert np.allclose(chol.to_dense(), dense.cholesky(A), atol=ATOL)
        ld = chol.logdet()
        for ld_ref in (oracle.logdet(ref), dense.slogdet(A)):
            assert abs(ld - ld_ref) <= ATOL * max(1.0, abs(ld_ref))

    def test_solve(self, case):
        A, rhs, chol, ref = case
        x = pobtas(chol, rhs)
        assert np.max(np.abs(x - oracle.pobtas(ref, rhs))) < ATOL
        assert np.max(np.abs(x - dense.solve(A, rhs))) < ATOL

    def test_selected_inversion(self, case):
        A, _, chol, ref = case
        X = pobtasi(chol).to_dense()
        assert np.max(np.abs(X - oracle.pobtasi(ref).to_dense())) < ATOL
        assert np.max(np.abs(X - dense.selected_inverse(A))) < ATOL


class TestDistributedAgreement:
    @pytest.mark.parametrize("P", [2, 3])
    @pytest.mark.parametrize("n,b,a", [(10, 3, 2), (9, 2, 0), (8, 3, 4)])
    def test_pipeline_agrees(self, P, n, b, a):
        A, rng = _case(n, b, a, seed=P)
        rhs = rng.standard_normal(A.N)
        slices = partition_matrix(A, P, lb=1.4)

        def rank_fn(comm):
            sl = slices[comm.Get_rank()]
            f = d_pobtaf(sl, comm)
            fr = oracle.d_pobtaf(sl, comm)
            rhs_local, rhs_tip = rhs[sl.part.start * b : sl.part.stop * b], rhs[n * b :]
            return (
                (f.logdet(comm), *d_pobtas(f, rhs_local, rhs_tip, comm), d_pobtasi(f)),
                (oracle.d_logdet(fr, comm), *oracle.d_pobtas(fr, rhs_local, rhs_tip, comm)),
            )

        out = run_spmd(P, rank_fn)
        outb, outr = [o[0] for o in out], [o[1] for o in out]
        assert np.isclose(outb[0][0], outr[0][0], atol=ATOL)
        xb = np.concatenate([o[1] for o in outb] + [outb[0][2]])
        xr = np.concatenate([o[1] for o in outr] + [outr[0][2]])
        assert np.allclose(xb, xr, atol=ATOL)
        # The distributed selected inverse against the per-block sequential
        # Takahashi recursion (same entries of A^{-1}).
        assert np.allclose(
            gather_selected_inverse([o[3] for o in outb]),
            oracle.pobtasi(oracle.pobtaf(A)).to_dense(),
            atol=ATOL,
        )

    @pytest.mark.parametrize("factorize", [d_pobtaf, oracle.d_pobtaf], ids=FACTORIZER_IDS)
    def test_distributed_not_spd_raises(self, factorize):
        A, _ = _case(8, 2, 1, seed=7)
        A.diag[5] = -np.eye(2) * 1000.0
        slices = partition_matrix(A, 2)
        with pytest.raises(RuntimeError):
            run_spmd(2, lambda comm: factorize(slices[comm.Get_rank()], comm))
