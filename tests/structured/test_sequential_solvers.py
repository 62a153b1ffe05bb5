"""Sequential BTA kernels against dense LAPACK references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotPositiveDefiniteError
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import pobtasi, selected_inverse_diagonal


def _random_case(n, b, a, seed):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, A.to_dense(), rng


class TestPobtaf:
    @pytest.mark.parametrize("n,b,a", [(4, 3, 2), (1, 5, 3), (7, 2, 0), (3, 1, 1), (2, 4, 6)])
    def test_reconstruction(self, n, b, a):
        A, Ad, _ = _random_case(n, b, a, 0)
        L = pobtaf(A).to_dense()
        assert np.allclose(L @ L.T, Ad, atol=1e-10 * max(1, np.abs(Ad).max()))

    def test_logdet_matches_slogdet(self, small_bta):
        A, Ad = small_bta
        assert np.isclose(pobtaf(A).logdet(), np.linalg.slogdet(Ad)[1])

    def test_logdet_bt(self, small_bt):
        A, Ad = small_bt
        assert np.isclose(pobtaf(A).logdet(), np.linalg.slogdet(Ad)[1])

    def test_overwrite_destroys_input(self, small_bta):
        A, _ = small_bta
        B = A.copy()
        chol = pobtaf(B, overwrite=True)
        assert chol.factor.diag is B.diag

    def test_no_overwrite_preserves_input(self, small_bta):
        A, Ad = small_bta
        pobtaf(A, overwrite=False)
        assert np.allclose(A.to_dense(), Ad)

    def test_indefinite_raises(self):
        A = BTAMatrix(np.stack([-np.eye(3)] * 2))
        with pytest.raises(NotPositiveDefiniteError):
            pobtaf(A)

    def test_schur_complement_failure_raises(self, rng):
        # SPD diagonal blocks but indefinite overall matrix.
        diag = np.stack([np.eye(2), np.eye(2)])
        lower = np.array([[[5.0, 0.0], [0.0, 5.0]]])
        A = BTAMatrix(diag, lower)
        with pytest.raises(NotPositiveDefiniteError):
            pobtaf(A)


class TestPobtas:
    @pytest.mark.parametrize("n,b,a", [(4, 3, 2), (6, 2, 0), (1, 4, 2)])
    def test_solve_vector(self, n, b, a):
        A, Ad, rng = _random_case(n, b, a, 1)
        rhs = rng.standard_normal(A.N)
        x = pobtas(pobtaf(A), rhs)
        assert np.allclose(Ad @ x, rhs)

    def test_solve_multiple_rhs(self, small_bta, rng):
        A, Ad = small_bta
        rhs = rng.standard_normal((A.N, 4))
        x = pobtas(pobtaf(A), rhs)
        assert np.allclose(Ad @ x, rhs)

    def test_wrong_rhs_length_rejected(self, small_bta, rng):
        A, _ = small_bta
        with pytest.raises(ValueError):
            pobtas(pobtaf(A), rng.standard_normal(A.N + 1))

    def test_rhs_not_mutated(self, small_bta, rng):
        A, _ = small_bta
        rhs = rng.standard_normal(A.N)
        keep = rhs.copy()
        pobtas(pobtaf(A), rhs)
        assert np.array_equal(rhs, keep)

    def test_backward_only_solve(self, small_bta, rng):
        """pobtas_lt solves L^T x = z (the GMRF sampling primitive)."""
        A, _ = small_bta
        chol = pobtaf(A)
        Ld = chol.to_dense()
        z = rng.standard_normal(A.N)
        x = pobtas_lt(chol, z)
        assert np.allclose(Ld.T @ x, z)

    def test_sampling_covariance(self):
        """Empirical covariance of L^{-T} z approaches A^{-1}."""
        A, Ad, rng = _random_case(3, 2, 1, 7)
        chol = pobtaf(A)
        Z = rng.standard_normal((A.N, 20000))
        X = pobtas_lt(chol, Z)
        emp = X @ X.T / Z.shape[1]
        assert np.allclose(emp, np.linalg.inv(Ad), atol=0.15)


class TestPobtasi:
    @pytest.mark.parametrize("n,b,a", [(4, 3, 2), (6, 2, 0), (1, 4, 2), (5, 1, 1)])
    def test_selected_entries_match_dense_inverse(self, n, b, a):
        A, Ad, _ = _random_case(n, b, a, 2)
        X = pobtasi(pobtaf(A))
        ref = BTAMatrix.from_dense(np.linalg.inv(Ad), A.shape3)
        assert np.allclose(X.diag, ref.diag, atol=1e-12)
        assert np.allclose(X.lower, ref.lower, atol=1e-12)
        assert np.allclose(X.arrow, ref.arrow, atol=1e-12)
        assert np.allclose(X.tip, ref.tip, atol=1e-12)

    def test_diagonal_helper(self, small_bta):
        A, Ad = small_bta
        d = selected_inverse_diagonal(pobtaf(A))
        assert np.allclose(d, np.diag(np.linalg.inv(Ad)))

    def test_diag_blocks_symmetric(self, small_bta):
        A, _ = small_bta
        X = pobtasi(pobtaf(A))
        assert np.allclose(X.diag, X.diag.transpose(0, 2, 1))

    def test_variances_positive(self, small_bta):
        A, _ = small_bta
        assert np.all(selected_inverse_diagonal(pobtaf(A)) > 0)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 7),
        b=st.integers(1, 5),
        a=st.integers(0, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_factor_solve_inverse_consistency(self, n, b, a, seed):
        """For any SPD BTA matrix: L L^T = A, A x = rhs, X = selected inv."""
        A, Ad, rng = _random_case(n, b, a, seed)
        chol = pobtaf(A)
        # logdet
        assert np.isclose(chol.logdet(), np.linalg.slogdet(Ad)[1], rtol=1e-9, atol=1e-9)
        # solve
        rhs = rng.standard_normal(A.N)
        assert np.allclose(Ad @ pobtas(chol, rhs), rhs, atol=1e-8)
        # selected inversion diagonal
        assert np.allclose(
            pobtasi(chol).diagonal(), np.diag(np.linalg.inv(Ad)), atol=1e-8
        )

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 6), b=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_solve_is_inverse_of_matvec(self, n, b, seed):
        """solve(matvec(x)) == x for BT matrices."""
        A, _, rng = _random_case(n, b, 0, seed)
        x = rng.standard_normal(A.N)
        chol = pobtaf(A)
        assert np.allclose(pobtas(chol, A.matvec(x)), x, atol=1e-8)
