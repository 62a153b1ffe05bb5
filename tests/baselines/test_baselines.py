"""Baseline engines must agree with DALIA numerically (they differ only
in *how* they compute, not in *what*)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import INLADistEngine, RINLAEngine, SparseCholesky
from repro.baselines.rinla import evaluate_fobj_sparse
from repro.baselines.sparse_solver import sparse_selected_inverse_diagonal
from repro.errors import NotPositiveDefiniteError
from repro.inla import DALIA, evaluate_fobj
from repro.inla.bfgs import BFGSOptions


def _spd_sparse(rng, n):
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    M = 0.5 * (M + M.T) + n * np.eye(n)
    return sp.csr_matrix(M)


class TestSparseCholesky:
    def test_logdet(self, rng):
        A = _spd_sparse(rng, 30)
        ref = np.linalg.slogdet(A.toarray())[1]
        assert np.isclose(SparseCholesky(A).logdet(), ref)

    def test_solve(self, rng):
        A = _spd_sparse(rng, 25)
        rhs = rng.standard_normal(25)
        x = SparseCholesky(A).solve(rhs)
        assert np.allclose(A @ x, rhs)

    def test_indefinite_raises(self):
        A = sp.csr_matrix(-np.eye(4))
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholesky(A)

    def test_selected_inverse_diag_dense_path(self, rng):
        A = _spd_sparse(rng, 20)
        d = sparse_selected_inverse_diagonal(A)
        assert np.allclose(d, np.diag(np.linalg.inv(A.toarray())))

    def test_selected_inverse_diag_solve_path(self, rng):
        A = _spd_sparse(rng, 20)
        d = sparse_selected_inverse_diagonal(A, dense_limit=5)
        assert np.allclose(d, np.diag(np.linalg.inv(A.toarray())))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            SparseCholesky(sp.csr_matrix(np.ones((2, 3))))


class TestRINLAAgreement:
    def test_fobj_matches_dalia(self, tiny_model):
        model, gt, _ = tiny_model
        for shift in (0.0, 0.25, -0.4):
            f_dalia = evaluate_fobj(model, gt.theta + shift).value
            f_rinla = evaluate_fobj_sparse(model, gt.theta + shift).value
            assert np.isclose(f_dalia, f_rinla, atol=1e-7)

    def test_full_fit_agrees(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        opts = BFGSOptions(max_iter=40)
        res_d = DALIA(model, s1_workers=4).fit(options=opts)
        res_r = RINLAEngine(model, s1_workers=4).fit(options=opts)
        assert np.allclose(res_d.theta_mode, res_r.theta_mode, atol=1e-4)
        assert np.isclose(res_d.fobj_mode, res_r.fobj_mode, atol=1e-6)
        assert np.allclose(res_d.latent.mean, res_r.latent.mean, atol=1e-6)
        assert np.allclose(res_d.latent.sd, res_r.latent.sd, rtol=1e-5)


class TestINLADist:
    def test_rejects_multivariate(self, tiny_model):
        model, _, _ = tiny_model
        with pytest.raises(ValueError, match="univariate"):
            INLADistEngine(model)

    def test_univariate_fit_matches_dalia(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        opts = BFGSOptions(max_iter=40)
        res_d = DALIA(model, s1_workers=2).fit(options=opts)
        res_i = INLADistEngine(model, s1_workers=2).fit(options=opts)
        assert np.allclose(res_d.theta_mode, res_i.theta_mode, atol=1e-6)
