"""INLA objective: exactness for Gaussian likelihoods.

For a Gaussian likelihood the whole model is conjugate: ``fobj(theta)``
must equal the *exact* log marginal ``log p(theta) + log p(y | theta)``
(up to a theta-independent constant), and the conditional mean/variances
must match the exact Gaussian posterior.  These tests pin the entire
pipeline — SPDE assembly, LMC, permutation, BTA solvers — against dense
linear algebra.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.inla import DistributedSolver, SequentialSolver, evaluate_fobj
from repro.inla.marginals import latent_marginals


def _exact_log_marginal(model, theta):
    """Dense reference: y ~ N(0, A Qp^{-1} A^T + D^{-1})."""
    qp, qc, rhs, taus = model.assemble_sparse(theta)
    A = model.A.toarray()
    Sig_prior = np.linalg.inv(qp.toarray())
    d = model.likelihood.noise_precisions(taus)
    cov_y = A @ Sig_prior @ A.T + np.diag(1.0 / d)
    y = model.likelihood.y
    sign, logdet = np.linalg.slogdet(cov_y)
    assert sign > 0
    m = y.size
    loglik_y = -0.5 * (m * np.log(2 * np.pi) + logdet + y @ np.linalg.solve(cov_y, y))
    return model.priors.logpdf(theta) + loglik_y


class TestObjectiveExactness:
    def test_fobj_equals_exact_marginal_up_to_constant(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        thetas = [gt.theta, gt.theta + 0.3, gt.theta - 0.2]
        diffs = []
        for th in thetas:
            f = evaluate_fobj(model, th).value
            ref = _exact_log_marginal(model, th)
            diffs.append(f - ref)
        # Same additive constant everywhere (here: the constant is 0 up to
        # the m/2 log 2 pi convention, which we keep in both sides).
        assert np.allclose(diffs, diffs[0], atol=1e-6)

    def test_fobj_constant_is_zero(self, tiny_uni_model):
        """With our conventions fobj IS the exact log joint marginal."""
        model, gt, _ = tiny_uni_model
        f = evaluate_fobj(model, gt.theta).value
        assert np.isclose(f, _exact_log_marginal(model, gt.theta), atol=1e-6)

    def test_trivariate_exactness(self, tiny_model):
        model, gt, _ = tiny_model
        f = evaluate_fobj(model, gt.theta).value
        assert np.isclose(f, _exact_log_marginal(model, gt.theta), atol=1e-6)

    def test_conditional_mean_exact(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        res = evaluate_fobj(model, gt.theta, keep_mu=True)
        qp, qc, rhs, taus = model.assemble_sparse(gt.theta)
        mu_ref = np.linalg.solve(qc.toarray(), rhs)
        mu = model.permutation.unpermute_vector(res.mu_perm)
        assert np.allclose(mu, mu_ref, atol=1e-8)

    def test_posterior_variances_exact(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        lm = latent_marginals(model, gt.theta, SequentialSolver())
        _, qc, _, _ = model.assemble_sparse(gt.theta)
        var_ref = np.diag(np.linalg.inv(qc.toarray()))
        assert np.allclose(lm.sd**2, var_ref, rtol=1e-8)

    def test_distributed_solver_identical(self, tiny_model):
        model, gt, _ = tiny_model
        f_seq = evaluate_fobj(model, gt.theta, solver=SequentialSolver()).value
        f_dist = evaluate_fobj(model, gt.theta, solver=DistributedSolver(2)).value
        assert np.isclose(f_seq, f_dist, atol=1e-9)

    def test_s2_parallel_identical(self, tiny_model):
        model, gt, _ = tiny_model
        f1 = evaluate_fobj(model, gt.theta).value
        with ThreadPoolExecutor(max_workers=1) as pool:
            f2 = evaluate_fobj(model, gt.theta, s2_pool=pool).value
        assert np.isclose(f1, f2, atol=1e-12)

    def test_invalid_theta_gives_minus_inf(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        theta = gt.theta.copy()
        theta[1] = 50.0  # absurd spatial range -> numerically singular
        res = evaluate_fobj(model, theta)
        assert res.value == -np.inf or np.isfinite(res.value)

    def test_result_decomposition_sums(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        r = evaluate_fobj(model, gt.theta)
        total = (
            r.log_prior_theta
            + r.log_likelihood
            + 0.5 * r.logdet_qp
            - 0.5 * r.quad_qp
            - 0.5 * r.logdet_qc
        )
        assert np.isclose(total, r.value)

    def test_truth_beats_far_theta(self, tiny_uni_model):
        model, gt, _ = tiny_uni_model
        f_truth = evaluate_fobj(model, gt.theta).value
        f_far = evaluate_fobj(model, gt.theta + 1.5).value
        assert f_truth > f_far


class TestFactorizationCount:
    """The handle rewiring's amortization contract, asserted exactly."""

    def test_one_pobtaf_per_matrix_per_theta(self, tiny_uni_model):
        """One objective evaluation = exactly 2 pobtafs (Qp and Qc):
        the Qc handle shares one factorization between logdet and the
        conditional-mean solve."""
        from repro.structured.pobtaf import FACTORIZATIONS

        model, gt, _ = tiny_uni_model
        c0 = FACTORIZATIONS.count
        evaluate_fobj(model, gt.theta, solver=SequentialSolver())
        assert FACTORIZATIONS.count == c0 + 2

    def test_evaluator_batch_count_per_point(self, tiny_uni_model):
        """On the per-point path a full gradient stencil (2d + 1 points)
        factorizes exactly 2 (2d + 1) times — one pobtaf per
        (theta, matrix) pair."""
        from repro.inla.evaluator import FobjEvaluator
        from repro.structured.pobtaf import FACTORIZATIONS

        model, gt, _ = tiny_uni_model
        ev = FobjEvaluator(
            model, solver=SequentialSolver(), batch_stencils=False, cache_size=0
        )
        d = gt.theta.size
        c0 = FACTORIZATIONS.count
        ev.value_and_gradient(gt.theta, h=1e-4)
        assert FACTORIZATIONS.count == c0 + 2 * (2 * d + 1)

    def test_evaluator_batch_count_theta_batched(self, tiny_uni_model):
        """The theta-batched sweep collapses the whole stencil into
        exactly 2 factorization sweeps (one per precision matrix)."""
        from repro.inla.evaluator import FobjEvaluator
        from repro.structured.pobtaf import FACTORIZATIONS

        model, gt, _ = tiny_uni_model
        ev = FobjEvaluator(
            model, solver=SequentialSolver(), batch_stencils=True, cache_size=0
        )
        c0 = FACTORIZATIONS.count
        ev.value_and_gradient(gt.theta, h=1e-4)
        assert FACTORIZATIONS.count == c0 + 2
        assert ev.n_batch_sweeps == 2

    def test_marginals_single_factorization(self, tiny_uni_model):
        """Means + variances at the mode: one pobtaf, not two."""
        from repro.structured.pobtaf import FACTORIZATIONS

        model, gt, _ = tiny_uni_model
        c0 = FACTORIZATIONS.count
        latent_marginals(model, gt.theta, SequentialSolver())
        assert FACTORIZATIONS.count == c0 + 1
