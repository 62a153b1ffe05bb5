"""R-INLA-like baseline engine.

The same INLA loop as DALIA, but every bottleneck operation goes through
the general sparse solver: no structure exploitation, no permutation to
BT/BTA, no distributed memory — mirroring the reference R-INLA package's
computational profile (paper Table I, first row).  Shared-memory
parallelism across function evaluations (their nested OpenMP scheme) is
modeled with the same S1 thread pool.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sparse_solver import SparseCholesky, sparse_selected_inverse_diagonal
from repro.errors import NotPositiveDefiniteError
from repro.inla.bfgs import BFGSOptions, bfgs_minimize
from repro.inla.evaluator import FobjEvaluator
from repro.inla.hessian import fd_hessian, hyperparameter_precision
from repro.inla.marginals import HyperMarginals, LatentMarginals
from repro.inla.objective import FobjResult
from repro.inla.dalia import INLAResult
from repro.model.assembler import CoregionalSTModel


class SparseFobjEvaluator(FobjEvaluator):
    """Objective evaluator running on the general sparse path."""

    def _eval_one(self, theta: np.ndarray) -> FobjResult:
        return evaluate_fobj_sparse(self.model, theta)


def evaluate_fobj_sparse(model: CoregionalSTModel, theta: np.ndarray) -> FobjResult:
    """``fobj(theta)`` via the general sparse solver (variable-major)."""
    theta = np.asarray(theta, dtype=np.float64)
    try:
        qp, qc, rhs, taus = model.assemble_sparse(theta)
        chol_p = SparseCholesky(qp)
        chol_c = SparseCholesky(qc)
    except (NotPositiveDefiniteError, ValueError, RuntimeError, OverflowError, FloatingPointError):
        return FobjResult(theta=theta, value=-np.inf)
    mu = chol_c.solve(rhs)
    eta = np.asarray(model.A @ mu).ravel()
    log_lik = model.likelihood.logpdf(eta, taus)
    quad = float(mu @ (qp @ mu))
    log_prior_theta = model.priors.logpdf(theta)
    value = log_prior_theta + log_lik + 0.5 * chol_p.logdet() - 0.5 * quad - 0.5 * chol_c.logdet()
    return FobjResult(
        theta=theta,
        value=float(value),
        log_prior_theta=log_prior_theta,
        log_likelihood=log_lik,
        logdet_qp=chol_p.logdet(),
        logdet_qc=chol_c.logdet(),
        quad_qp=quad,
    )


class RINLAEngine:
    """Baseline inference engine (general sparse, shared memory only)."""

    def __init__(self, model: CoregionalSTModel, *, s1_workers: int = 1):
        self.model = model
        self.evaluator = SparseFobjEvaluator(
            model, solver=None, s1_workers=min(s1_workers, model.layout.n_feval)
        )

    def fit(
        self,
        theta0: np.ndarray | None = None,
        *,
        options: BFGSOptions | None = None,
        hessian_step: float = 1e-3,
        compute_latent: bool = True,
    ) -> INLAResult:
        theta0 = (
            self.model._reference_theta()
            if theta0 is None
            else np.asarray(theta0, dtype=np.float64)
        )
        try:
            opt = bfgs_minimize(self.evaluator, theta0, options)
            H = fd_hessian(self.evaluator, opt.theta, h=hessian_step, f_center=opt.fobj)
        finally:
            self.evaluator.close()
        cov = np.linalg.inv(hyperparameter_precision(H))
        hyper = HyperMarginals(mode=opt.theta.copy(), covariance=cov)

        latent = None
        if compute_latent:
            qp, qc, rhs, taus = self.model.assemble_sparse(opt.theta)
            mu = SparseCholesky(qc).solve(rhs)
            var = sparse_selected_inverse_diagonal(qc)
            latent = LatentMarginals(mean=mu, sd=np.sqrt(np.clip(var, 0, None)), model=self.model)

        corr = None
        if self.model.nv > 1:
            corr = self.model.coreg.response_correlations(
                self.model.layout.sigmas(opt.theta), self.model.layout.lambdas(opt.theta)
            )
        return INLAResult(
            theta_mode=opt.theta,
            fobj_mode=opt.fobj,
            hyper=hyper,
            latent=latent,
            optimization=opt,
            n_fobj_evaluations=self.evaluator.n_evaluations,
            response_correlations=corr,
        )
