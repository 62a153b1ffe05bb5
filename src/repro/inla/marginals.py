"""Posterior marginals (paper Sec. III-3/III-4).

- Hyperparameters: Gaussian approximation centered at the mode with
  covariance from the inverse FD Hessian.
- Latent field: means from the conditional solve at the mode, variances
  from the *selected inversion* of ``Qc(theta*)`` — the paper's third
  computational pillar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from repro.inla.solvers import StructuredSolver
from repro.model.assembler import CoregionalSTModel


@dataclass
class HyperMarginals:
    """Gaussian marginals of the hyperparameters (log/unconstrained scale)."""

    mode: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        d = self.mode.size
        if self.covariance.shape != (d, d):
            raise ValueError("covariance shape mismatch")

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def quantiles(self, probs) -> np.ndarray:
        """Marginal quantiles, shape ``(dim, len(probs))`` (log scale)."""
        z = norm.ppf(np.asarray(probs, dtype=np.float64))
        return self.mode[:, None] + self.sd[:, None] * z[None, :]

    def natural_scale_summary(self, index: int, *, log_scale: bool = True) -> dict:
        """Mean/sd/quantiles for one component, exponentiated if log-scale."""
        mu = float(self.mode[index])
        sd = float(self.sd[index])
        q = mu + sd * norm.ppf([0.025, 0.5, 0.975])
        if log_scale:
            return {
                "median": float(np.exp(q[1])),
                "q025": float(np.exp(q[0])),
                "q975": float(np.exp(q[2])),
                "mean_log": mu,
                "sd_log": sd,
            }
        return {
            "mean": mu,
            "sd": sd,
            "q025": float(q[0]),
            "median": float(q[1]),
            "q975": float(q[2]),
        }


@dataclass
class FixedEffectSummary:
    """Posterior summary of one fixed effect (paper Sec. VI style)."""

    response: int
    index: int
    mean: float
    sd: float

    @property
    def q025(self) -> float:
        return self.mean - 1.959963984540054 * self.sd

    @property
    def q975(self) -> float:
        return self.mean + 1.959963984540054 * self.sd


@dataclass
class LatentMarginals:
    """Marginal means and standard deviations of the latent field.

    ``mean``/``sd`` are variable-major (per response: time-major ST
    effects, then fixed effects), matching
    :meth:`CoregionalSTModel.split_latent`.
    """

    mean: np.ndarray
    sd: np.ndarray
    model: CoregionalSTModel

    def st_field(self, v: int) -> tuple:
        """(mean, sd) of response ``v``'s ST effects, shape ``(nt, ns)``."""
        stride = self.model.dim_process
        k = self.model.ns * self.model.nt
        seg = slice(v * stride, v * stride + k)
        shape = (self.model.nt, self.model.ns)
        return self.mean[seg].reshape(shape), self.sd[seg].reshape(shape)

    def fixed_effects(self, v: int) -> list:
        """Posterior summaries of response ``v``'s fixed effects."""
        stride = self.model.dim_process
        base = v * stride + self.model.ns * self.model.nt
        out = []
        for j in range(self.model.nr):
            out.append(
                FixedEffectSummary(
                    response=v,
                    index=j,
                    mean=float(self.mean[base + j]),
                    sd=float(self.sd[base + j]),
                )
            )
        return out


def latent_marginals(
    model: CoregionalSTModel,
    theta_mode: np.ndarray,
    solver: StructuredSolver,
    *,
    factor=None,
) -> LatentMarginals:
    """Compute latent means and selected-inversion variances at the mode.

    Means and variances come out of *one* factorization of ``Qc``: the
    handle from ``solver.factorize`` shares the Cholesky factor (and the
    backward recursion) between the
    conditional-mean solve and the Takahashi variance sweep —
    historically this cost two full factorizations plus a pristine copy
    of ``Qc``.  An existing ``factor`` (a handle for ``Qc(theta_mode)``,
    e.g. the one :class:`repro.inla.sampling.LatentPosterior` holds)
    skips even that single factorization.
    """
    sys = model.assemble(theta_mode)
    if factor is None:
        factor = solver.factorize(sys.qc, overwrite=True)
    mu_perm, var_perm = factor.solve_and_selected_inverse_diagonal(sys.rhs)
    if np.any(var_perm <= 0):
        raise FloatingPointError("non-positive marginal variance from selected inversion")
    mean = model.permutation.unpermute_vector(mu_perm)
    sd = np.sqrt(model.permutation.unpermute_vector(var_perm))
    return LatentMarginals(mean=mean, sd=sd, model=model)
