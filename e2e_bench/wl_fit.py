"""Fit workloads: time-to-posterior through ``repro.DALIA``.

``fit-trivariate`` is the Sec. VI air-pollution model; its BTA block size
``b = 3 ns = 36`` exceeds the theta-batched stencil ceiling (32), so every
gradient stencil runs on the pooled per-point S1 path with eight workers
and S2 concurrency.  ``fit-poisson`` is a univariate Poisson model with
``b = 30``: its stencils run the theta-lockstep Newton engine and never
touch the thread pool.

One operation is a fit followed by one query of the fitted posterior.
Both datasets are fixed, so every fit does the same work whatever the
seed; the seed draws the query (downscaling points for the trivariate
model, posterior draws for the Poisson one).  Reordering or redrawing the
data would change the optimizer's path and with it the number of
objective evaluations by up to 10%, which is work, not noise.
"""

from __future__ import annotations

import json
import os
import time
import traceback

import numpy as np

import repro.inla.dalia as dalia
import repro.inla.evaluator as evaluator
import repro.inla.nongaussian as nongaussian
import repro.inla.sampling as sampling
import repro.inla.solvers as solvers
from common import Outcome, keep_going, op_metrics, timed_setups
from repro import DALIA
from repro.inla.bfgs import BFGSOptions
from repro.inla.nongaussian import PoissonLikelihood
from repro.model.assembler import (
    CoregionalSTModel,
    CurvaturePlan,
    SymbolicAssembly,
)
from repro.model.datasets import make_dataset
from repro.model.pollution import ELEVATION_EFFECTS, make_pollution_dataset
from repro.structured.factor import BTAFactor
from tracing import (
    Tracer,
    emit,
    factorize_batch_flops,
    factorize_flops,
    label_stats,
    layer_stats,
    selinv_flops,
    union_length,
)

TRIVARIATE = {"ns": 12, "n_days": 2, "obs_cells": 60, "seed": 2022}
TRIVARIATE_SMALL = {"ns": 8, "n_days": 2, "obs_cells": 20, "seed": 2022}
TRIVARIATE_OPTIONS = {"max_iter": 120, "grad_tol": 3e-2}
S1_WORKERS = 8

POISSON = {"nv": 1, "ns": 30, "nt": 12, "nr": 1, "obs_per_step": 40, "seed": 23}
POISSON_SMALL = {"nv": 1, "ns": 12, "nt": 4, "nr": 1, "obs_per_step": 20, "seed": 23}
POISSON_COUNT_SEED = 5
#: The Poisson mode must sit within this fraction of its posterior sd of
#: the committed reference mode, per component.
POISSON_THETA_SD_FRACTION = 0.02

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Size of the seeded query that follows every fit.
QUERY_POINTS = 200
QUERY_DRAWS = 4

SETUP_REPS = 3
#: Per-layer metrics this workload must emit; the others read 0 here.
LAYER_PREFIXES = ("inla.", "model.", "structured.factorize", "structured.selinv")
#: A run holds a handful of fits, so its tail is its median.
TAIL_Q = 50.0


# -- inputs ---------------------------------------------------------------------


class TrivariateFit:
    name = "fit-trivariate"

    def __init__(self, small: bool):
        self.model = make_pollution_dataset(**(TRIVARIATE_SMALL if small else TRIVARIATE)).model

    def fit(self, s1_workers: int = S1_WORKERS):
        engine = DALIA(self.model, s1_workers=s1_workers, s2_parallel=True)
        return engine, engine.fit(options=BFGSOptions(**TRIVARIATE_OPTIONS))

    def query(self, engine, result, rng):
        """Downscale one pollutant to seeded points (paper Fig. 8)."""
        (x0, x1), (y0, y1) = self.model.mesh.bbox()
        coords = np.column_stack([
            rng.uniform(x0 + 0.05, x1 - 0.05, QUERY_POINTS),
            rng.uniform(y0 + 0.05, y1 - 0.05, QUERY_POINTS),
        ])
        tidx = rng.integers(0, self.model.nt, QUERY_POINTS)
        return engine.predict_st(result, coords, tidx, int(rng.integers(self.model.nv)))

    def check(self, result, answer) -> str | None:
        """None when the fit is right, else why not."""
        if not result.optimization.converged:
            return f"not converged: {result.optimization.message}"
        err, tol = _dense_fobj_error(self.model, result.theta_mode, result.fobj_mode)
        if not err <= tol:
            return f"fobj at the mode off the dense oracle by {err:.3e} (tol {tol:.3e})"
        for v, expected in enumerate(ELEVATION_EFFECTS):
            if np.sign(result.latent.fixed_effects(v)[1].mean) != np.sign(expected):
                return f"elevation effect {v} has the wrong sign"
        corr = result.response_correlations
        if not (corr[0, 1] > 0.5 and corr[0, 2] < 0.0 and corr[1, 2] < 0.0):
            return f"response correlations off: {corr[0, 1]:.3f} {corr[0, 2]:.3f} {corr[1, 2]:.3f}"
        if answer.shape != (QUERY_POINTS,) or not np.all(np.isfinite(answer)):
            return "downscaled predictions are not finite"
        return None


class PoissonFit:
    name = "fit-poisson"

    def __init__(self, small: bool):
        self.model, _, latent = make_dataset(**(POISSON_SMALL if small else POISSON))
        eta = np.clip(0.3 * np.asarray(self.model.A @ latent).ravel(), -3.0, 3.0)
        counts = np.random.default_rng(POISSON_COUNT_SEED).poisson(np.exp(eta)).astype(float)
        self.likelihood = PoissonLikelihood(counts)
        self.reference = None if small else _load_reference()[self.name]

    def fit(self, s1_workers: int = 1):
        engine = DALIA(self.model, likelihood=self.likelihood, s1_workers=s1_workers)
        return engine, engine.fit()

    def query(self, engine, result, rng):
        """Seeded joint draws from the Gaussian approximation at the mode."""
        return engine.posterior(result).sample(QUERY_DRAWS, rng)

    def check(self, result, answer) -> str | None:
        if not result.optimization.converged:
            return f"not converged: {result.optimization.message}"
        if not np.all(np.isfinite(result.latent.sd)):
            return "non-finite latent marginal sd"
        if answer.shape != (QUERY_DRAWS, self.model.N) or not np.all(np.isfinite(answer)):
            return "posterior draws are not finite"
        if self.reference is None:
            return None
        ref = np.asarray(self.reference["theta"])
        off = np.abs(result.theta_mode - ref) / result.hyper.sd
        if not np.all(off <= POISSON_THETA_SD_FRACTION):
            return f"theta mode {np.round(result.theta_mode, 4)} off the reference by {off.max():.3f} sd"
        return None


def _load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _dense_fobj_error(model, theta, fobj) -> tuple:
    """``|fobj - oracle|`` and its tolerance, where the oracle evaluates
    paper Eq. 8 with dense ``np.linalg`` (``slogdet`` of ``Qp`` and ``Qc``,
    a dense solve for the conditional mean).  The tolerance scales with
    the latent dimension, ``cond(Qc)`` and the size of the terms."""
    qp, qc, rhs, taus = model.assemble_sparse(theta)
    qp, qc = qp.toarray(), qc.toarray()
    sign_p, logdet_p = np.linalg.slogdet(qp)
    sign_c, logdet_c = np.linalg.slogdet(qc)
    if sign_p <= 0 or sign_c <= 0:
        return np.inf, 0.0
    mu = np.linalg.solve(qc, rhs)
    loglik = model.likelihood.logpdf(np.asarray(model.A @ mu).ravel(), taus)
    quad = float(mu @ qp @ mu)
    oracle = model.priors.logpdf(theta) + loglik + 0.5 * logdet_p - 0.5 * quad - 0.5 * logdet_c
    scale = 1.0 + abs(logdet_p) + abs(logdet_c) + abs(quad) + abs(loglik)
    tol = qc.shape[0] * np.finfo(float).eps * np.linalg.cond(qc) * scale
    return abs(fobj - oracle), tol


# -- tracing ----------------------------------------------------------------------


def install_fit_tracing(tracer) -> None:
    """Wrap the callables a fit reaches, at the names callers look up."""
    tracer.wrap(dalia, "bfgs_minimize", "inla.phase.bfgs")
    tracer.wrap(dalia, "fd_hessian", "inla.phase.hessian")
    tracer.wrap(dalia, "gaussian_approximation", "inla.phase.marginals")
    tracer.wrap(sampling.LatentPosterior, "at", "inla.phase.marginals")
    tracer.wrap(sampling.LatentPosterior, "marginals", "inla.phase.marginals")
    tracer.wrap(evaluator, "evaluate_fobj", "inla.eval")
    tracer.wrap(evaluator, "evaluate_fobj_nongaussian", "inla.eval")
    tracer.wrap(evaluator, "evaluate_fobj_nongaussian_batch", "inla.newton_batch")
    tracer.wrap(CoregionalSTModel, "assemble", "model.assemble")
    tracer.wrap(CoregionalSTModel, "assemble_batch", "model.assemble_batch")
    # The lockstep Newton engine calls the plan's value passes directly;
    # inside ``assemble`` they belong to that span, not a batch of their own.
    for owner, attr in (
        (SymbolicAssembly, "coefficients"),
        (SymbolicAssembly, "prior_values"),
        (CurvaturePlan, "conditional_values"),
        (CurvaturePlan, "newton_rhs"),
    ):
        tracer.wrap(owner, attr, "model.assemble_batch", outermost=True)
    for module in (solvers, sampling, nongaussian):
        tracer.wrap(module, "factorize", "structured.factorize", factorize_flops)
    for module in (evaluator, nongaussian):
        tracer.wrap(module, "factorize_batch", "structured.factorize_batch", factorize_batch_flops)
    tracer.wrap(BTAFactor, "selected_inverse_diagonal", "structured.selinv", selinv_flops)
    tracer.wrap(BTAFactor, "solve_and_selected_inverse_diagonal", "structured.selinv", selinv_flops)


def fit_layer_metrics(tracer, spans, fit_s: float, result, engine) -> dict:
    ev = engine.evaluator
    phases = [(s.start, s.end) for s in spans if s.label.startswith("inla.phase.")]
    out = {
        "inla.nfev": result.n_fobj_evaluations,
        "inla.bfgs_iters": result.optimization.n_iterations,
        "inla.cache_hit_ratio": ev.n_cache_hits / max(ev.n_evaluations, 1),
        "inla.eval.concurrency": label_stats(spans, "inla.eval")["busy_s"] / fit_s,
        "inla.phase.coverage": union_length(phases) / fit_s,
    }
    for phase in ("bfgs", "hessian", "marginals"):
        out[f"inla.phase.{phase}_s"] = label_stats(spans, f"inla.phase.{phase}")["wall_s"]
    emit(out, spans, "inla.eval", ("busy_s", "threads"))
    emit(out, spans, "inla.newton_batch", ("calls", "busy_s"))
    emit(out, spans, "model.assemble", ("calls", "busy_s"))
    emit(out, spans, "model.assemble_batch", ("calls", "busy_s"))
    emit(out, spans, "structured.factorize",
         ("calls", "mean_ms", "concurrency", "gflops", "flops_computed"))
    emit(out, spans, "structured.factorize_batch",
         ("calls", "mean_ms", "gflops", "flops_computed"))
    emit(out, spans, "structured.selinv", ("calls", "busy_s", "flops_computed"))
    out.update(layer_stats(tracer, spans))
    return out


# -- the workload -----------------------------------------------------------------


def run(ctx, kind) -> Outcome:
    out = Outcome()
    work, setup_s = timed_setups(lambda: kind(ctx.small), SETUP_REPS)
    out.e2e["_setup_body_s"] = setup_s
    rng = np.random.default_rng(ctx.seed)

    def one_fit(**kw):
        out.attempted += 1
        t0 = time.perf_counter()
        engine, result = work.fit(**kw)
        answer = work.query(engine, result, rng)
        elapsed = time.perf_counter() - t0
        why = work.check(result, answer)
        if why is not None:
            out.fail(f"{work.name}: {why}")
        return elapsed, engine, result

    if not ctx.trace:
        fits_ms = []
        t_start = time.perf_counter()
        last = 0.0
        while keep_going(t_start, ctx.seconds, len(fits_ms), last, min_ops=1):
            t0 = time.perf_counter()
            try:
                one_fit()
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                traceback.print_exc()
                out.fail(f"{work.name}: {exc!r}")
            last = time.perf_counter() - t0
            fits_ms.append(1e3 * last)
        out.e2e.update(op_metrics(fits_ms, TAIL_Q))
        return out

    tracer = Tracer()
    install_fit_tracing(tracer)
    try:
        traced_s, engine, result = one_fit()
    finally:
        tracer.restore()
    spans = tracer.closed_spans()
    out.layers.update(fit_layer_metrics(tracer, spans, traced_s, result, engine))
    untraced_s = one_fit()[0]
    out.layers["inla.fit_traced_s"] = traced_s
    out.layers["inla.fit_untraced_s"] = untraced_s
    out.layers["inla.trace_overhead_s"] = traced_s - untraced_s
    # The single-threaded reference: the Poisson fit already runs with one
    # S1 worker, so its untraced fit is its own reference.
    out.layers["inla.s1_ref_fit_s"] = (
        one_fit(s1_workers=1)[0] if isinstance(work, TrivariateFit) else untraced_s
    )
    tracer.dump(
        os.path.join(ctx.out_dir, f"trace-{work.name}-seed{ctx.seed}.json"),
        {"layers": out.layers},
    )
    return out


def run_trivariate(ctx) -> Outcome:
    return run(ctx, TrivariateFit)


def run_poisson(ctx) -> Outcome:
    return run(ctx, PoissonFit)
