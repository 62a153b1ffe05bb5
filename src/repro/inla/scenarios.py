"""Scenario-grid runner: many model x likelihood cells in shared sweeps.

A calibration or sensitivity study evaluates a *grid* of small scenarios
— different meshes, different observation models, different fixed
hyperparameters.  Each cell alone is too small to saturate the batched
kernels, but cells whose models share a BTA block shape are, to the
solver, indistinguishable from many thetas of one model: the lockstep
Newton engine of :mod:`repro.inla.nongaussian` only ever sees per-lane
value vectors scattered into rows of one :class:`~repro.structured.bta.BTAStack`.

This module exploits that: scenarios are grouped by
``model.permutation.bta_shape``, each group runs its inner Newton loops
in lockstep — per-lane curvature/gather phases (cheap, heterogeneous)
feeding ONE ``factorize_batch`` + ``solve_each`` sweep per iteration
(expensive, homogeneous) — with the same convergence-mask / serial-NPD
-fallback discipline as the single-model engine.  Groups of one take the
serial per-cell path, which is also the reference the grid results are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.protocol import get_backend
from repro.errors import NotPositiveDefiniteError
from repro.inla.nongaussian import (
    _line_search,
    _NewtonKernel,
    _prior_values_single,
    _serial_newton,
)
from repro.inla.objective import FobjResult
from repro.model.assembler import AssemblyWorkspace, CoregionalSTModel
from repro.structured.bta import BTAStack
from repro.structured.factor import factorize
from repro.structured.multifactor import factorize_batch


@dataclass(frozen=True)
class Scenario:
    """One (model, likelihood, theta) cell of a scenario grid."""

    name: str
    model: CoregionalSTModel
    likelihood: object
    theta: np.ndarray


@dataclass
class ScenarioResult:
    """Per-cell output: the objective plus the inner-loop diagnostics."""

    name: str
    result: FobjResult
    x_mode: np.ndarray | None  # variable-major conditional mode
    n_newton: int
    converged: bool

    @property
    def ok(self) -> bool:
        return np.isfinite(self.result.value)


@dataclass
class _Lane:
    index: int  # position in the caller's scenario list
    kern: _NewtonKernel
    qp: np.ndarray  # (1, nnz_p) prior values
    theta: np.ndarray
    eta: np.ndarray = field(default=None)  # (1, m) current predictor


def _scatter_row(scatter, data: np.ndarray, stack: BTAStack, row: int) -> None:
    """Scatter one lane's ``(1, nnz)`` values into row ``row`` of a stack.

    Contiguous row views keep the write zero-copy on every backend (the
    mock/CuPy arrays slice like NumPy); ``scatter_stacks`` zero-fills the
    row first, so heterogeneous patterns cannot leak between lanes.
    """
    s = slice(row, row + 1)
    scatter.scatter_stacks(data, stack.diag[s], stack.lower[s], stack.arrow[s], stack.tip[s])


def _epilogue(model, lik, theta, qp_values, x_perm, logdet_p, logdet_qc, factor) -> FobjResult:
    """Assemble ``fobj`` from a finished lane (the t=1 epilogue)."""
    x_stack = x_perm[None, :]
    eta = model.linear_predictor_stack(x_stack)
    log_lik = float(lik.logpdf_stack(eta)[0])
    quad = float(model.plan.qp_quad_stack(qp_values, x_stack)[0])
    lpt = float(model.priors.logpdf_stack(theta[None, :])[0])
    value = lpt + log_lik + 0.5 * logdet_p - 0.5 * quad - 0.5 * logdet_qc
    return FobjResult(
        theta=theta,
        value=float(value),
        log_prior_theta=lpt,
        log_likelihood=log_lik,
        logdet_qp=float(logdet_p),
        logdet_qc=float(logdet_qc),
        quad_qp=quad,
        mu_perm=x_perm,
        qc_factor=factor,
    )


def _run_serial(sc: Scenario, max_newton: int, tol: float) -> ScenarioResult:
    """Reference per-cell path (also the route of singleton groups)."""
    model, lik = sc.model, sc.likelihood
    theta = np.asarray(sc.theta, dtype=np.float64)
    try:
        qp_values = _prior_values_single(model, theta)
    except (ValueError, FloatingPointError, OverflowError):
        return ScenarioResult(sc.name, FobjResult(theta=theta, value=-np.inf), None, 0, False)
    try:
        logdet_p = float(
            factorize(model.plan.scatter_p.scatter(qp_values[0]), overwrite=True).logdet()
        )
        x_perm, logdet_qc, n_it, conv, factor = _serial_newton(
            model, lik, qp_values, max_newton=max_newton, tol=tol
        )
    except (NotPositiveDefiniteError, OverflowError, FloatingPointError):
        return ScenarioResult(sc.name, FobjResult(theta=theta, value=-np.inf), None, 0, False)
    res = _epilogue(model, lik, theta, qp_values, x_perm, logdet_p, logdet_qc, factor)
    return ScenarioResult(
        sc.name, res, model.permutation.unpermute_vector(x_perm), n_it, conv
    )


def _run_group(scenarios, idxs, shape, out, be, max_newton: int, tol: float) -> None:
    """Lockstep Newton across one shape-group of heterogeneous scenarios.

    The value phase is a cheap per-lane loop (each lane has its own
    curvature plan, observation count and pattern); the factorization
    phase is ONE batched sweep over the shared stack per iteration —
    exactly the single-model lockstep with the homogeneous vector math
    unrolled per lane, so each lane remains bit-identical to its own
    serial run.
    """
    lanes: list[_Lane] = []
    for i in idxs:
        sc = scenarios[i]
        theta = np.asarray(sc.theta, dtype=np.float64)
        try:
            qp = _prior_values_single(sc.model, theta)
        except (ValueError, FloatingPointError, OverflowError):
            out[i] = ScenarioResult(
                sc.name, FobjResult(theta=theta, value=-np.inf), None, 0, False
            )
            continue
        kern = _NewtonKernel(sc.model, sc.likelihood, backend=be)
        lanes.append(_Lane(index=i, kern=kern, qp=qp, theta=theta))
    if not lanes:
        return
    t = len(lanes)
    ws = AssemblyWorkspace(backend=be)

    # -- log|Qp|: one shared batched factorization across the group ------
    qp_stack = ws.stacks(shape, t)[0]
    for j, ln in enumerate(lanes):
        _scatter_row(ln.kern.plan.scatter_p, ln.qp, qp_stack, j)
    try:
        logdet_p = np.asarray(
            be.to_host(factorize_batch(qp_stack, overwrite=True).logdets()), dtype=np.float64
        )
    except NotPositiveDefiniteError:
        logdet_p = np.full(t, np.nan)
        for j, ln in enumerate(lanes):
            try:
                logdet_p[j] = factorize(
                    ln.kern.plan.scatter_p.scatter(ln.qp[0]), overwrite=True
                ).logdet()
            except NotPositiveDefiniteError:
                pass  # lane stays nan -> reported -inf below

    # -- lockstep Newton -------------------------------------------------
    n = lanes[0].kern.model.N
    x = np.zeros((t, n))
    for j, ln in enumerate(lanes):
        ln.eta = ln.kern.eta_of(x[j][None, :])
    obj = np.full(t, -np.inf)
    n_newton = np.zeros(t, dtype=np.int64)
    converged = np.zeros(t, dtype=bool)
    failed = np.zeros(t, dtype=bool)
    logdet_qc = np.full(t, np.nan)
    factors: list = [None] * t
    d_cur: list = [None] * t
    active = list(range(t))
    fallback: list | None = None
    for _ in range(max_newton):
        if not active:
            break
        still = []
        for j in active:
            d, bad = lanes[j].kern.curvature_diag(lanes[j].eta)
            if bad[0]:
                failed[j] = True
                continue
            d_cur[j] = d
            still.append(j)
        active = still
        if not active:
            break
        stack = ws.stacks(shape, len(active))[1]
        rhs = np.empty((len(active), n))
        for row, j in enumerate(active):
            ln = lanes[j]
            _scatter_row(ln.kern.plan.scatter_c, ln.kern.qc_values(ln.qp, d_cur[j]), stack, row)
            rhs[row] = ln.kern.rhs(d_cur[j], ln.eta)[0]
            n_newton[j] += 1
        try:
            fb = factorize_batch(stack, overwrite=True)
        except NotPositiveDefiniteError:
            # The batched Cholesky cannot name the failing lane: every
            # still-active cell restarts on the serial path, which can.
            fallback = active
            active = []
            break
        x_new = np.asarray(be.to_host(fb.solve_each(rhs)))
        keep = []
        for row, j in enumerate(active):
            ln = lanes[j]
            x_j, eta_j, obj_j = _line_search(
                ln.kern, ln.qp, x[j][None, :], ln.eta, obj[j : j + 1], x_new[row][None, :]
            )
            delta = abs(float(obj_j[0]) - float(obj[j]))
            x[j], ln.eta, obj[j] = x_j[0], eta_j, float(obj_j[0])
            if delta < tol * (1.0 + abs(obj[j])):
                converged[j] = True
            else:
                keep.append(j)
        active = keep
    if fallback:
        for j in fallback:
            ln = lanes[j]
            try:
                x_j, ld, it_j, conv, f_j = _serial_newton(
                    ln.kern.model, ln.kern.lik, ln.qp,
                    max_newton=max_newton, tol=tol, x0_perm=x[j],
                )
            except NotPositiveDefiniteError:
                failed[j] = True
                continue
            x[j] = x_j
            ln.eta = ln.kern.eta_of(x_j[None, :])
            logdet_qc[j] = ld
            n_newton[j] += it_j
            converged[j] = conv
            factors[j] = f_j

    # -- final re-linearization: one batched sweep, per-lane handles -----
    finish = []
    for j in range(t):
        if failed[j] or factors[j] is not None:
            continue
        d, bad = lanes[j].kern.curvature_diag(lanes[j].eta)
        if bad[0]:
            failed[j] = True
            continue
        d_cur[j] = d
        finish.append(j)
    if finish:
        final = BTAStack.zeros(shape, len(finish), backend=be)
        for row, j in enumerate(finish):
            ln = lanes[j]
            _scatter_row(ln.kern.plan.scatter_c, ln.kern.qc_values(ln.qp, d_cur[j]), final, row)
        try:
            fb = factorize_batch(final, overwrite=True)
        except NotPositiveDefiniteError:
            for j in finish:  # resolve lane by lane on the serial path
                ln = lanes[j]
                try:
                    qc = ln.kern.qc_values(ln.qp, d_cur[j])
                    f_j = factorize(ln.kern.plan.scatter_c.scatter(qc[0]), overwrite=True)
                except NotPositiveDefiniteError:
                    failed[j] = True
                    continue
                factors[j] = f_j
                logdet_qc[j] = float(f_j.logdet())
        else:
            lds = np.asarray(be.to_host(fb.logdets()), dtype=np.float64)
            for row, j in enumerate(finish):
                logdet_qc[j] = float(lds[row])
                factors[j] = fb.factor(row)

    for j, ln in enumerate(lanes):
        sc = scenarios[ln.index]
        if failed[j] or not np.isfinite(logdet_p[j]):
            out[ln.index] = ScenarioResult(
                sc.name, FobjResult(theta=ln.theta, value=-np.inf), None, int(n_newton[j]), False
            )
            continue
        res = _epilogue(
            ln.kern.model, ln.kern.lik, ln.theta, ln.qp,
            x[j], float(logdet_p[j]), float(logdet_qc[j]), factors[j],
        )
        out[ln.index] = ScenarioResult(
            sc.name,
            res,
            ln.kern.model.permutation.unpermute_vector(x[j]),
            int(n_newton[j]),
            bool(converged[j]),
        )


def evaluate_scenario_grid(
    scenarios,
    *,
    max_newton: int = 40,
    tol: float = 1e-9,
    backend=None,
) -> list[ScenarioResult]:
    """Evaluate a grid of scenarios, sharing sweeps within shape groups.

    Returns one :class:`ScenarioResult` per input scenario, in order.
    Cells whose models share ``permutation.bta_shape`` ride the same
    lockstep batched sweeps; singleton groups run the serial per-cell
    reference path, which each grouped cell matches to rounding
    (bit-identical per the ``factorize_batch`` per-lane contract).
    """
    be = backend if backend is not None else get_backend()
    out: list = [None] * len(scenarios)
    groups: dict = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(sc.model.permutation.bta_shape, []).append(i)
    for shape, idxs in groups.items():
        if len(idxs) >= 2:
            _run_group(scenarios, idxs, shape, out, be, max_newton, tol)
        else:
            for i in idxs:
                out[i] = _run_serial(scenarios[i], max_newton, tol)
    return out
