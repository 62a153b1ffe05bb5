"""Typed query API of the posterior serving tier.

This module is the single query surface over a fitted
:class:`~repro.inla.sampling.LatentPosterior`:

- **requests** — :class:`PredictRequest`, :class:`SampleRequest`,
  :class:`ExceedanceRequest` — are plain validated dataclasses, the shape
  an RPC frontend would deserialize into;
- **results** — :class:`PredictResult`, :class:`SampleResult`,
  :class:`ExceedanceResult` — carry exactly the arrays the historical
  ``LatentPosterior`` methods returned;
- :func:`execute_batch` is the one execution core.  Direct
  ``LatentPosterior.predict/sample/exceedance_probability`` calls are
  thin adapters over a batch of one, and the serving tier's
  micro-batcher (:class:`repro.serving.server.Server`) feeds it whole
  coalesced ticks — so the two paths cannot drift.

Bit-identity contract
---------------------
A request's response is **bit-identical no matter what else rides the
same batch**.  The stacked sweeps make this non-trivial: a ``(k, N)``
panel pass GEMMs against ``(b, k)`` panels, and BLAS accumulation order
depends on the panel width ``k`` — so naively coalescing three 4-row
requests into one 12-wide sweep would produce (1e-16-level) different
bits than serving each alone.  The core therefore quantizes sweep
widths:

- requests narrower than :func:`sweep_lanes` rows share **fixed-width
  lanes**: their rows are concatenated, zero-padded to an exact multiple
  of the lane width, and swept one lane at a time.  For a fixed GEMM
  shape each output column depends only on its own input column, so a
  row's bits are invariant to its lane-mates (and to padding);
- requests at least one lane wide run **solo at exact width** — they are
  never merged with other requests, so a coalesced execution and a
  direct call run the identical sweep (this also keeps wide direct
  calls, e.g. ``sample(6000)``, on today's single-sweep fast path).

Everything outside the factor sweeps (RHS construction, scatters,
per-request epilogues) operates only on a request's own arrays, so it is
composition-invariant trivially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from repro.backend.protocol import NUMPY_BACKEND

__all__ = [
    "PredictRequest",
    "PredictResult",
    "SampleRequest",
    "SampleResult",
    "ExceedanceRequest",
    "ExceedanceResult",
    "Request",
    "execute_batch",
    "sweep_lanes",
]

#: Default fixed lane width of coalesced sweeps (see module docstring).
#: 32 sits on the flat part of this host's sweep-cost curve: one 32-wide
#: panel pass costs ~2.5x a 1-wide pass while serving up to 32 queries.
DEFAULT_SWEEP_LANES = 32


def sweep_lanes() -> int:
    """Fixed lane width for coalesced sweeps (``REPRO_SERVING_LANES``)."""
    lanes = int(os.environ.get("REPRO_SERVING_LANES", DEFAULT_SWEEP_LANES))
    if lanes < 1:
        raise ValueError(f"REPRO_SERVING_LANES must be >= 1, got {lanes}")
    return lanes


def _resolve_rng(rng, seed):
    return rng if rng is not None else np.random.default_rng(seed)


def _check_rng_seed(rng, seed, *, needed: bool, what: str) -> None:
    if rng is not None and seed is not None:
        raise ValueError(f"pass either rng or seed for {what}, not both")
    if needed and rng is None and seed is None:
        raise ValueError("pass rng when requesting samples")


@dataclass(frozen=True, eq=False)
class SampleRequest:
    """``n_samples`` exact joint draws from ``N(mu, Qc^{-1})``.

    The noise source is per-request (``rng`` for in-process callers,
    ``seed`` for serialized ones), so a draw's bits never depend on which
    other requests share a batch.
    """

    n_samples: int
    rng: np.random.Generator | None = None
    seed: int | None = None

    def validate(self, model) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        _check_rng_seed(self.rng, self.seed, needed=True, what="a SampleRequest")


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Joint posterior draws, variable-major, shape ``(n_samples, N)``."""

    samples: np.ndarray


@dataclass(frozen=True, eq=False)
class PredictRequest:
    """Posterior-mean prediction of response ``v``'s space-time effect at
    new points, with exact predictive standard deviations (and optional
    joint predictive draws when ``n_samples > 0``)."""

    coords: np.ndarray
    time_idx: np.ndarray
    v: int = 0
    n_samples: int = 0
    rng: np.random.Generator | None = None
    seed: int | None = None

    def validate(self, model) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        tidx = np.asarray(self.time_idx)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must be (m, 2), got {coords.shape}")
        if tidx.ndim != 1 or tidx.shape[0] != coords.shape[0]:
            raise ValueError(
                f"time_idx must be ({coords.shape[0]},), got {tidx.shape}"
            )
        if coords.shape[0] < 1:
            raise ValueError("need at least one prediction point")
        if not np.issubdtype(tidx.dtype, np.integer):
            raise ValueError(f"time_idx must be integer, got dtype {tidx.dtype}")
        if tidx.min() < 0 or tidx.max() >= model.nt:
            raise ValueError(
                f"time_idx out of range [0, {model.nt}): "
                f"[{tidx.min()}, {tidx.max()}]"
            )
        if not 0 <= self.v < model.nv:
            raise ValueError(f"response index v={self.v} out of range [0, {model.nv})")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        _check_rng_seed(
            self.rng, self.seed, needed=self.n_samples > 0, what="a PredictRequest"
        )


@dataclass(frozen=True, eq=False)
class PredictResult:
    """Predictive mean and exact sd per point; optional ``(n_samples, m)``
    draws of the predicted functionals."""

    mean: np.ndarray
    sd: np.ndarray
    samples: np.ndarray | None = None

    def as_dict(self) -> dict:
        """The historical ``LatentPosterior.predict`` dict shape."""
        out = {"mean": self.mean, "sd": self.sd}
        if self.samples is not None:
            out["samples"] = self.samples
        return out


@dataclass(frozen=True, eq=False)
class ExceedanceRequest:
    """Marginal ``P(x_j > threshold | y, theta)`` for every latent
    variable.  ``sd`` overrides the selected-inversion marginal standard
    deviations (which are otherwise computed once per factor and cached)."""

    threshold: float
    sd: np.ndarray | None = None

    def validate(self, model) -> None:
        if not np.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.sd is not None:
            sd = np.asarray(self.sd)
            if sd.shape != (model.N,):
                raise ValueError(f"sd must have shape ({model.N},), got {sd.shape}")


@dataclass(frozen=True, eq=False)
class ExceedanceResult:
    """Exceedance probability per latent variable, variable-major ``(N,)``."""

    probability: np.ndarray


#: Union of the request types the execution core accepts.
Request = PredictRequest | SampleRequest | ExceedanceRequest


def _sweep_grouped(factor, stacks: list, sweep, lanes_fn=None) -> list:
    """Run per-request ``(k_i, N)`` stacks through ``sweep`` with
    composition-invariant bits; returns the solved stacks in order.

    ``sweep`` is ``factor.solve_stack`` or ``factor.solve_lt_stack``;
    ``lanes_fn`` optionally the matching ``solve_stack_lanes`` sibling.
    Lane mechanics per the module docstring: solo exact-width sweeps for
    wide stacks, shared zero-padded fixed-width lanes for narrow ones.
    When ``lanes_fn`` is given, every job of the group — the solo wide
    stacks AND the padded narrow chunks, each at the exact width it would
    run solo — goes through ONE lanes call, so a distributed factor pays
    a single collective round for the whole group instead of one per job
    (the bits are unchanged: the lanes contract is per-lane identity).
    """
    if not stacks:
        return []
    ks = [s.shape[0] for s in stacks]
    backend = getattr(factor, "backend", NUMPY_BACKEND)
    lanes = sweep_lanes()
    out = [None] * len(stacks)
    narrow = [i for i, k in enumerate(ks) if k < lanes]
    wide = [i for i, k in enumerate(ks) if k >= lanes]
    jobs = [stacks[i] for i in wide]
    chunked = []  # padded fixed-width chunks carrying the narrow rows
    if narrow:
        rows = np.concatenate([stacks[i] for i in narrow], axis=0)
        total = rows.shape[0]
        n_lanes = -(-total // lanes)
        padded = np.zeros((n_lanes * lanes, rows.shape[1]))
        padded[:total] = rows
        chunked = [padded[j * lanes : (j + 1) * lanes] for j in range(n_lanes)]
    if lanes_fn is not None and len(jobs) + len(chunked) > 1:
        solved_jobs = lanes_fn(jobs + chunked)
    else:
        solved_jobs = [sweep(s) for s in jobs + chunked]
    for pos, i in enumerate(wide):
        out[i] = solved_jobs[pos]
    if narrow:
        chunks = solved_jobs[len(wide) :]
        xp = backend.xp
        solved = (chunks[0] if len(chunks) == 1 else xp.concatenate(chunks, axis=0))[:total]
        off = 0
        for i in narrow:
            out[i] = solved[off : off + ks[i]]
            off += ks[i]
    return out


def _draws_from_solved(posterior, solved_z) -> np.ndarray:
    """Variable-major joint draws from solved ``L^{-T} z`` rows.

    The same epilogue ``BTAFactor.sample`` + ``LatentPosterior.sample``
    ran historically: add the permuted mean, unpermute the stack.
    """
    backend = getattr(posterior.factor, "backend", NUMPY_BACKEND)
    x_perm = solved_z + backend.asarray(posterior.mu_perm)[None, :]
    return posterior.model.permutation.unpermute_stack(x_perm)


def execute_batch(posterior, requests: list) -> list:
    """Execute a batch of typed requests against one posterior.

    Coalesces the batch into at most one ``solve_stack`` sweep group
    (predictive variances), one ``solve_lt_stack`` sweep group (all
    sampling noise — joint draws and predictive draws), and one
    ``selected_inverse_diagonal`` (cached on the factor) — then scatters
    per-request results, in request order.  Every response is
    bit-identical to the same request executed alone (see the module
    docstring), which is what lets ``LatentPosterior``'s direct methods
    and the micro-batcher share this core.
    """
    model = posterior.model
    for req in requests:
        if not isinstance(req, (PredictRequest, SampleRequest, ExceedanceRequest)):
            raise TypeError(f"not a serving request: {req!r}")
        req.validate(model)

    factor = posterior.factor
    # -- gather sweep jobs -------------------------------------------------
    # Noise rows (backward L^T sweep): joint-sample requests and the
    # predictive-draw epilogue of predict requests.
    lt_stacks, lt_owner = [], []
    # RHS rows (full solve sweep): predictive-variance stacks.
    solve_stacks, solve_owner = [], []
    designs = {}
    for i, req in enumerate(requests):
        if isinstance(req, SampleRequest):
            z = _resolve_rng(req.rng, req.seed).standard_normal((req.n_samples, factor.N))
            lt_stacks.append(z)
            lt_owner.append(i)
        elif isinstance(req, PredictRequest):
            A = posterior.predictive_design(
                np.asarray(req.coords, dtype=np.float64), np.asarray(req.time_idx), req.v
            )
            designs[i] = A
            # Rows of A* P^T form the (m, N) RHS stack of Qc^{-1} A*^T.
            Ap = A[:, model.permutation.perm.perm]
            solve_stacks.append(np.asarray(Ap.todense()))
            solve_owner.append(i)
            if req.n_samples > 0:
                z = _resolve_rng(req.rng, req.seed).standard_normal(
                    (req.n_samples, factor.N)
                )
                lt_stacks.append(z)
                lt_owner.append(i)

    solved_rhs = dict(
        zip(
            solve_owner,
            _sweep_grouped(
                factor,
                solve_stacks,
                factor.solve_stack,
                getattr(factor, "solve_stack_lanes", None),
            ),
        )
    )
    solved_z = dict(
        zip(
            lt_owner,
            _sweep_grouped(
                factor,
                lt_stacks,
                factor.solve_lt_stack,
                getattr(factor, "solve_lt_stack_lanes", None),
            ),
        )
    )

    # -- scatter per-request epilogues -------------------------------------
    results: list = [None] * len(requests)
    mean = None  # variable-major posterior mean, shared by the epilogues
    marginal_sd = None  # cached-diagonal sd, shared by exceedance requests

    def _mean():
        nonlocal mean
        if mean is None:
            mean = posterior.mean()
        return mean

    for i, req in enumerate(requests):
        if isinstance(req, SampleRequest):
            results[i] = SampleResult(samples=_draws_from_solved(posterior, solved_z[i]))
        elif isinstance(req, PredictRequest):
            A = designs[i]
            pred_mean = np.asarray(A @ _mean()).ravel()
            stack = solve_stacks[solve_owner.index(i)]
            var = np.einsum("mn,mn->m", stack, solved_rhs[i])
            samples = None
            if req.n_samples > 0:
                draws = _draws_from_solved(posterior, solved_z[i])
                samples = draws @ np.asarray(A.todense()).T
            results[i] = PredictResult(
                mean=pred_mean, sd=np.sqrt(np.maximum(var, 0.0)), samples=samples
            )
        else:  # ExceedanceRequest
            sd = req.sd
            if sd is None:
                if marginal_sd is None:
                    var_perm = factor.selected_inverse_diagonal()
                    marginal_sd = np.sqrt(
                        model.permutation.unpermute_vector(var_perm)
                    )
                sd = marginal_sd
            results[i] = ExceedanceResult(
                probability=norm.sf(
                    req.threshold, loc=_mean(), scale=np.maximum(sd, 1e-300)
                )
            )
    return results
