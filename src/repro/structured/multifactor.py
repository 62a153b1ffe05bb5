"""Theta-batched factorization — one ``pobtaf`` sweep for a whole stencil.

The paper's S1 strategy evaluates the ``2 d + 1`` objective stencil in
parallel because every point is independent — but the per-theta handle
API still pays ``2 (2 d + 1)`` *separate* ``pobtaf`` sweeps per BFGS
iteration even though all stencil points share the exact same BTA block
structure and differ only in values.  This module adds the missing axis:
:func:`factorize_batch` stacks ``t`` same-shape BTA matrices into
``(t, n, b, b)`` theta-leading arrays and runs **one** batched
elimination sweep whose per-step kernels operate on ``(t, b, b)`` stacks
(stacked Cholesky+inverse via
:func:`repro.structured.batched.batched_chol_and_inverse`, stacked GEMMs
via ``matmul`` broadcasting) — ``n`` loop-carried steps total instead of
``t n``.  On a device backend this is the shape the CuPy path wants: one
fat batched kernel launch per chain step instead of ``2 d + 1`` thin
ones.

The returned :class:`BTAFactorBatch` owns the shared theta-stacked
factor arrays (Cholesky blocks, cached triangular inverses, flat arrow
rows) and serves

- ``logdets()`` — all ``t`` log-determinants from one vectorized pass,
- ``solve_each(rhs_stack)`` — one right-hand side *per theta* through a
  single theta-batched forward/backward sweep (the conditional-mean
  solve of every stencil point at once),
- ``factor(j)`` / ``factors()`` — full per-theta
  :class:`~repro.structured.factor.BTAFactor` handles built on zero-copy
  views of the shared stacks, so selected inversion, stacked solves and
  sampling for any single theta reuse the batch factorization.

Path contract.  Each theta's slab undergoes the *identical* per-step
operations as the sequential path
(:func:`repro.structured.pobtaf._eliminate`): at ``t = 1`` results
are bit-for-bit equal to ``factorize(A)``, and the per-block reference
agrees to 1e-10 (``tests/structured/test_multifactor.py``).  The
:data:`repro.structured.pobtaf.FACTORIZATIONS` counter counts
factorization *sweeps*: one ``factorize_batch`` call increments it once,
however many thetas it stacks — which is exactly what the evaluator's
accounting tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import faults
from repro.backend.protocol import Backend, backend_for
from repro.errors import NotPositiveDefiniteError
from repro.structured import batched as bk
from repro.structured.bta import BTAMatrix, BTAShape, BTAStack
from repro.structured.factor import BTAFactor, NPDJitterPolicy, _resolve_jitter, factorize
from repro.structured.pobtaf import FACTORIZATIONS, BTACholesky

__all__ = ["BTAFactorBatch", "factorize_batch"]


def _flatten_arrows(arrow: np.ndarray, *, backend: Backend | None = None) -> np.ndarray:
    """Arrow stacks ``(t, n, a, b)`` as contiguous ``(t, a, n b)`` slabs."""
    t, n, a, b = arrow.shape
    xp = (backend if backend is not None else backend_for(arrow)).xp
    return xp.ascontiguousarray(arrow.transpose(0, 2, 1, 3)).reshape(t, a, n * b)


@dataclass
class BTAFactorBatch:
    """``t`` same-shape BTA Cholesky factors sharing theta-stacked storage.

    Produced by :func:`factorize_batch`; all arrays carry the theta axis
    first.  Per-theta consumers go through :meth:`factor` (zero-copy
    views); cross-theta consumers use the batched :meth:`logdets` /
    :meth:`solve_each` sweeps.
    """

    shape3: BTAShape
    diag: np.ndarray  # (t, n, b, b) lower Cholesky factors
    lower: np.ndarray  # (t, n-1, b, b) sub-diagonal factor blocks
    arrow: np.ndarray  # (t, n, a, b) arrow-row factor blocks
    tip: np.ndarray  # (t, a, a) tip factors
    inv: np.ndarray  # (t, n, b, b) cached L[i,i]^{-1} stacks
    arrow_flat: np.ndarray | None  # (t, a, n b) flat arrow rows (None if a == 0)
    backend: Backend
    #: Per-theta diagonal jitter the NPD recovery chain added (None when the
    #: batch factorized cleanly; lanes that needed none report 0.0).
    applied_jitter: np.ndarray | None = field(default=None, repr=False)
    _logdets: np.ndarray | None = field(default=None, repr=False)
    _factors: dict = field(default_factory=dict, repr=False)

    # -- structure ---------------------------------------------------------

    @property
    def t(self) -> int:
        """Number of stacked thetas (stencil width)."""
        return self.diag.shape[0]

    @property
    def n(self) -> int:
        return self.shape3.n

    @property
    def b(self) -> int:
        return self.shape3.b

    @property
    def a(self) -> int:
        return self.shape3.a

    @property
    def N(self) -> int:
        return self.shape3.N

    def __len__(self) -> int:
        return self.t

    # -- batched operations ------------------------------------------------

    def logdets(self) -> np.ndarray:
        """All ``t`` log-determinants, one vectorized pass (cached)."""
        if self._logdets is None:
            totals = bk.batched_logdets_from_chol_diag(self.diag, backend=self.backend)
            if self.a:
                totals = totals + bk.batched_logdets_from_chol_diag(
                    self.tip, backend=self.backend
                )
            self._logdets = totals
        return self._logdets.copy()

    def solve_each(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Solve ``A_j x_j = rhs_stack[j]`` for every theta at once.

        ``rhs_stack`` is row-major ``(t, N)`` — one right-hand side per
        stacked matrix (each stencil point's information vector).  One
        theta-batched forward + backward sweep: every per-step operand is
        a ``(t, b, 1)`` panel GEMMed against the shared inverse stacks,
        mirroring :func:`repro.structured.pobtas.forward_sweep_panels` /
        ``backward_sweep_panels`` per theta.
        """
        rhs_stack = self.backend.asarray(rhs_stack)
        t, n, b, a = self.t, self.n, self.b, self.a
        if rhs_stack.shape != (t, self.N):
            raise ValueError(f"rhs stack must be ({t}, {self.N}), got {rhs_stack.shape}")
        xp = self.backend.xp
        cols = xp.array(rhs_stack[..., None], order="C", copy=True)  # (t, N, 1)
        xb = cols[:, : n * b].reshape(t, n, b, 1)
        xt = cols[:, n * b :]  # (t, a, 1)
        inv, lw = self.inv, self.lower
        inv_t = inv.transpose(0, 1, 3, 2)
        lw_t = lw.transpose(0, 1, 3, 2)

        # ---- forward sweep: L z = rhs (theta-batched panels) -------------
        cur = inv[:, 0] @ xb[:, 0]
        xb[:, 0] = cur
        for i in range(1, n):
            cur = inv[:, i] @ (xb[:, i] - lw[:, i - 1] @ cur)
            xb[:, i] = cur
        if a:
            xt -= self.arrow_flat @ cols[:, : n * b]
            xt[...] = bk.batched_solve_lower(self.tip, xt, backend=self.backend)

        # ---- backward sweep: L^T x = z -----------------------------------
        if a:
            xt[...] = bk.batched_solve_lower_t(self.tip, xt, backend=self.backend)
            cols[:, : n * b] -= self.arrow_flat.transpose(0, 2, 1) @ xt
        cur = inv_t[:, n - 1] @ xb[:, n - 1]
        xb[:, n - 1] = cur
        for i in range(n - 2, -1, -1):
            cur = inv_t[:, i] @ (xb[:, i] - lw_t[:, i] @ cur)
            xb[:, i] = cur
        return cols[..., 0]

    # -- per-theta views ---------------------------------------------------

    def factor(self, j: int) -> BTAFactor:
        """Full :class:`BTAFactor` handle for theta ``j`` (zero-copy views).

        The handle's Cholesky blocks, cached triangular inverses and flat
        arrow row are views into the shared theta stacks — selected
        inversion, stacked solves and sampling for this theta all reuse
        the batch factorization without any further ``pobtaf``: the
        sweeps GEMM against the cached inverses the batch sweep produced.
        """
        j = int(j)
        if not -self.t <= j < self.t:
            raise IndexError(f"theta index {j} out of range for batch of {self.t}")
        j %= self.t
        cached = self._factors.get(j)
        if cached is not None:
            return cached
        chol = BTACholesky(
            factor=BTAMatrix(self.diag[j], self.lower[j], self.arrow[j], self.tip[j]),
            _diag_inv=self.inv[j],
            _arrow_flat=None if self.arrow_flat is None else self.arrow_flat[j],
            backend=self.backend,
        )
        f = BTAFactor(
            chol=chol,
            applied_jitter=(
                0.0 if self.applied_jitter is None else float(self.applied_jitter[j])
            ),
        )
        if self._logdets is not None:
            f._logdet = float(self._logdets[j])
        self._factors[j] = f
        return f

    def factors(self) -> list:
        """All ``t`` per-theta handles, in stacking order."""
        return [self.factor(j) for j in range(self.t)]


def _pristine_lane(pristine, j: int) -> BTAMatrix:
    """Lane ``j`` of the pre-elimination values, safe to hand to factorize."""
    if isinstance(pristine, BTAStack):
        return BTAMatrix(
            pristine.diag[j].copy(),
            pristine.lower[j].copy(),
            pristine.arrow[j].copy(),
            pristine.tip[j].copy(),
        )
    return pristine[j]  # BTAMatrix sequence input: never modified by the batch


def _recover_batch(pristine, t: int, be: Backend, policy: NPDJitterPolicy) -> BTAFactorBatch:
    """Per-lane NPD recovery: refactorize every theta from pristine values.

    Each lane goes through :func:`repro.structured.factor.factorize` with
    the caller's jitter policy.  Lanes that factorize cleanly report
    ``applied_jitter`` 0.0 and are bit-identical to the fault-free batch
    result (the documented ``factorize_batch`` == per-theta
    ``factorize`` contract); only lanes that
    genuinely need jitter differ — audited, never silent.
    """
    lanes = [factorize(_pristine_lane(pristine, j), jitter=policy) for j in range(t)]
    xp = be.xp
    batch = BTAFactorBatch(
        shape3=lanes[0].shape3,
        diag=xp.stack([f.chol.factor.diag for f in lanes]),
        lower=xp.stack([f.chol.factor.lower for f in lanes]),
        arrow=xp.stack([f.chol.factor.arrow for f in lanes]),
        tip=xp.stack([f.chol.factor.tip for f in lanes]),
        inv=xp.stack([f.chol._diag_inv for f in lanes]),
        arrow_flat=(
            xp.stack([f.chol._arrow_flat for f in lanes]) if lanes[0].a else None
        ),
        backend=be,
        applied_jitter=np.array([f.applied_jitter for f in lanes]),
    )
    return batch


def factorize_batch(
    mats: Sequence[BTAMatrix] | BTAStack,
    *,
    backend: Backend | None = None,
    overwrite: bool = False,
    jitter: bool | NPDJitterPolicy | None = None,
) -> BTAFactorBatch:
    """Factorize ``t`` same-shape BTA matrices in one batched sweep.

    The matrices are stacked along a leading theta axis and eliminated
    together: per chain step one stacked Cholesky+inverse over the
    ``(t, b, b)`` diagonal blocks and two stacked GEMMs, then one
    theta-batched deferred arrow substitution and a single flattened tip
    contraction per theta — ``n`` loop-carried steps total, independent
    of ``t``.  Counts as **one** factorization sweep on
    :data:`repro.structured.pobtaf.FACTORIZATIONS`.

    ``mats`` is either a sequence of :class:`BTAMatrix` (stacked here —
    the inputs are not modified) or an already theta-first
    :class:`~repro.structured.bta.BTAStack`, the layout
    ``CoregionalSTModel.assemble_batch`` produces.  With a stack,
    ``overwrite=True`` eliminates in the caller's storage — zero copies
    between assembly and factorization, the memory-lean mode of the
    stencil evaluator whose stacks are rebuilt every batch.

    ``jitter`` opts into the audited per-lane NPD recovery chain: on any
    failure the whole batch is refactorized lane by lane from pristine
    values through ``factorize(..., jitter=policy)``.
    Lanes needing no jitter stay bit-identical to the fault-free batch;
    recovered lanes report their added diagonal in the returned batch's
    ``applied_jitter`` array.  With ``overwrite=True`` and jitter active,
    a pristine copy of the stack is retained until the outcome is decided.

    Raises
    ------
    NotPositiveDefiniteError
        If *any* stacked matrix fails the factorization (and, when
        ``jitter`` is set, per-lane recovery failed too).  The caller
        cannot tell which theta failed — evaluators fall back to the
        per-theta path to resolve infeasible stencil points.
    """
    policy = _resolve_jitter(jitter)
    pristine = None  # pre-elimination values, only retained when recovery may need them
    if isinstance(mats, BTAStack):
        if overwrite:
            stack = mats
            if policy is not None:
                pristine = BTAStack(
                    mats.diag.copy(), mats.lower.copy(), mats.arrow.copy(), mats.tip.copy()
                )
        else:
            stack = BTAStack(
                mats.diag.copy(), mats.lower.copy(), mats.arrow.copy(), mats.tip.copy()
            )
            pristine = mats
    else:
        mats = list(mats)
        if not mats:
            raise ValueError("need at least one matrix to factorize")
        stack = BTAStack.from_matrices(mats)
        pristine = mats
    shape3 = stack.shape3
    FACTORIZATIONS.increment()
    n, a = shape3.n, shape3.a
    be = backend if backend is not None else backend_for(stack.diag)
    try:
        return _eliminate_stack(stack, shape3, n, a, be)
    except NotPositiveDefiniteError:
        if policy is None:
            raise
        return _recover_batch(pristine, stack.diag.shape[0], be, policy)


def _eliminate_stack(stack: BTAStack, shape3: BTAShape, n: int, a: int, be: Backend):
    """The in-place theta-batched elimination sweep (one launch per step)."""
    # Chaos hook: an injected NPD (before any block is touched) exercises
    # the per-lane recovery path against still-pristine values.
    faults.fault_point(
        "structured.factorize_batch",
        lambda: NotPositiveDefiniteError("injected fault at 'structured.factorize_batch'"),
    )
    diag, lower, arrow, tip = stack.diag, stack.lower, stack.arrow, stack.tip
    inv = be.xp.empty_like(diag)

    # ---- block-tridiagonal chain (loop-carried, theta-batched) -----------
    for i in range(n - 1):
        li, linv = bk.batched_chol_and_inverse(diag[:, i], backend=be)
        diag[:, i] = li
        inv[:, i] = linv
        G = lower[:, i] @ linv.transpose(0, 2, 1)
        lower[:, i] = G
        diag[:, i + 1] -= G @ G.transpose(0, 2, 1)
    li, linv = bk.batched_chol_and_inverse(diag[:, n - 1], backend=be)
    diag[:, n - 1] = li
    inv[:, n - 1] = linv

    # ---- arrow row: deferred forward substitution per theta --------------
    arrow_flat = None
    if a:
        cur = arrow[:, 0] @ inv[:, 0].transpose(0, 2, 1)
        arrow[:, 0] = cur
        for i in range(1, n):
            cur = (arrow[:, i] - cur @ lower[:, i - 1].transpose(0, 2, 1)) @ inv[
                :, i
            ].transpose(0, 2, 1)
            arrow[:, i] = cur
        arrow_flat = _flatten_arrows(arrow, backend=be)
        tip -= arrow_flat @ arrow_flat.transpose(0, 2, 1)
        for j in range(tip.shape[0]):
            tip[j] = bk.chol_lower_block(tip[j], backend=be)
    return BTAFactorBatch(
        shape3=shape3,
        diag=diag,
        lower=lower,
        arrow=arrow,
        tip=tip,
        inv=inv,
        arrow_flat=arrow_flat,
        backend=be,
    )
