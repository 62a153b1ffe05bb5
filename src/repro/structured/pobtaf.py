"""``pobtaf`` — sequential Cholesky factorization of a BTA matrix.

Factorizes ``A = L L^T`` where ``A`` is symmetric positive definite with
block-tridiagonal-with-arrowhead structure.  The factor ``L`` inherits the
BTA sparsity exactly (no fill outside the pattern), which is what makes the
block-dense approach ``O(n b^3)`` instead of a general sparse
``O(fill)`` (paper Sec. IV-C, Table III):

    L[i, i]   — lower Cholesky factors of the Schur-complemented diagonals
    L[i+1, i] — sub-diagonal coupling factors
    L[t, i]   — arrow-row factors
    L[t, t]   — tip factor

Cost per diagonal block: one ``POTRF`` + two ``TRSM`` + three ``GEMM``-like
updates, i.e. ``O(n (b^3 + a b^2) + a^3)`` total.

Every per-step kernel goes through :mod:`repro.structured.batched`: each
elimination step is one POTRF + TRTRI, with the TRSMs realized as GEMMs
against the explicit triangular inverse; the arrow row is deferred into
one GEMM substitution, and ``log det`` is one batched pass over the whole
factor stack.  The Schur recurrence itself stays loop-carried — block
``i+1`` cannot be factorized before block ``i``.  The flop count is that
of the textbook per-block elimination (:mod:`repro.perfmodel.flops`); a
per-block reference implementation lives with the tests, which check
agreement to 1e-10.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.backend.protocol import Backend, backend_for
from repro import faults
from repro.errors import NotPositiveDefiniteError
from repro.structured import batched as bk
from repro.structured.bta import BTAMatrix


class _FactorizationCounter:
    """Thread-safe count of factorization *sweeps*.

    The handle API's amortization contract — one factorization feeding
    logdet, solves, selected inversion and sampling — is asserted by
    tests through this counter.  One ``pobtaf`` call counts one sweep; a
    theta-batched :func:`repro.structured.multifactor.factorize_batch`
    also counts **one** sweep however many stencil matrices it stacks
    (that single launch is the whole point), so the evaluator tests can
    assert both that batch stencils collapse ``2 (2 d + 1)`` sweeps into
    2 and that cache hits perform none at all.  The lock matters: S1/S2
    evaluate objectives from a thread pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


#: Process-wide ``pobtaf`` call counter (monotonic; diff around a region
#: to count the factorizations it performed).
FACTORIZATIONS = _FactorizationCounter()


def _flatten_arrow(arrow: np.ndarray, *, backend: Backend | None = None) -> np.ndarray:
    """Arrow-row stack ``(n, a, b)`` as one contiguous ``(a, n b)`` matrix."""
    n, a, b = arrow.shape
    xp = (backend if backend is not None else backend_for(arrow)).xp
    return xp.ascontiguousarray(arrow.transpose(1, 0, 2)).reshape(a, n * b)


@dataclass
class BTACholesky:
    """Cholesky factor of a BTA matrix, stored in BTA block layout.

    ``factor.diag[i]`` is lower-triangular; ``factor.lower`` / ``factor.arrow``
    / ``factor.tip`` hold the corresponding factor blocks.
    """

    factor: BTAMatrix
    _diag_inv: np.ndarray | None = field(default=None, repr=False, compare=False)
    _arrow_flat: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: Backend the factor's block stacks live on (resolved lazily from the
    #: arrays when not set at construction); threaded through every
    #: batched sweep so kernels never re-infer it per call.
    backend: Backend | None = field(default=None, repr=False, compare=False)

    def get_backend(self) -> Backend:
        if self.backend is None:
            self.backend = backend_for(self.factor.diag)
        return self.backend

    @property
    def n(self) -> int:
        return self.factor.n

    @property
    def b(self) -> int:
        return self.factor.b

    @property
    def a(self) -> int:
        return self.factor.a

    @property
    def N(self) -> int:
        return self.factor.N

    def diag_inverses(self) -> np.ndarray:
        """Stacked ``L[i,i]^{-1}`` ``(n, b, b)``, computed once and cached.

        The batched sweeps (``pobtas``/``pobtasi``) use these to express
        every per-block triangular solve as a batched GEMM.
        """
        if self._diag_inv is None:
            self._diag_inv = bk.batched_tri_inverse_lower(
                self.factor.diag, backend=self.get_backend()
            )
        return self._diag_inv

    def arrow_flat(self) -> np.ndarray:
        """The arrow row of ``L`` as one flat ``(a, n b)`` matrix, cached.

        Flattening turns the arrow eliminations of the batched sweeps —
        a reduction over the whole block stack — into a single GEMM
        against the (free, contiguous) flat view of the right-hand side.
        """
        if self._arrow_flat is None:
            self._arrow_flat = _flatten_arrow(
                self.factor.arrow, backend=self.get_backend()
            )
        return self._arrow_flat

    def logdet(self) -> float:
        """``log det A = 2 sum_i log diag(L)_i`` — the quantity INLA needs
        for every GMRF log-density evaluation (paper Eq. 1/3)."""
        be = self.get_backend()
        total = bk.batched_logdet_from_chol_diag(self.factor.diag, backend=be)
        if self.a:
            total += bk.batched_logdet_from_chol_diag(self.factor.tip, backend=be)
        return total

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (delegates to :func:`repro.structured.pobtas.pobtas`)."""
        from repro.structured.pobtas import pobtas

        return pobtas(self, rhs)

    def selected_inverse(self) -> BTAMatrix:
        """Selected entries of ``A^{-1}`` (delegates to ``pobtasi``)."""
        from repro.structured.pobtasi import pobtasi

        return pobtasi(self)

    def to_dense(self) -> np.ndarray:
        """Dense lower-triangular factor (tests only)."""
        n, b, a = self.n, self.b, self.a
        out = np.zeros((self.N, self.N))
        for i in range(n):
            s = slice(i * b, (i + 1) * b)
            out[s, s] = np.tril(self.factor.diag[i])
            if i + 1 < n:
                out[(i + 1) * b : (i + 2) * b, s] = self.factor.lower[i]
            if a:
                out[n * b :, s] = self.factor.arrow[i]
        if a:
            out[n * b :, n * b :] = np.tril(self.factor.tip)
        return out


def _eliminate(L: BTAMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched elimination (in place) via the batched kernel layer.

    The block-tridiagonal chain runs first: per step one POTRF + one TRTRI
    (see :func:`repro.structured.batched.chol_and_inverse_block` for why
    the TRSMs become GEMMs against the explicit triangular inverse), one
    GEMM for ``L[i+1, i]`` and one GEMM for the Schur update.  The arrow
    row — which never feeds back into the chain — is deferred: its forward
    substitution against the finished BT factor runs as ``a x b`` GEMMs,
    and the tip Schur update collapses into a single batched contraction
    over the whole arrow stack (one kernel instead of ``n``).

    Returns ``(inv, arrow_flat)``: the stacked ``L[i,i]^{-1}`` by-product
    consumed by the sweeps via ``BTACholesky.diag_inverses``, and the flat
    arrow row (None when ``a == 0``) cached as ``BTACholesky.arrow_flat``.
    """
    n, a = L.n, L.a
    be = backend_for(L.diag)
    diag, lower, arrow, tip = L.diag, L.lower, L.arrow, L.tip
    inv = be.xp.empty_like(diag)

    def chol_inv(block):
        return bk.chol_and_inverse_block(block, backend=be)

    # ---- block-tridiagonal chain (loop-carried) -------------------------
    for i in range(n - 1):
        li, linv = chol_inv(diag[i])
        diag[i] = li
        inv[i] = linv
        G = lower[i] @ linv.T
        lower[i] = G
        diag[i + 1] -= G @ G.T
    li, linv = chol_inv(diag[n - 1])
    diag[n - 1] = li
    inv[n - 1] = linv

    # ---- arrow row: forward substitution against the BT factor ----------
    arrow_flat = None
    if a:
        cur = arrow[0] @ inv[0].T
        arrow[0] = cur
        for i in range(1, n):
            cur = (arrow[i] - cur @ lower[i - 1].T) @ inv[i].T
            arrow[i] = cur
        # Tip Schur update: one GEMM over the flattened arrow row (the
        # flat form is cached for the sweeps' arrow eliminations).
        arrow_flat = _flatten_arrow(arrow, backend=be)
        tip -= arrow_flat @ arrow_flat.T
        tip[...] = bk.chol_lower_block(tip, backend=be)
    return inv, arrow_flat


def pobtaf(A: BTAMatrix, *, overwrite: bool = False) -> BTACholesky:
    """Factorize a symmetric positive definite BTA matrix ``A = L L^T``.

    Parameters
    ----------
    A:
        The matrix to factorize.  Only the lower-triangle blocks are read.
    overwrite:
        When True, ``A``'s storage is reused for the factor (the caller's
        matrix is destroyed).  This is the memory-lean mode used inside the
        INLA objective where ``Qp``/``Qc`` are rebuilt every evaluation.

    Raises
    ------
    NotPositiveDefiniteError
        If any Schur-complemented diagonal block is not positive definite.
    """
    FACTORIZATIONS.increment()
    # Chaos hook: an injected NPD here (before any storage is touched)
    # exercises the audited jitter recovery chain in factorize().
    faults.fault_point(
        "structured.pobtaf",
        lambda: NotPositiveDefiniteError("injected fault at 'structured.pobtaf'"),
    )
    backend = backend_for(A.diag)
    L = A if overwrite else A.copy()
    inv, arrow_flat = _eliminate(L)
    return BTACholesky(factor=L, _diag_inv=inv, _arrow_flat=arrow_flat, backend=backend)
