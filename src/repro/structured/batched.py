"""Batched (stacked) block kernels for the structured solvers.

The paper's core performance claim is that every BTA kernel is expressed
through the batched NumPy/CuPy-compatible API, so the same solver source
drives host and device execution and never pays per-block dispatch
overhead in Python.  This module is that layer: every primitive operates
on a *stack* of blocks ``(m, b, b)`` (or ``(m, a, b)`` / ``(m, b, k)``)
and resolves its execution strategy from a
:class:`repro.backend.protocol.Backend` — passed explicitly by factors
(``backend=``) or inferred from the arrays via
:func:`repro.backend.protocol.backend_for` — so a registered CuPy backend
takes the device path unchanged.  The capability flags
(``has_lapack``/``has_batched_trsm``) decide between the looped-LAPACK
host path and the vectorized substitution below.

Two implementation strategies per triangular primitive:

- **host fast path** (NumPy inputs): direct LAPACK calls
  (``dtrtrs``/``dtrtri``/``dpotrf``) looped over the stack in the cheapest
  possible way — these wrappers cost ~3x less per call than the
  ``scipy.linalg.solve_triangular`` convenience layer;
- **vectorized substitution fallback** (any other array module, or large
  stacks where the ``O(b)`` Python steps amortize): forward/backward
  substitution over the ``b`` rows, vectorized across the whole stack
  with batched ``matmul`` — the shape a ``cublas<t>trsmBatched`` call
  takes on the GPU.

Single-block ``*_block`` helpers are exported for the loop-carried Schur
recurrences, which cannot batch across the chain but do fuse their
operands (e.g. one TRSM for ``[lower; arrow]`` instead of two).
"""

from __future__ import annotations

import os

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf, dtrtri as _dtrtri, dtrtrs as _dtrtrs

from repro.backend.array_module import get_array_module
from repro.backend.protocol import Backend, backend_for
from repro.errors import NotPositiveDefiniteError

__all__ = [
    "NotPositiveDefiniteError",
    "batched_chol_lower",
    "batched_chol_and_inverse",
    "batched_solve_lower",
    "batched_solve_lower_t",
    "batched_tri_inverse_lower",
    "batched_logdet_from_chol_diag",
    "batched_logdets_from_chol_diag",
    "batched_gemm",
    "symmetrize",
    "chol_lower_block",
    "solve_lower_block",
    "solve_lower_t_block",
    "tri_inverse_lower_block",
]

# Stacks at least this many times taller than the block size switch from
# the looped-LAPACK host path to the vectorized substitution (the Python
# row loop is O(b) regardless of stack height, so tall stacks amortize it).
_SUBST_RATIO = 4
_SUBST_MIN = 32

# At or above this block size, recursive 2x2 splitting beats LAPACK's
# ``dtrtri`` (the half-size inversions recurse; the off-diagonal work runs
# as GEMM instead of Level-2 substitution).  The recursion is *full*: each
# half splits again until it falls under the threshold.
_TRTRI_SPLIT_MIN = 48

# At or above this block size, the recursive blocked POTRF(+TRTRI) beats
# the direct LAPACK calls.  Measured on this host (OpenBLAS, whose
# ``dpotrf`` is already blocked): the fused factor+inverse recursion wins
# 1.1-1.3x for b >= 128 and loses below; on hosts shipping the unblocked
# reference kernels (~2-3 GF/s vs ~50 GF/s GEMM) the crossover sits far
# lower, so the threshold is environment-overridable.
_POTRF_SPLIT_MIN = 128


def _potrf_split_min() -> int:
    """Recursive-POTRF threshold (``REPRO_POTRF_SPLIT`` overrides).

    :func:`repro.perfmodel.calibrate.recommend_potrf_split` measures the
    crossover on the current host and prints the recommended setting.
    """
    raw = os.environ.get("REPRO_POTRF_SPLIT", "").strip()
    return int(raw) if raw else _POTRF_SPLIT_MIN


def _resolve(backend: Backend | None, *arrays) -> Backend:
    """Explicit backend wins; otherwise infer from the array arguments.

    Factors thread their backend through every sweep (see
    :class:`repro.structured.factor.BTAFactor`), so per-call inference is
    only the fallback for direct kernel use.
    """
    return backend if backend is not None else backend_for(*arrays)


def _lapack_path(be: Backend) -> bool:
    """True when the looped direct-LAPACK host path is available."""
    return be.is_host and be.has_lapack


# ---------------------------------------------------------------------------
# Cholesky
# ---------------------------------------------------------------------------


def batched_chol_lower(stack, *, backend: Backend | None = None):
    """Lower Cholesky factors of a stack of SPD blocks ``(m, b, b)``.

    Dispatches to the array module's stacked ``cholesky`` (one C-level loop
    for NumPy, one batched kernel for CuPy).  Raises
    :class:`NotPositiveDefiniteError` if *any* block fails.
    """
    xp = _resolve(backend, stack).xp
    if stack.shape[-1] == 0 or stack.shape[0] == 0:
        return stack.copy()
    try:
        return xp.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def _dpotrf_checked(a, off=0):
    """``dpotrf`` with the NotPositiveDefinite diagnostic; ``off`` shifts
    the reported minor order so recursion leaves name the offending pivot
    of the *full* block, not the leaf submatrix."""
    c, info = _dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info + off} is not positive definite"
        )
    return c


def _chol_host(a, split, off=0):
    """Recursive blocked host POTRF.

    ``chol([[A11, .], [A21, A22]])``: factorize ``A11``, solve
    ``L21 = A21 L11^{-T}`` (one Level-3 TRSM), Schur-complement ``A22``
    with a GEMM, recurse on both halves.  Below ``split`` the direct
    LAPACK call is the leaf.  This moves the O(b^3) off-diagonal work of
    large blocks to GEMM speed, which lifts the factorization floor on
    hosts whose LAPACK ships unblocked reference kernels.
    """
    b = a.shape[0]
    if b < split:
        return _dpotrf_checked(a, off)
    h = b // 2
    l11 = _chol_host(a[:h, :h], split, off)
    # L21 = A21 L11^{-T}, via L11^{-1} A21^T = L21^T (only the lower
    # triangle of ``a`` is read, matching the LAPACK lower=1 contract).
    l21 = _trtrs_block(l11, np.ascontiguousarray(a[h:, :h].T), trans=0).T
    l22 = _chol_host(a[h:, h:] - l21 @ l21.T, split, off + h)
    out = np.zeros_like(a)
    out[:h, :h] = l11
    out[h:, :h] = l21
    out[h:, h:] = l22
    return out


def _chol_and_inverse_host(a, split, off=0):
    """Recursive blocked host ``(L, L^{-1})`` — factor and inverse together.

    The fused recursion shares the half-size factors between the POTRF
    and TRTRI recurrences::

        L   = [[L11, 0], [L21, L22]],  L21 = A21 I11^T
        L^-1= [[I11, 0], [-I22 (L21 I11), I22]]

    so every off-diagonal flop is GEMM.  Measured on this host the fusion
    beats ``dpotrf`` + ``dtrtri`` by 1.1-1.3x from ``b = 128`` up; the
    unblocked-reference-LAPACK regime the paper targets crosses over far
    earlier (see ``README.md``).
    """
    b = a.shape[0]
    if b < split:
        c = _dpotrf_checked(a, off)
        return c, _tri_inverse_host(c)
    h = b // 2
    l11, i11 = _chol_and_inverse_host(a[:h, :h], split, off)
    l21 = a[h:, :h] @ i11.T
    l22, i22 = _chol_and_inverse_host(a[h:, h:] - l21 @ l21.T, split, off + h)
    out = np.zeros_like(a)
    out[:h, :h] = l11
    out[h:, :h] = l21
    out[h:, h:] = l22
    inv = np.zeros_like(a)
    inv[:h, :h] = i11
    inv[h:, h:] = i22
    inv[h:, :h] = -(i22 @ (l21 @ i11))
    return out, inv


def chol_lower_block(a, *, backend: Backend | None = None):
    """Single-block ``chol`` for the loop-carried chains (low call overhead)."""
    be = _resolve(backend, a)
    if _lapack_path(be):
        if a.shape[0] == 0:
            return a.copy()
        return _chol_host(a, _potrf_split_min())
    return batched_chol_lower(a, backend=be)


def chol_and_inverse_block(a, *, backend: Backend | None = None):
    """``(L, L^{-1})`` of one SPD block — the batched chain's work-horse.

    The loop-carried Schur recurrences factorize one block and then apply
    ``L^{-T}`` to a (fused) right-hand side.  On hosts where GEMM runs an
    order of magnitude faster than LAPACK's reference TRSM (wide-SIMD
    CPUs; every GPU), explicitly inverting the small triangular factor and
    multiplying is faster than a triangular solve — and the inverse is
    exactly what the downstream sweeps (``pobtas``/``pobtasi``) reuse, so
    it is cached rather than recomputed there.  ``dpotrf(clean=1)`` zeroes
    the strict upper triangle, so ``dtrtri``'s output is clean for GEMM
    use without an extra ``tril`` pass.
    """
    be = _resolve(backend, a)
    if _lapack_path(be):
        if a.shape[0] == 0:
            return a.copy(), a.copy()
        return _chol_and_inverse_host(a, _potrf_split_min())
    c = batched_chol_lower(a, backend=be)
    return c, batched_tri_inverse_lower(c[None], backend=be)[0]


def batched_chol_and_inverse(stack, *, backend: Backend | None = None):
    """``(L_i, L_i^{-1})`` of an SPD block stack ``(m, b, b)``.

    The multi-theta chain primitive: one theta-batched ``pobtaf`` sweep
    (see :mod:`repro.structured.multifactor`) factorizes the stencil's
    ``m`` independent diagonal blocks of step ``i`` in one call.  On the
    LAPACK host path each block runs the *identical* fused recursion as
    the single-block :func:`chol_and_inverse_block`, so a batch of one is
    bit-for-bit the per-theta path; a device backend with
    ``has_batched_potrf`` runs the stacked Cholesky plus the batched
    triangular inversion instead.
    """
    be = _resolve(backend, stack)
    m, b = stack.shape[0], stack.shape[-1]
    if m == 0 or b == 0:
        return stack.copy(), stack.copy()
    if _lapack_path(be) and not be.has_batched_potrf:
        split = _potrf_split_min()
        chol = np.empty_like(stack)
        inv = np.empty_like(stack)
        for i in range(m):
            chol[i], inv[i] = _chol_and_inverse_host(stack[i], split)
        return chol, inv
    chol = batched_chol_lower(stack, backend=be)
    return chol, batched_tri_inverse_lower(chol, backend=be)


# ---------------------------------------------------------------------------
# Triangular solves
# ---------------------------------------------------------------------------


def _subst_solve_lower(l, rhs):
    """Vectorized forward substitution ``L_i^{-1} B_i`` across a stack.

    ``O(b)`` Python steps; each step is one batched mat-vec over the whole
    stack.  This is the CuPy-compatible fallback and the fast host path for
    tall stacks.
    """
    xp = get_array_module(l, rhs)
    b = l.shape[-1]
    x = xp.empty_like(rhs)
    for j in range(b):
        acc = rhs[..., j, :]
        if j:
            # L[j, :j] @ X[:j]  batched over the stack.
            acc = acc - xp.matmul(l[..., j : j + 1, :j], x[..., :j, :])[..., 0, :]
        x[..., j, :] = acc / l[..., j : j + 1, j]
    return x


def _subst_solve_lower_t(l, rhs):
    """Vectorized backward substitution ``L_i^{-T} B_i`` across a stack."""
    xp = get_array_module(l, rhs)
    b = l.shape[-1]
    x = xp.empty_like(rhs)
    for j in range(b - 1, -1, -1):
        acc = rhs[..., j, :]
        if j + 1 < b:
            # (L^T)[j, j+1:] = L[j+1:, j]  batched over the stack.
            acc = acc - xp.matmul(
                l[..., j + 1 :, j][..., None, :], x[..., j + 1 :, :]
            )[..., 0, :]
        x[..., j, :] = acc / l[..., j : j + 1, j]
    return x


def _trtrs_block(l, rhs, trans):
    x, info = _dtrtrs(l, rhs, lower=1, trans=trans)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"singular triangular factor in dtrtrs (info={info})"
        )
    return x


def _use_substitution(m: int, b: int) -> bool:
    return m >= _SUBST_MIN and m >= _SUBST_RATIO * b


def _stacked_trsm_path(be: Backend, m: int, b: int) -> bool:
    """Use the vectorized/batched substitution instead of looped LAPACK.

    Backends with a genuine batched TRSM always take it; hosts with
    LAPACK take it only for tall stacks where the ``O(b)`` Python steps
    amortize across the stack height.
    """
    if be.has_batched_trsm or not _lapack_path(be):
        return True
    return _use_substitution(m, b)


def batched_solve_lower(l, rhs, *, backend: Backend | None = None):
    """``L_i^{-1} B_i`` for stacks ``l: (m, b, b)``, ``rhs: (m, b, k)``."""
    be = _resolve(backend, l, rhs)
    m, b = l.shape[0], l.shape[-1]
    if m == 0 or b == 0 or rhs.shape[-1] == 0:
        return rhs.copy()
    if not _stacked_trsm_path(be, m, b):
        out = np.empty_like(rhs)
        for i in range(m):
            out[i] = _trtrs_block(l[i], rhs[i], trans=0)
        return out
    return _subst_solve_lower(l, rhs)


def batched_solve_lower_t(l, rhs, *, backend: Backend | None = None):
    """``L_i^{-T} B_i`` for stacks."""
    be = _resolve(backend, l, rhs)
    m, b = l.shape[0], l.shape[-1]
    if m == 0 or b == 0 or rhs.shape[-1] == 0:
        return rhs.copy()
    if not _stacked_trsm_path(be, m, b):
        out = np.empty_like(rhs)
        for i in range(m):
            out[i] = _trtrs_block(l[i], rhs[i], trans=1)
        return out
    return _subst_solve_lower_t(l, rhs)


def _tri_inverse_host(l):
    """``L^{-1}`` of one clean lower-triangular host block.

    Fully recursive 2x2 block splitting: above ``_TRTRI_SPLIT_MIN`` each
    half splits again until it falls under the threshold, so all
    off-diagonal work runs as GEMM and only threshold-sized diagonal
    leaves hit ``dtrtri``:

        inv([[L11, 0], [L21, L22]]) = [[I11, 0], [-I22 (L21 I11), I22]]
    """
    b = l.shape[0]
    if b >= _TRTRI_SPLIT_MIN:
        h = b // 2
        i11 = _tri_inverse_host(l[:h, :h])
        i22 = _tri_inverse_host(l[h:, h:])
        out = np.zeros_like(l)
        out[:h, :h] = i11
        out[h:, h:] = i22
        out[h:, :h] = -(i22 @ (l[h:, :h] @ i11))
        return out
    inv, info = _dtrtri(l, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(
            f"singular triangular factor in dtrtri (info={info})"
        )
    return inv


def batched_tri_inverse_lower(l, *, backend: Backend | None = None):
    """Explicit ``L_i^{-1}`` for a stack of lower-triangular blocks.

    The stacked inverse turns every downstream triangular solve of the
    sweeps (``pobtas``/``pobtasi``) into a batched GEMM — the trade the
    paper makes on the GPU, where TRSM is latency-bound but GEMM saturates
    the tensor cores.  Output blocks are cleanly lower-triangular.
    """
    be = _resolve(backend, l)
    m, b = l.shape[0], l.shape[-1]
    if m == 0 or b == 0:
        return l.copy()
    if _lapack_path(be):
        out = np.empty_like(l)
        for i in range(m):
            out[i] = _tri_inverse_host(l[i])
        # dtrtri leaves the strict upper triangle of its input in place.
        return np.tril(out)
    xp = be.xp
    eye = xp.broadcast_to(xp.eye(b, dtype=l.dtype), l.shape)
    return _subst_solve_lower(l, eye)


# ---------------------------------------------------------------------------
# Single-block helpers for the loop-carried chains
# ---------------------------------------------------------------------------


def solve_lower_block(l, rhs, *, backend: Backend | None = None):
    """``L^{-1} B`` for one block (fused operands welcome)."""
    be = _resolve(backend, l, rhs)
    if _lapack_path(be):
        if l.shape[0] == 0 or rhs.shape[-1] == 0:
            return rhs.copy()
        return _trtrs_block(l, rhs, trans=0)
    return batched_solve_lower(l[None], rhs[None], backend=be)[0]


def solve_lower_t_block(l, rhs, *, backend: Backend | None = None):
    """``L^{-T} B`` for one block."""
    be = _resolve(backend, l, rhs)
    if _lapack_path(be):
        if l.shape[0] == 0 or rhs.shape[-1] == 0:
            return rhs.copy()
        return _trtrs_block(l, rhs, trans=1)
    return batched_solve_lower_t(l[None], rhs[None], backend=be)[0]


def tri_inverse_lower_block(l, *, backend: Backend | None = None):
    """``L^{-1}`` of one lower-triangular block."""
    return batched_tri_inverse_lower(l[None], backend=backend)[0]


# ---------------------------------------------------------------------------
# GEMM / reductions
# ---------------------------------------------------------------------------


def batched_gemm(a, b, *, backend: Backend | None = None):
    """Stacked matrix product (``cublas`` GEMM-batched on device)."""
    return _resolve(backend, a, b).xp.matmul(a, b)


def symmetrize(stack):
    """``(X + X^T) / 2`` over the last two axes of a stack."""
    return 0.5 * (stack + stack.swapaxes(-1, -2))


def batched_logdet_from_chol_diag(l, *, backend: Backend | None = None) -> float:
    """``2 sum log diag(L_i)`` over a whole factor stack, single pass.

    Unlike the historical per-block kernel (which scanned the diagonal for
    non-positive entries *and then* took logs), this reads each diagonal
    entry exactly once: non-positive (or non-finite) entries surface as
    non-finite logs, detected on the already-reduced scalar.  Raises the
    same :class:`NotPositiveDefiniteError` as the per-block path.
    """
    xp = _resolve(backend, l).xp
    d = xp.diagonal(l, axis1=-2, axis2=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        total = float(xp.sum(xp.log(d)))
    if d.size and not np.isfinite(total):
        raise NotPositiveDefiniteError("non-positive diagonal in Cholesky factor")
    return 2.0 * total


def batched_logdets_from_chol_diag(l, *, backend: Backend | None = None):
    """Per-slab ``2 sum log diag(L)`` over a leading batch axis, one pass.

    ``l`` is ``(t, ..., b, b)``; the return is the ``(t,)`` vector of
    log-determinant contributions — the theta-batched analogue of
    :func:`batched_logdet_from_chol_diag`, reducing each theta's factor
    stack independently in a single vectorized sweep.  Raises
    :class:`NotPositiveDefiniteError` if *any* slab has a non-positive
    diagonal entry.
    """
    xp = _resolve(backend, l).xp
    t = l.shape[0]
    d = xp.diagonal(l, axis1=-2, axis2=-1)
    # Flatten each slab so the per-row pairwise reduction visits the same
    # contiguous elements in the same order as the single-factor scalar
    # reduction above (bit-identical at t = 1).
    d = xp.ascontiguousarray(d).reshape(t, -1)
    with np.errstate(invalid="ignore", divide="ignore"):
        totals = xp.sum(xp.log(d), axis=1)
    if d.size and not xp.all(xp.isfinite(totals)):
        raise NotPositiveDefiniteError("non-positive diagonal in Cholesky factor")
    return 2.0 * totals
