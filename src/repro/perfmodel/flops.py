"""Analytic flop counts for the structured kernels.

Conventions: one fused multiply-add = 2 flops; a ``POTRF`` of size ``b``
costs ``b^3 / 3``; a ``TRSM`` with ``k`` right-hand-side columns costs
``k b^2``; a ``GEMM`` ``(p x q) (q x r)`` costs ``2 p q r``.

These counts drive the performance model and also document the paper's
complexity claims (Table III: ``O(n b^3)`` factorization; Sec. IV-D2:
BTA adds ``O(a^3)`` and the imbalance ratio ``r_Q = a^3 / b^3``).

Path convention.  The batched kernel layer
(:mod:`repro.structured.batched`) executes the *same mathematical
operations* as a textbook per-block elimination — it fuses TRSM operands
and Schur-update GEMMs and amortizes per-call dispatch, neither of which
changes the algorithmic operation count — so the counts below are those
of the per-block algorithm.
"""

from __future__ import annotations


def potrf_flops(b: int) -> float:
    return b**3 / 3.0


def trsm_flops(b: int, k: int) -> float:
    return float(k) * b**2


def gemm_flops(p: int, q: int, r: int) -> float:
    return 2.0 * p * q * r


def bta_factorization_flops(n: int, b: int, a: int) -> float:
    """``pobtaf``: per block one POTRF, two TRSMs, three GEMMs.

    The batched kernels issue the TRSMs as GEMMs against the explicit
    triangular inverse and fuse the Schur updates, which does not change
    the count (see module docstring).
    """
    per_block = (
        potrf_flops(b)
        + trsm_flops(b, b)  # L[i+1, i]
        + trsm_flops(b, a)  # L[t, i]
        + gemm_flops(b, b, b)  # diag update
        + gemm_flops(a, b, b)  # arrow update
        + gemm_flops(a, b, a)  # tip update
    )
    return n * per_block + potrf_flops(a)


def bta_solve_flops(n: int, b: int, a: int, k: int = 1, *, stacked: bool = False) -> float:
    """``pobtas``: two triangular sweeps, ``O(n b^2 k)``.

    The sweeps realize each per-block diagonal solve as a GEMM against a
    precomputed triangular inverse, which is the same modeled TRSM work
    (the inversion itself is counted with the factorization's TRSM budget
    it replaces).

    ``k`` is the number of right-hand sides.  The count is *linear in k
    by contract* whether the k solves run as one stacked ``(b, k)``-panel
    pass (``pobtas_stack``) or as k looped per-RHS sweeps — stacking
    amortizes loop-carried passes and kernel dispatch, not arithmetic —
    so a calibration run is comparable regardless of which multi-RHS
    strategy produced it (``stacked`` exists to make that contract
    explicit and testable).
    """
    del stacked
    per_block = 2.0 * (
        trsm_flops(b, k)  # diagonal solves (fwd + bwd counted via factor 2)
        + gemm_flops(b, b, k)  # neighbor update
        + gemm_flops(a, b, k)  # arrow update
    )
    return n * per_block + 2.0 * trsm_flops(a, k)


def bta_solve_lt_flops(n: int, b: int, a: int, k: int = 1, *, stacked: bool = False) -> float:
    """``pobtas_lt`` / ``pobtas_lt_stack``: the backward-only sampling sweep.

    Exactly half a full solve — one triangular sweep with the same
    per-block kernel mix — linear in ``k`` under the same stacked/looped
    contract as :func:`bta_solve_flops`.
    """
    del stacked
    per_block = trsm_flops(b, k) + gemm_flops(b, b, k) + gemm_flops(a, b, k)
    return n * per_block + trsm_flops(a, k)


def bta_batch_factorization_flops(
    n_theta: int, n: int, b: int, a: int, *, stacked: bool = False
) -> float:
    """One theta-batched ``factorize_batch`` sweep over ``n_theta`` matrices.

    *Linear in ``n_theta`` by contract*: stacking the stencil matrices
    along a leading theta axis amortizes the ``n`` loop-carried chain
    steps and the per-step kernel dispatch across the batch — the
    arithmetic per matrix is exactly one ``pobtaf``.  ``stacked`` exists
    (like everywhere in this module) to make the identity testable: one
    batched sweep and ``n_theta`` looped factorizations must report the
    same flops, so calibration runs are comparable regardless of which
    multi-theta strategy produced them.
    """
    del stacked
    return n_theta * bta_factorization_flops(n, b, a)


def bta_batch_solve_flops(
    n_theta: int,
    n: int,
    b: int,
    a: int,
    k: int = 1,
    *,
    stacked: bool = False,
) -> float:
    """Theta-batched ``solve_each``: one RHS (or ``k``) per stacked matrix.

    Linear in ``n_theta`` under the same stacked/looped identity contract
    as :func:`bta_batch_factorization_flops` — the theta-batched panel
    sweep performs exactly ``n_theta`` per-theta solves' arithmetic.
    """
    del stacked
    return n_theta * bta_solve_flops(n, b, a, k)


def bta_selected_inversion_flops(n: int, b: int, a: int) -> float:
    """``pobtasi``: same order as the factorization."""
    per_block = (
        2.0 * trsm_flops(b, b)  # two right-solves per off-diagonal block
        + 4.0 * gemm_flops(b, b, b)
        + 3.0 * gemm_flops(a, b, b)
        + gemm_flops(a, a, b)
    )
    return n * per_block + gemm_flops(a, a, a)


def bta_solve_and_selected_inversion_flops(n: int, b: int, a: int, k: int = 1) -> float:
    """``pobtasi_with_solve``: fused mean + marginal-variance pass.

    The fusion shares the Cholesky factor, its cached triangular
    inverses, and the backward recursion's loop between the solve and the
    Takahashi sweep — dispatch savings, not arithmetic savings — so the
    count is exactly solve + selected inversion.  The factorization it
    avoids repeating is counted once by the caller
    (:func:`bta_factorization_flops`); the historical two-pass marginals
    paid it twice.
    """
    return bta_solve_flops(n, b, a, k) + bta_selected_inversion_flops(n, b, a)


def partition_factorization_flops(n_local: int, b: int, a: int, *, first: bool) -> float:
    """Per-partition interior elimination cost in ``d_pobtaf``.

    Partition 0 runs the standard per-block step; later partitions carry
    the fill column — one extra TRSM and three extra GEMMs per block,
    i.e. roughly twice the work.  This asymmetry is the paper's motivation
    for the boundary load-balancing factor (Fig. 5, ``lb = 1.6``).
    """
    base = (
        potrf_flops(b)
        + trsm_flops(b, b)
        + trsm_flops(b, a)
        + gemm_flops(b, b, b)
        + gemm_flops(a, b, b)
        + gemm_flops(a, b, a)
    )
    fill_extra = trsm_flops(b, b) + 2.0 * gemm_flops(b, b, b) + gemm_flops(a, b, b)
    m = max(n_local - (1 if first else 2), 0)
    return m * (base + (0.0 if first else fill_extra))


def reduced_system_blocks(P: int) -> int:
    """Number of diagonal blocks in the nested-dissection reduced system."""
    return max(2 * P - 1, 1)


def d_pobtaf_critical_flops(counts: list, b: int, a: int) -> float:
    """Critical-path flops of the distributed factorization.

    ``counts`` are per-partition block counts; the slowest interior
    elimination plus the (redundant) reduced-system factorization bound
    the makespan.
    """
    P = len(counts)
    interior = max(
        partition_factorization_flops(c, b, a, first=(p == 0)) for p, c in enumerate(counts)
    )
    reduced = bta_factorization_flops(reduced_system_blocks(P), b, a)
    return interior + reduced


def d_pobtas_critical_flops(counts: list, b: int, a: int, k: int = 1) -> float:
    """Critical-path flops of the distributed triangular solve (P POBTAS).

    Unlike the factorization, the per-block solve work of middle
    partitions is only marginally higher than partition 0's (one extra
    GEMV pair), so the critical path follows the *largest* partition.
    This is why boundary load balancing tuned for the ``b^3`` kernels
    makes the solve *worse* (paper Fig. 5) — the effect is amplified by
    kernel-launch latency, modeled in
    :meth:`repro.perfmodel.scaling.DaliaPerfModel.solve_time`.
    """
    P = len(counts)
    interior = max(
        bta_solve_flops(c, b, a, k) * (1.0 if p == 0 else 1.2) for p, c in enumerate(counts)
    )
    reduced = bta_solve_flops(reduced_system_blocks(P), b, a, k)
    return interior + reduced


def d_pobtasi_critical_flops(counts: list, b: int, a: int) -> float:
    """Critical-path flops of the distributed selected inversion."""
    P = len(counts)
    interior = max(
        bta_selected_inversion_flops(c, b, a) * (1.0 if p == 0 else 2.0)
        for p, c in enumerate(counts)
    )
    reduced = bta_selected_inversion_flops(reduced_system_blocks(P), b, a)
    return interior + reduced


def d_pobtaf_comm_bytes(P: int, b: int, a: int) -> float:
    """Allgather volume of the reduced-system assembly, per rank."""
    if P <= 1:
        return 0.0
    per_contrib = (2 * b * b + b * b + 2 * a * b + a * a) * 8.0
    return P * per_contrib


def sparse_to_dense_bytes(nnz: int) -> float:
    """The O(nnz) mapping cost (paper Sec. IV-F): read + write per nonzero."""
    return 24.0 * nnz  # value + source index + destination write


def bta_assembly_flops(
    nv: int,
    ntt: int,
    nnz_s: int,
    nnz_u: int,
    gram_nnz: int,
    N: int,
    n_theta: int = 1,
    *,
    stacked: bool = False,
) -> float:
    """Numeric-phase flops of the symbolic assembly plan per theta batch.

    The plan (:class:`repro.model.assembler.SymbolicAssembly`) evaluates,
    per theta: the spatial combinations (a ``(3, 4) x (4, nnz_s)`` GEMM
    per process), the temporal Kronecker expansion (an
    ``(ntt, 3) x (3, nnz_s)`` GEMM per process), the Eq. 11 block mixes
    (``nv`` multiply-adds per union entry and block), the tau-scaled
    observation-Gram additions, and the ``sum_v tau_v g_v`` information
    vector.  *Linear in ``n_theta`` by contract*: theta-batched assembly
    amortizes per-pass dispatch, not arithmetic — one batched
    ``assemble_batch`` and ``n_theta`` looped ``assemble`` calls must
    report identical flops (the same identity the solver-level counters
    enforce), so calibration runs are comparable across strategies.
    """
    del stacked
    spatial = gemm_flops(3, 4, nnz_s) * nv
    temporal = gemm_flops(ntt, 3, nnz_s) * nv
    mix = 2.0 * nv * nv * nv * nnz_u
    conditional = 2.0 * gram_nnz
    rhs = 2.0 * nv * N
    return n_theta * (spatial + temporal + mix + conditional + rhs)


def bta_assembly_bytes(nnz_p: int, nnz_c: int, n_theta: int = 1) -> float:
    """Scatter traffic of the fused align -> permute -> densify step.

    Per theta and precision matrix one composed fancy-indexed pass
    (:func:`sparse_to_dense_bytes` per nonzero); linear in ``n_theta``
    under the same batched/looped identity as :func:`bta_assembly_flops`.
    """
    return n_theta * (sparse_to_dense_bytes(nnz_p) + sparse_to_dense_bytes(nnz_c))
