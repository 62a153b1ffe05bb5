"""Structured-solver dispatch (sequential vs. distributed S3 path).

A :class:`StructuredSolver` produces **factorization handles**: the
primary entry point is :meth:`StructuredSolver.factorize`, which runs one
``pobtaf`` (or one collective ``d_pobtaf`` pipeline) and returns a
:class:`~repro.structured.factor.BTAFactor` /
:class:`~repro.structured.factor.DistributedBTAFactor` whose methods —
``logdet``, ``solve``, ``solve_stack``, ``solve_lt_stack``,
``selected_inverse_diagonal``, ``sample`` — all reuse that single
factorization.  This is the paper's amortization pattern: DALIA computes
the objective, the conditional mean, the Takahashi variances *and*
posterior draws from one Cholesky per precision matrix.

The historical one-shot methods (``logdet``, ``logdet_and_solve``,
``selected_inverse_diagonal``, ``solve_stack``, ``solve_lt_stack``,
``solve_and_selected_inverse_diagonal``) remain as thin
factorize-then-call wrappers with bit-identical results, but each call
now emits :class:`OneShotDeprecationWarning`: every call factorizes from
scratch, which is exactly the redundancy the handle API removes — see
the migration notes in ``structured/README.md``.  The repo's own test
configuration escalates the warning to an error, so no in-repo hot path
can regress onto the one-shot surface.

:class:`SequentialSolver` calls the single-device kernels;
:class:`DistributedSolver` executes the full nested-dissection pipeline
over ``P`` SPMD thread-ranks (paper strategy S3), exactly as the MPI+NCCL
version would, including the reduced-system collectives.

``select_solver`` applies the paper's dispatch rule (Sec. V-D): stay
sequential while the densified matrix fits on one device, otherwise use
the smallest ``P`` that makes each partition fit.
"""

from __future__ import annotations

import abc
import warnings

import numpy as np

from repro.backend.device import Device, default_device
from repro.backend.memory import bta_memory_bytes, min_partitions
from repro.structured.bta import BTAMatrix
from repro.structured.factor import (
    BTAFactor,
    DistributedBTAFactor,
    _run_spmd_spd,
    d_factorize,
    factorize,
)

__all__ = [
    "StructuredSolver",
    "SequentialSolver",
    "DistributedSolver",
    "OneShotDeprecationWarning",
    "WORKLOAD_FACTORS",
    "select_solver",
]


class OneShotDeprecationWarning(DeprecationWarning):
    """A legacy one-shot :class:`StructuredSolver` wrapper was called.

    Dedicated subclass so the test suite can escalate exactly these
    warnings to errors (``filterwarnings`` in ``pyproject.toml``) without
    touching unrelated ``DeprecationWarning`` traffic from dependencies.
    """


def _warn_one_shot(name: str, replacement: str) -> None:
    warnings.warn(
        f"StructuredSolver.{name} is deprecated: it factorizes from scratch "
        f"on every call; use {replacement} on a factorization handle instead",
        OneShotDeprecationWarning,
        stacklevel=3,
    )

# Re-exported for the historical import path (the helper moved next to
# the handles it guards).
_run_spmd_spd = _run_spmd_spd


class StructuredSolver(abc.ABC):
    """Factory of factorization handles for one BTA matrix.

    Subclasses implement :meth:`factorize`; every other operation is
    derived from the handle.  The one-shot wrappers below keep the
    legacy stateless surface alive (bit-identical results) but pay one
    full factorization per call — prefer holding the handle.
    """

    @abc.abstractmethod
    def factorize(self, A: BTAMatrix, *, overwrite: bool = False):
        """Factorize ``A`` once, returning a reusable handle.

        ``overwrite=True`` lets the sequential path reuse ``A``'s storage
        for the factor (the caller's matrix is destroyed) — the
        memory-lean mode of the INLA objective.
        """

    # -- legacy one-shot surface (deprecated thin wrappers) -----------------

    def logdet(self, A: BTAMatrix) -> float:
        """``log det A``.  Deprecated: ``factorize(A).logdet()``.

        Note the factor reuses ``A``'s storage (the historical in-place
        contract of the one-shot calls): ``A`` is destroyed.
        """
        _warn_one_shot("logdet", "factorize(A).logdet()")
        return self.factorize(A, overwrite=True).logdet()

    def logdet_and_solve(self, A: BTAMatrix, rhs: np.ndarray) -> tuple:
        """``(logdet, x)``.  Deprecated: hold the handle instead."""
        _warn_one_shot("logdet_and_solve", "logdet() and solve(rhs)")
        f = self.factorize(A, overwrite=True)
        return f.logdet(), f.solve(rhs)

    def selected_inverse_diagonal(self, A: BTAMatrix) -> np.ndarray:
        """Diagonal of ``A^{-1}``.  Deprecated: use the handle."""
        _warn_one_shot("selected_inverse_diagonal", "selected_inverse_diagonal()")
        return self.factorize(A, overwrite=True).selected_inverse_diagonal()

    def solve_stack(self, A: BTAMatrix, rhs_stack: np.ndarray) -> tuple:
        """``(logdet, x_stack)`` for a row-major ``(k, N)`` RHS stack.

        Deprecated: ``f = factorize(A)`` then ``f.solve_stack(...)`` —
        the handle amortizes the factorization over further stacks.
        """
        _warn_one_shot("solve_stack", "logdet() and solve_stack(rhs_stack)")
        f = self.factorize(A, overwrite=True)
        return f.logdet(), f.solve_stack(rhs_stack)

    def solve_lt_stack(self, A: BTAMatrix, rhs_stack: np.ndarray) -> np.ndarray:
        """Backward-only ``L^T`` solve of a ``(k, N)`` stack (sampling).

        Deprecated: use the handle; repeated sampling from one
        factorization is the whole point of ``BTAFactor.sample``.
        """
        _warn_one_shot("solve_lt_stack", "solve_lt_stack(rhs_stack)")
        return self.factorize(A, overwrite=True).solve_lt_stack(rhs_stack)

    def solve_and_selected_inverse_diagonal(self, A: BTAMatrix, rhs: np.ndarray) -> tuple:
        """``(logdet, x, var)`` from one factorization (fused backward pass).

        Deprecated: ``f.solve_and_selected_inverse_diagonal(rhs)`` on the
        handle.
        """
        _warn_one_shot(
            "solve_and_selected_inverse_diagonal",
            "solve_and_selected_inverse_diagonal(rhs)",
        )
        f = self.factorize(A, overwrite=True)
        ld = f.logdet()
        x, var = f.solve_and_selected_inverse_diagonal(rhs)
        return ld, x, var


class SequentialSolver(StructuredSolver):
    """Single-device BTA kernels (the INLA_DIST-style solver)."""

    def factorize(self, A: BTAMatrix, *, overwrite: bool = False) -> BTAFactor:
        return factorize(A, overwrite=overwrite)


class DistributedSolver(StructuredSolver):
    """Time-domain distributed solver over ``P`` SPMD ranks (strategy S3).

    ``factorize`` launches the collective pipeline on ``P`` thread-ranks
    (slice -> ``d_pobtaf`` -> gather) and returns a
    :class:`DistributedBTAFactor` retaining every rank's factors; each
    handle method then costs one collective round.  The load-balancing
    factor ``lb`` gives partition 0 extra blocks (paper Fig. 5 uses 1.6).
    """

    def __init__(self, P: int, *, lb: float = 1.6):
        if P < 1:
            raise ValueError(f"P must be >= 1, got {P}")
        self.P = P
        self.lb = lb

    def _nparts(self, A: BTAMatrix) -> int:
        # Cannot split n blocks into more than floor(n / 2) + 1 partitions
        # (later partitions need two boundary blocks).
        return max(1, min(self.P, (A.n - 1) // 2 + 1 if A.n > 1 else 1))

    def factorize(
        self, A: BTAMatrix, *, overwrite: bool = False
    ) -> BTAFactor | DistributedBTAFactor:
        """One ``d_pobtaf`` collective; falls back to the sequential
        handle when the matrix is too small to split (``P`` clamps to 1).

        ``overwrite`` is accepted for interface compatibility; the
        distributed path always slices a copy.
        """
        P = self._nparts(A)
        if P == 1:
            return factorize(A, overwrite=overwrite)
        return d_factorize(A, P, lb=self.lb)


#: Storage multiplier per INLA workload type (see
#: :func:`repro.backend.memory.min_partitions`).  Factorize-only sweeps run
#: in place, but the factorization additionally caches the stacked
#: triangular inverses ``L[i,i]^{-1}`` (``n b^2`` doubles, ~0.5x of the
#: BTA bytes) that the sweeps GEMM against — hence the extra 0.5 on every
#: workload.  The objective's logdet+solve adds only O(N k) RHS storage on
#: top; selected inversion (and the fused mean+variances pass behind the
#: marginals) further keeps a full BTA workspace for the inverse blocks.
WORKLOAD_FACTORS = {
    "logdet": 1.5,
    "objective": 1.5,
    "solve": 1.5,
    "sampling": 1.5,
    "selected_inversion": 2.5,
    "marginals": 2.5,
}


def select_solver(
    A_shape,
    *,
    device: Device | None = None,
    max_ranks: int = 16,
    lb: float = 1.6,
    factors: int | None = None,
    workload: str | None = None,
) -> StructuredSolver:
    """Paper Sec. V-D dispatch: sequential while the block-dense matrix
    fits on one device, otherwise the smallest feasible S3 partitioning.

    ``workload`` names the INLA operation the solver is selected for (a
    key of :data:`WORKLOAD_FACTORS`); it resolves the storage multiplier
    ``factors`` (see :func:`repro.backend.memory.min_partitions`) from the
    workload's actual peak footprint: the objective's factorize-in-place
    logdet/solve sweeps need ``factors=1.5`` (in-place factor + cached
    inverse stack), selected inversion additionally keeps a full BTA
    workspace (``factors=2.5``) — the same shape can be sequential for
    the former and partitioned for the latter.  An explicit ``factors``
    overrides; with neither given, the conservative ``factors=2`` is
    assumed.
    """
    if factors is None:
        if workload is not None:
            try:
                factors = WORKLOAD_FACTORS[workload]
            except KeyError:
                raise ValueError(
                    f"unknown workload {workload!r}; expected one of "
                    f"{sorted(WORKLOAD_FACTORS)}"
                ) from None
        else:
            factors = 2
    device = device or default_device()
    n, b, a = A_shape.n, A_shape.b, A_shape.a
    if device.fits(bta_memory_bytes(n, b, a, factors=factors)):
        return SequentialSolver()
    P = min(min_partitions(n, b, a, device, factors=factors), max_ranks)
    return DistributedSolver(P, lb=lb)
