"""Device-memory accounting for structured matrices.

The paper's block-dense approach raises the memory footprint of a precision
matrix from ``O(nnz)`` (general sparse) to ``O(n * b^2)`` (densified BT/BTA,
Sec. IV-C).  The framework must therefore decide, per model, how many
time-domain partitions ``P`` are needed so each partition's slice fits on
one device.  This module provides the byte-counting helpers and a
:class:`MemoryTracker` that the solver dispatch layer consults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.device import Device

# Re-homed into the unified hierarchy (repro.errors); this module stays
# the historical import path.
from repro.errors import MemoryBudgetError  # noqa: F401 - re-exported API

_F64 = 8  # bytes per float64


def bta_memory_bytes(n: int, b: int, a: int, *, factors: float = 2) -> int:
    """Bytes to store a densified BTA matrix (and, by default, its factor).

    Storage: ``n`` diagonal blocks ``b x b``, ``n - 1`` off-diagonal blocks,
    ``n`` arrow blocks ``a x b``, and one ``a x a`` tip.  ``factors = 2``
    accounts for the matrix plus one workspace copy, matching the solver's
    in-place-factorization-plus-original layout used during selected
    inversion.  Fractional factors express partial side allocations such
    as the factorization's cached ``L[i,i]^{-1}`` stack (~0.5x, see
    :data:`repro.inla.solvers.WORKLOAD_FACTORS`).
    """
    if n <= 0 or b <= 0 or a < 0:
        raise ValueError(f"invalid BTA dims n={n}, b={b}, a={a}")
    blocks = n * b * b + max(n - 1, 0) * b * b + n * a * b + a * a
    return int(factors * blocks * _F64)


def bt_memory_bytes(n: int, b: int, *, factors: float = 2) -> int:
    """Bytes to store a densified BT matrix (no arrowhead)."""
    return bta_memory_bytes(n, b, 0, factors=factors)


def posterior_memory_bytes(
    n: int, b: int, a: int, *, factors: float = 2.5, vectors: int = 3
) -> int:
    """Bytes a resident fitted-posterior handle occupies.

    The dominant term is the BTA factor with the side allocations the
    full query mix needs — the cached ``L[i,i]^{-1}`` stack, the flat
    arrow row, and the selected-inversion workspace — which is the
    ``marginals`` workload footprint (``factors = 2.5``, see
    :data:`repro.inla.solvers.WORKLOAD_FACTORS`).  ``vectors`` counts the
    length-``N`` side vectors a handle retains (permuted mean, cached
    selected-inverse diagonal, unpermuted mean).  The serving tier's
    model registry budgets its residency set with this number.
    """
    if vectors < 0:
        raise ValueError(f"vectors must be >= 0, got {vectors}")
    N = n * b + a
    return bta_memory_bytes(n, b, a, factors=factors) + vectors * N * _F64


def min_partitions(
    n: int, b: int, a: int, device: Device, *, factors: float = 2, headroom: float = 0.85
) -> int:
    """Smallest ``P`` such that an even time-domain slice fits on ``device``.

    This is the decision rule of paper Sec. V-D: parallelize through S1
    first and only spill into S3 when the block-dense precision matrices do
    not fit on a single accelerator anymore.

    ``P`` is computed in closed form from the byte formula rather than by
    scanning ``P = 1, 2, ...`` (the historical implementation was ``O(n)``
    per dispatch, which the solver-selection layer pays on every model
    evaluation).  A slice of ``n_local`` block rows occupies

        factors * 8 * (n_local * (2 b^2 + a b) - b^2 + a^2)

    bytes, so the largest feasible slice is obtained by inverting the
    linear-in-``n_local`` expression against the headroom budget.

    ``factors`` distinguishes workloads: a factorize-only ``logdet`` sweep
    factors in place (``factors=1``), while selected inversion keeps the
    factor plus a workspace copy (``factors=2``, the default) — the two
    genuinely need different partition counts, which the old signature
    could not express.
    """
    if n <= 0 or b <= 0 or a < 0:
        raise ValueError(f"invalid BTA dims n={n}, b={b}, a={a}")
    if factors < 1:
        raise ValueError(f"factors must be >= 1, got {factors}")
    budget_doubles = int(headroom * device.memory_bytes / (factors * _F64))
    per_row = 2 * b * b + a * b
    n_local_max = (budget_doubles + b * b - a * a) // per_row
    if n_local_max < 1:
        raise MemoryBudgetError(
            f"a single {b}x{b} block row does not fit on {device.name}; "
            "spatial-domain parallelism (future work in the paper) would be required"
        )
    return max(1, -(-n // n_local_max))  # ceil(n / n_local_max)


@dataclass
class MemoryTracker:
    """Tracks live simulated-device allocations against a budget.

    Used by the structured solvers to assert that no dense ``N x N``
    transient is ever materialized (the core promise of selected inversion,
    paper Sec. III-A2).
    """

    device: Device
    live_bytes: int = 0
    peak_bytes: int = 0
    _tags: dict = field(default_factory=dict)

    def allocate(self, nbytes: int, tag: str = "") -> None:
        """Record an allocation; raise if the budget is exceeded."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if not self.device.fits(self.live_bytes + nbytes):
            raise MemoryBudgetError(
                f"allocating {nbytes} bytes ({tag!r}) exceeds {self.device.name} "
                f"budget with {self.live_bytes} bytes live"
            )
        self.live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        if tag:
            self._tags[tag] = self._tags.get(tag, 0) + nbytes

    def free(self, nbytes: int, tag: str = "") -> None:
        """Record a deallocation."""
        if nbytes < 0 or nbytes > self.live_bytes:
            raise ValueError(f"cannot free {nbytes} bytes with {self.live_bytes} live")
        self.live_bytes -= nbytes
        if tag and tag in self._tags:
            self._tags[tag] -= nbytes

    def breakdown(self) -> dict:
        """Live bytes per tag (diagnostics)."""
        return dict(self._tags)
