"""Solver dispatch layer (sequential vs distributed S3)."""

import numpy as np
import pytest

from repro.backend.device import Device, DeviceKind
from repro.backend.memory import MemoryBudgetError
from repro.inla.solvers import (
    DistributedSolver,
    OneShotDeprecationWarning,
    SequentialSolver,
    select_solver,
)
from repro.structured.bta import BTAMatrix, BTAShape


@pytest.fixture
def spd(rng):
    A = BTAMatrix.random_spd(BTAShape(n=10, b=3, a=2), rng)
    return A, A.to_dense()


class TestSequentialSolver:
    def test_logdet(self, spd):
        A, Ad = spd
        f = SequentialSolver().factorize(A.copy(), overwrite=True)
        assert np.isclose(f.logdet(), np.linalg.slogdet(Ad)[1])

    def test_logdet_and_solve(self, spd, rng):
        A, Ad = spd
        rhs = rng.standard_normal(A.N)
        f = SequentialSolver().factorize(A.copy(), overwrite=True)
        x = f.solve(rhs)
        assert np.allclose(Ad @ x, rhs)

    def test_selected_inverse_diagonal(self, spd):
        A, Ad = spd
        f = SequentialSolver().factorize(A.copy(), overwrite=True)
        d = f.selected_inverse_diagonal()
        assert np.allclose(d, np.diag(np.linalg.inv(Ad)))


class TestDistributedSolver:
    @pytest.mark.parametrize("P", [2, 3])
    def test_matches_sequential(self, spd, rng, P):
        A, Ad = spd
        rhs = rng.standard_normal(A.N)
        sv = DistributedSolver(P)
        assert np.isclose(
            sv.factorize(A.copy()).logdet(), np.linalg.slogdet(Ad)[1]
        )
        x = sv.factorize(A.copy()).solve(rhs)
        assert np.allclose(Ad @ x, rhs, atol=1e-8)
        d = sv.factorize(A.copy()).selected_inverse_diagonal()
        assert np.allclose(d, np.diag(np.linalg.inv(Ad)), atol=1e-8)

    def test_oversized_p_clamped(self, rng):
        A = BTAMatrix.random_spd(BTAShape(n=4, b=2, a=1), rng)
        Ad = A.to_dense()
        sv = DistributedSolver(16)  # more ranks than feasible partitions
        assert np.isclose(sv.factorize(A.copy()).logdet(), np.linalg.slogdet(Ad)[1])

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            DistributedSolver(0)


class TestOneShotDeprecation:
    """The legacy one-shot wrappers still answer (bit-identically) but
    each call must announce itself — tier-1 config escalates the warning
    to an error for every caller outside these wrapper-own tests."""

    @pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
    def test_wrappers_warn_and_match_handle(self, spd, rng):
        A, Ad = spd
        rhs = rng.standard_normal(A.N)
        sv = SequentialSolver()
        with pytest.warns(OneShotDeprecationWarning, match="logdet is deprecated"):
            ld = sv.logdet(A.copy())
        assert ld == sv.factorize(A.copy(), overwrite=True).logdet()
        with pytest.warns(OneShotDeprecationWarning, match="logdet_and_solve"):
            ld2, x = sv.logdet_and_solve(A.copy(), rhs)
        f = sv.factorize(A.copy(), overwrite=True)
        assert ld2 == f.logdet() and np.array_equal(x, f.solve(rhs))
        with pytest.warns(OneShotDeprecationWarning, match="selected_inverse_diagonal"):
            d = sv.selected_inverse_diagonal(A.copy())
        assert np.array_equal(
            d, sv.factorize(A.copy(), overwrite=True).selected_inverse_diagonal()
        )

    @pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
    def test_stack_wrappers_warn(self, spd, rng):
        A, _ = spd
        stack = rng.standard_normal((3, A.N))
        sv = SequentialSolver()
        with pytest.warns(OneShotDeprecationWarning, match="solve_stack"):
            sv.solve_stack(A.copy(), stack)
        with pytest.warns(OneShotDeprecationWarning, match="solve_lt_stack"):
            sv.solve_lt_stack(A.copy(), stack)
        with pytest.warns(
            OneShotDeprecationWarning, match="solve_and_selected_inverse_diagonal"
        ):
            sv.solve_and_selected_inverse_diagonal(A.copy(), stack[0])

    def test_escalated_to_error_under_tier1(self, spd):
        """The repo-wide filter turns the warning into an error: this is
        what guards repro-internal callers against regressing onto the
        one-shot surface."""
        A, _ = spd
        with pytest.raises(OneShotDeprecationWarning):
            SequentialSolver().logdet(A.copy())


class TestSelectSolver:
    def test_small_model_sequential(self):
        s = select_solver(BTAShape(n=10, b=4, a=2))
        assert isinstance(s, SequentialSolver)

    def test_large_model_distributed(self):
        tiny_device = Device(
            kind=DeviceKind.GPU, name="tiny", memory_bytes=10 * 2**20,
            gemm_tflops=1.0, bandwidth_gbs=100.0,
        )
        s = select_solver(BTAShape(n=64, b=200, a=4), device=tiny_device)
        assert isinstance(s, DistributedSolver)
        assert s.P > 1

    def test_infeasible_block_raises(self):
        nano = Device(
            kind=DeviceKind.GPU, name="nano", memory_bytes=1000,
            gemm_tflops=1.0, bandwidth_gbs=1.0,
        )
        with pytest.raises(MemoryBudgetError):
            select_solver(BTAShape(n=4, b=100, a=0), device=nano)


class TestSelectSolverFactors:
    def test_factors_flip_dispatch(self):
        """The same shape can stay sequential for a factorize-only workload
        (factors=1) yet require S3 partitioning for selected inversion
        (factors=2) — the workload argument must reach the byte formula."""
        shape = BTAShape(n=64, b=200, a=4)
        # Storage: doubles(n=64) = 64*(2*200^2 + 4*200) - 200^2 + 16 doubles.
        doubles = 64 * (2 * 200**2 + 4 * 200) - 200**2 + 16
        mem = int(1.5 * doubles * 8 / 0.85)  # fits once, not twice
        dev = Device(kind=DeviceKind.GPU, name="mid", memory_bytes=mem,
                     gemm_tflops=1.0, bandwidth_gbs=100.0)
        assert isinstance(select_solver(shape, device=dev, factors=1), SequentialSolver)
        s = select_solver(shape, device=dev, factors=2)
        assert isinstance(s, DistributedSolver)
