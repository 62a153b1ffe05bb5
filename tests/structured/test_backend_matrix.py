"""Backend execution matrix: the structured pipeline under numpy + mock device.

The contract the backend-threading refactor must keep, asserted over a
shape grid on both registered host-testable backends:

- **within-backend determinism** — running the same factorization twice
  on one backend is bit-identical (no hidden state, no allocator
  nondeterminism);
- **cross-backend agreement** — log-determinants are bit-identical
  (both paths sum the same diagonal logs); solves, selected inverses and
  posterior draws agree to ~machine epsilon (host LAPACK ``dtrtri``
  vs. the device path's vectorized substitution round differently), far
  inside 1e-12;
- **no host escape** — with global NumPy allocators poisoned, the whole
  pipeline (assemble → factorize_batch → solve_stack → selected inverse
  → sample) still runs under the mock device backend, proving every
  hot-path allocation routes through the owning backend's ``xp``;
- **ceiling lift** — a backend with genuinely batched POTRF ignores the
  host-measured ``REPRO_BATCH_STENCIL_MAX_B`` stencil-batching ceiling.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.mock import MOCK_DEVICE_BACKEND, MockDeviceArray
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import factorize
from repro.structured.multifactor import factorize_batch

BACKENDS = ["numpy", "mock_device"]
SHAPES = [BTAShape(n=4, b=3, a=2), BTAShape(n=6, b=5, a=0), BTAShape(n=3, b=8, a=4)]


@pytest.fixture(params=BACKENDS)
def backend(request):
    be = get_backend(request.param)
    if be is MOCK_DEVICE_BACKEND:
        be.transfers.reset()
    return be


def _on_backend(A: BTAMatrix, be) -> BTAMatrix:
    return BTAMatrix(
        be.asarray(A.diag), be.asarray(A.lower), be.asarray(A.arrow), be.asarray(A.tip)
    )


def _host_mats(shape, rng, t=1):
    return [BTAMatrix.random_spd(shape, rng) for _ in range(t)]


class TestFactorGrid:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_within_backend_bit_identity(self, backend, shape, rng):
        (A,) = _host_mats(shape, rng)
        rhs = rng.standard_normal(A.N)
        outs = []
        for _ in range(2):
            f = factorize(_on_backend(A, backend))
            outs.append((
                f.logdet(),
                backend.to_host(f.solve(rhs)),
                backend.to_host(f.selected_inverse_diagonal()),
            ))
        assert outs[0][0] == outs[1][0]
        assert np.array_equal(outs[0][1], outs[1][1])
        assert np.array_equal(outs[0][2], outs[1][2])

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_cross_backend_agreement(self, shape, rng):
        (A,) = _host_mats(shape, rng)
        rhs = rng.standard_normal(A.N)
        host = factorize(A.copy())
        dev = factorize(_on_backend(A, MOCK_DEVICE_BACKEND))
        # Same diagonal logs: bit-identical in practice, 1-ulp tolerance.
        np.testing.assert_allclose(dev.logdet(), host.logdet(), rtol=1e-13)
        np.testing.assert_allclose(
            MOCK_DEVICE_BACKEND.to_host(dev.solve(rhs)), host.solve(rhs), rtol=1e-12
        )
        np.testing.assert_allclose(
            MOCK_DEVICE_BACKEND.to_host(dev.selected_inverse_diagonal()),
            host.selected_inverse_diagonal(),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("shape", SHAPES[:2], ids=str)
    def test_cross_backend_sampling(self, shape, rng):
        (A,) = _host_mats(shape, rng)
        mean = rng.standard_normal(A.N)
        host = factorize(A.copy()).sample(3, np.random.default_rng(7), mean=mean)
        dev = factorize(_on_backend(A, MOCK_DEVICE_BACKEND)).sample(
            3, np.random.default_rng(7), mean=mean
        )
        assert isinstance(dev, MockDeviceArray)
        np.testing.assert_allclose(MOCK_DEVICE_BACKEND.to_host(dev), host, rtol=1e-11)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_device_results_stay_on_device(self, shape, rng):
        (A,) = _host_mats(shape, rng)
        f = factorize(_on_backend(A, MOCK_DEVICE_BACKEND))
        assert isinstance(f.solve(rng.standard_normal(A.N)), MockDeviceArray)
        assert isinstance(f.selected_inverse_diagonal(), MockDeviceArray)
        assert isinstance(f.solve_stack(rng.standard_normal((2, A.N))), MockDeviceArray)


class TestMultifactorGrid:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_batch_cross_backend(self, shape, rng):
        mats = _host_mats(shape, rng, t=4)
        rhs = rng.standard_normal((4, mats[0].N))
        host = factorize_batch(mats)
        dev = factorize_batch([_on_backend(A, MOCK_DEVICE_BACKEND) for A in mats])
        np.testing.assert_allclose(
            MOCK_DEVICE_BACKEND.to_host(dev.logdets()), host.logdets(), rtol=1e-13
        )
        np.testing.assert_allclose(
            MOCK_DEVICE_BACKEND.to_host(dev.solve_each(rhs)),
            host.solve_each(rhs),
            rtol=1e-11,
        )

    def test_batch_within_backend_bit_identity(self, backend, rng):
        mats = _host_mats(SHAPES[0], rng, t=3)
        rhs = rng.standard_normal((3, mats[0].N))
        runs = [
            factorize_batch([_on_backend(A, backend) for A in mats]) for _ in range(2)
        ]
        assert np.array_equal(
            backend.to_host(runs[0].logdets()), backend.to_host(runs[1].logdets())
        )
        assert np.array_equal(
            backend.to_host(runs[0].solve_each(rhs)),
            backend.to_host(runs[1].solve_each(rhs)),
        )


class TestAssemblyGrid:
    def _thetas(self, model, gt):
        base = gt.theta
        return np.stack([base, base + 0.05, base - 0.05])

    def test_assemble_batch_backend_identical(self, tiny_uni_model):
        """Assembly arithmetic is backend-independent: the stacks built on
        the mock device are bit-identical to the host ones."""
        from repro.model.assembler import AssemblyWorkspace

        model, gt, _ = tiny_uni_model
        thetas = self._thetas(model, gt)
        host = model.assemble_batch(thetas)
        dev = model.assemble_batch(
            thetas, workspace=AssemblyWorkspace(backend=MOCK_DEVICE_BACKEND)
        )
        assert isinstance(dev.qp.diag, MockDeviceArray)
        for name in ("diag", "lower", "arrow", "tip"):
            np.testing.assert_array_equal(
                MOCK_DEVICE_BACKEND.to_host(getattr(dev.qp, name)), getattr(host.qp, name)
            )
            np.testing.assert_array_equal(
                MOCK_DEVICE_BACKEND.to_host(getattr(dev.qc, name)), getattr(host.qc, name)
            )
        np.testing.assert_array_equal(np.asarray(dev.rhs), np.asarray(host.rhs))


class TestNoHostEscape:
    def test_pipeline_with_poisoned_numpy(self, tiny_uni_model, monkeypatch, rng):
        """The ISSUE's monkeypatch-asserted no-escape gate: after model
        construction, every allocation in assemble → factorize_batch →
        solve_stack → selected inverse → sample must come from the
        backend's pre-bound ``xp`` — a hot-path ``np.empty``/``np.zeros``
        (or ``*_like``) is an immediate failure, not a silent host
        round-trip."""
        from repro.model.assembler import AssemblyWorkspace

        model, gt, _ = tiny_uni_model
        thetas = np.stack([gt.theta, gt.theta + 0.05, gt.theta - 0.05])
        be = MOCK_DEVICE_BACKEND
        ws = AssemblyWorkspace(backend=be)

        # The noise block is host-RNG *input* (its asarray is the H2D
        # crossing), like the model itself — pre-draw it so the poisoned
        # region covers sample()'s own allocations, not numpy's RNG.
        z_host = np.random.default_rng(3).standard_normal((2, model.N))

        class _FrozenRng:
            def standard_normal(self, shape):
                assert shape == z_host.shape
                return z_host

        def boom(*a, **k):
            raise AssertionError("hot path allocated through global numpy")

        monkeypatch.setattr(np, "empty", boom)
        monkeypatch.setattr(np, "zeros", boom)
        monkeypatch.setattr(np, "empty_like", boom)
        monkeypatch.setattr(np, "zeros_like", boom)

        batch = model.assemble_batch(thetas, workspace=ws)
        fb = factorize_batch(batch.qc, overwrite=True)
        mu = fb.solve_each(batch.rhs)
        assert isinstance(mu, MockDeviceArray)
        f0 = fb.factor(0)
        x = f0.solve_stack(np.ones((2, f0.N)))
        var = f0.selected_inverse_diagonal()
        draws = f0.sample(2, _FrozenRng())
        for out in (x, var, draws):
            assert isinstance(out, MockDeviceArray)

        monkeypatch.undo()
        # Same numbers as the unpoisoned host run.
        host = model.assemble_batch(thetas)
        hb = factorize_batch(host.qc, overwrite=True)
        np.testing.assert_allclose(be.to_host(fb.logdets()), hb.logdets(), rtol=1e-13)
        # Condition-number amplification of the eps-level kernel
        # difference (host dtrtri vs. vectorized substitution) on real
        # assembled precisions — ~1e-10 relative, vs. ~1e-15 on the
        # diagonally dominant random grid above.
        np.testing.assert_allclose(
            be.to_host(mu), hb.solve_each(np.asarray(host.rhs)), rtol=1e-8
        )


class TestCeilingLift:
    def test_batched_potrf_backend_ignores_ceiling(self, tiny_uni_model, monkeypatch):
        """`has_batched_potrf=True` removes the host stencil ceiling: one
        fat launch beats t thin ones at any block size (ISSUE acceptance:
        the ceiling must not be applied under the mock backend)."""
        from repro.inla.evaluator import FobjEvaluator

        model, _, _ = tiny_uni_model
        ev = FobjEvaluator(model)  # auto mode
        monkeypatch.setenv("REPRO_BATCH_STENCIL_MAX_B", "1")  # below any real b
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert not ev._use_batch(4)  # host path obeys the ceiling
        monkeypatch.setenv("REPRO_BACKEND", "mock_device")
        assert ev._use_batch(4)  # batched-potrf backend lifts it
