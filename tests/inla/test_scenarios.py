"""Scenario grids: heterogeneous model x likelihood cells, shared sweeps.

:func:`repro.inla.scenarios.evaluate_scenario_grid` groups cells by BTA
shape and runs every same-shape group through ONE lockstep Newton engine
— per-cell results must be bit-identical to running each cell through
the serial :func:`repro.inla.nongaussian.evaluate_fobj_nongaussian`
(same-backend lanes are row-independent).  Also covers the DALIA
front-end's ``likelihood=`` integration riding the same engine.
"""

import numpy as np
import pytest

from repro.inla.nongaussian import (
    BinomialLikelihood,
    PoissonLikelihood,
    evaluate_fobj_nongaussian,
)
from repro.inla.scenarios import Scenario, ScenarioResult, evaluate_scenario_grid

DECOMP = ("value", "log_prior_theta", "log_likelihood", "logdet_qp", "logdet_qc", "quad_qp")


def _poisson(model, latent, seed):
    rng = np.random.default_rng(seed)
    eta = np.clip(np.asarray(model.A @ latent).ravel() * 0.3, -3.0, 3.0)
    return PoissonLikelihood(rng.poisson(np.exp(eta)).astype(float))


def _binomial(model, seed):
    rng = np.random.default_rng(seed)
    return BinomialLikelihood(rng.integers(0, 2, size=model.likelihood.y.size).astype(float))


@pytest.fixture(scope="module")
def grid_cells():
    """Four cells: two models sharing one BTA shape (poisson + binomial
    likelihoods), plus a different-shape singleton."""
    from repro.model.datasets import make_dataset

    m1, g1, l1 = make_dataset(nv=1, ns=16, nt=4, nr=1, obs_per_step=20, seed=17)
    m2, g2, l2 = make_dataset(nv=1, ns=16, nt=4, nr=1, obs_per_step=20, seed=29)
    m3, g3, l3 = make_dataset(nv=1, ns=12, nt=3, nr=1, obs_per_step=15, seed=31)
    return [
        Scenario("a-poisson", m1, _poisson(m1, l1, 3), g1.theta),
        Scenario("b-binomial", m2, _binomial(m2, 4), g2.theta),
        Scenario("a-shifted", m1, _poisson(m1, l1, 3), g1.theta + 0.05),
        Scenario("c-small", m3, _poisson(m3, l3, 5), g3.theta),
    ]


def _assert_matches_serial(results, cells, *, exact=True):
    assert [r.name for r in results] == [sc.name for sc in cells]
    for r, sc in zip(results, cells):
        ref = evaluate_fobj_nongaussian(sc.model, sc.theta, sc.likelihood)
        assert r.ok and r.converged
        for attr in DECOMP:
            got, want = getattr(r.result, attr), getattr(ref, attr)
            if exact:
                assert got == want, attr
            else:
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), attr
        np.testing.assert_allclose(r.x_mode, ref.mu_perm, atol=0 if exact else 1e-10)


class TestScenarioGrid:
    def test_grid_bit_identical_to_serial(self, grid_cells, monkeypatch):
        # Exactness is a same-backend contract: the serial reference
        # factorizes on host, so pin the grid to the host backend (an
        # ambient mock_device leg differs by design at the ulp level).
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        results = evaluate_scenario_grid(grid_cells)
        _assert_matches_serial(results, grid_cells, exact=True)

    def test_mock_device_close(self, grid_cells, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "mock_device")
        results = evaluate_scenario_grid(grid_cells)
        _assert_matches_serial(results, grid_cells, exact=False)

    def test_single_cell_grid(self, grid_cells):
        results = evaluate_scenario_grid(grid_cells[:1])
        _assert_matches_serial(results, grid_cells[:1], exact=True)

    def test_infeasible_cell_flags_not_ok(self, grid_cells):
        sc = grid_cells[0]
        bad_theta = sc.theta.copy()
        bad_theta[sc.model.layout.range_slice(0)] = 1000.0
        bad = Scenario("bad", sc.model, sc.likelihood, bad_theta)
        results = evaluate_scenario_grid([bad, *grid_cells[:2]])
        assert not results[0].ok
        assert results[0].result.value == -np.inf
        assert results[1].ok and results[2].ok

    def test_result_shape(self, grid_cells):
        (r,) = evaluate_scenario_grid(grid_cells[:1])
        assert isinstance(r, ScenarioResult)
        assert r.x_mode.shape == (grid_cells[0].model.N,)
        assert r.n_newton >= 1


class TestDaliaIntegration:
    @pytest.fixture(scope="class")
    def fitted(self, grid_cells):
        from repro.inla.bfgs import BFGSOptions
        from repro.inla.dalia import DALIA

        sc = grid_cells[0]
        engine = DALIA(sc.model, likelihood=sc.likelihood)
        result = engine.fit(sc.theta, options=BFGSOptions(max_iter=3))
        return engine, result

    def test_fit_runs_on_batched_engine(self, fitted):
        engine, result = fitted
        assert np.isfinite(result.fobj_mode)
        assert engine.evaluator.n_batch_sweeps >= 1
        assert np.all(np.isfinite(result.latent.mean))

    def test_posterior_mode_reuse_and_cold_rebuild(self, fitted, grid_cells):
        engine, result = fitted
        warm = engine.posterior()
        cold = engine._nongaussian_posterior(result.theta_mode)
        np.testing.assert_allclose(warm.mu_perm, cold.mu_perm, atol=1e-8)

    def test_rejects_explicit_solver(self, grid_cells):
        from repro.inla.dalia import DALIA
        from repro.inla.solvers import SequentialSolver

        sc = grid_cells[0]
        with pytest.raises(ValueError):
            DALIA(sc.model, likelihood=sc.likelihood, solver=SequentialSolver())
