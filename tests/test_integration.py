"""Cross-module integration tests.

These exercise complete paths through the stack that no single module
test covers: the three-layer parallel pipeline over real SPMD groups, the
GMRF density against scipy, sampling correctness, and the examples'
entry points.
"""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from repro.comm import ProcessGrid, run_spmd, split_process_grid
from repro.inla import DALIA, DistributedSolver, evaluate_fobj
from repro.inla.bfgs import BFGSOptions
from repro.model.datasets import make_dataset
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas_lt


class TestGMRFDensity:
    def test_logpdf_matches_scipy(self, rng):
        """Eq. 1's GMRF density via BTA logdet == scipy's dense mvn."""
        shape = BTAShape(n=5, b=3, a=2)
        Q = BTAMatrix.random_spd(shape, rng)
        Qd = Q.to_dense()
        x = rng.standard_normal(shape.N)
        chol = pobtaf(Q)
        ours = 0.5 * chol.logdet() - 0.5 * x @ Q.matvec(x) - 0.5 * shape.N * np.log(2 * np.pi)
        ref = multivariate_normal(mean=np.zeros(shape.N), cov=np.linalg.inv(Qd)).logpdf(x)
        assert np.isclose(ours, ref, atol=1e-8)

    def test_prior_sampling_statistics(self, rng):
        """pobtas_lt sampling: empirical precision ~ Q on the diagonal."""
        shape = BTAShape(n=3, b=3, a=1)
        Q = BTAMatrix.random_spd(shape, rng)
        chol = pobtaf(Q)
        Z = rng.standard_normal((shape.N, 40000))
        X = pobtas_lt(chol, Z)
        emp_cov_diag = (X**2).mean(axis=1)
        ref = np.diag(np.linalg.inv(Q.to_dense()))
        assert np.allclose(emp_cov_diag, ref, rtol=0.1)


class TestThreeLayerPipeline:
    def test_full_grid_objective(self):
        """S1 x S2 x S3 process grid evaluating fobj collaboratively.

        Each S1 group evaluates one stencil point; inside, the solver group
        runs the distributed factorization.  The aggregated values must be
        identical to serial evaluation.
        """
        model, gt, _ = make_dataset(nv=1, ns=16, nt=6, nr=1, obs_per_step=12, seed=9)
        h = 1e-4
        points = [gt.theta.copy(), gt.theta.copy(), gt.theta.copy(), gt.theta.copy()]
        points[1][0] += h
        points[2][1] += h
        points[3][2] += h
        grid = ProcessGrid(s1=4, s2=1, s3=2)

        def rank_fn(comm):
            gc = split_process_grid(comm, grid)
            theta = points[gc.i1]
            # Every rank of an eval group computes the same value through
            # the S3-distributed solver (thread-ranks inside thread-ranks
            # would deadlock the shared pool, so S3 here is per-group).
            val = evaluate_fobj(model, theta, solver=DistributedSolver(gc.grid.s3)).value
            # Aggregate one value per S1 group: group leaders contribute.
            contrib = val if (gc.i2 == 0 and gc.i3 == 0) else 0.0
            vec = np.zeros(4)
            vec[gc.i1] = contrib
            return gc.world.Allreduce(vec)

        out = run_spmd(grid.nprocs, rank_fn)
        ref = np.array([evaluate_fobj(model, t).value for t in points])
        for o in out:
            assert np.allclose(o, ref, atol=1e-9)

    def test_dalia_with_distributed_solver_end_to_end(self):
        model, gt, _ = make_dataset(nv=1, ns=16, nt=6, nr=1, obs_per_step=15, seed=3)
        seq = DALIA(model).fit(options=BFGSOptions(max_iter=25))
        dist = DALIA(model, solver=DistributedSolver(2)).fit(options=BFGSOptions(max_iter=25))
        assert np.allclose(seq.theta_mode, dist.theta_mode, atol=1e-8)
        assert np.allclose(seq.latent.sd, dist.latent.sd, rtol=1e-8)


class TestExamples:
    """The examples must at least import and expose a main()."""

    @pytest.mark.parametrize(
        "name", ["quickstart", "air_pollution", "distributed_solver", "scaling_prediction"]
    )
    def test_example_importable(self, name):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert callable(mod.main)

    def test_distributed_solver_example_runs(self, capsys):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / "distributed_solver.py"
        spec = importlib.util.spec_from_file_location("ds_example", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mod.main()
        out = capsys.readouterr().out
        assert "P=4 lb=1.6" in out
        assert "e-1" in out or "0.00e+00" in out  # tiny errors reported


class TestVersioning:
    def test_public_api(self):
        import repro

        assert repro.__version__ == "1.3.0"
        assert hasattr(repro, "DALIA")
        assert hasattr(repro, "make_dataset")
