"""Symbolic-once / numeric-batched assembly (the ISSUE 5 tentpole).

Contracts under test:

- the plan's values agree with the historical scipy-sparse assembly
  (``tests.oracle.assembly.assemble_reference``) to 1e-10 relative — the independent
  cross-check of the term/coefficient decomposition,
- ``assemble_batch`` is bit-identical to looped ``assemble`` at every
  theta (shared numeric core),
- every feasible theta's assembled pattern is a subset of the reference
  pattern (property test), with a clear error for escapes,
- infeasible thetas are screened by the coefficient check, matching the
  configurations for which ``assemble`` raises,
- stencil batches perform **zero** ``sp.kron`` / CSR-add calls after
  plan construction (monkeypatch assertion on the evaluator hot path),
- the workspace reuses theta-first stacks across batches.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.model.assembler import AssemblyWorkspace
from repro.model.datasets import make_dataset
from tests.oracle.assembly import assemble_reference


@pytest.fixture(scope="module")
def models():
    uni = make_dataset(nv=1, ns=20, nt=5, nr=2, obs_per_step=25, seed=5)
    tri = make_dataset(nv=3, ns=10, nt=4, nr=2, obs_per_step=15, seed=11)
    return {"uni": uni, "tri": tri}


def _rel_err(a, b):
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


class TestPlanMatchesSparseReference:
    @pytest.mark.parametrize("name", ["uni", "tri"])
    def test_assemble_matches_reference(self, models, name):
        """Plan values vs the kron/CSR-add reference path: 1e-10."""
        model, gt, _ = models[name]
        for dt in (0.0, 0.15, -0.25):
            new = model.assemble(gt.theta + dt)
            ref = assemble_reference(model, gt.theta + dt)
            for attr in ("diag", "lower", "arrow", "tip"):
                assert _rel_err(getattr(new.qp, attr), getattr(ref.qp, attr)) < 1e-10
                assert _rel_err(getattr(new.qc, attr), getattr(ref.qc, attr)) < 1e-10
            assert _rel_err(new.rhs, ref.rhs) < 1e-10
            assert _rel_err(new.qp_csr.toarray(), ref.qp_csr.toarray()) < 1e-10
            assert np.array_equal(new.taus, ref.taus)

    def test_assemble_sparse_shares_plan_values(self, models):
        """The sparse baseline rides the same value core as assemble."""
        model, gt, _ = models["tri"]
        qp, qc, rhs, taus = model.assemble_sparse(gt.theta)
        sys = model.assemble(gt.theta)
        p = model.permutation.perm.perm
        assert _rel_err(sys.qc.to_dense(), qc.toarray()[np.ix_(p, p)]) < 1e-12
        assert np.array_equal(rhs[p], sys.rhs)
        ref = model.likelihood.information_vector(model.A, taus)
        assert _rel_err(rhs, ref) < 1e-10


class TestBatchedLoopedBitIdentity:
    @pytest.mark.parametrize("name", ["uni", "tri"])
    def test_stencil_grid_bit_identical(self, models, name):
        """Batch stacks equal looped assemble bit-for-bit on a theta grid."""
        model, gt, _ = models[name]
        ws = AssemblyWorkspace()
        for d in (2, 4):
            grid = np.stack(
                [gt.theta + s * np.eye(model.layout.dim)[k % model.layout.dim]
                 for k, s in enumerate([0.0] + [0.1, -0.1] * d)]
            )
            batch = model.assemble_batch(grid, workspace=ws)
            assert batch.t == grid.shape[0]
            for i in range(batch.t):
                sys = model.assemble(grid[i])
                assert np.array_equal(batch.qp.diag[i], sys.qp.diag)
                assert np.array_equal(batch.qp.lower[i], sys.qp.lower)
                assert np.array_equal(batch.qp.arrow[i], sys.qp.arrow)
                assert np.array_equal(batch.qp.tip[i], sys.qp.tip)
                assert np.array_equal(batch.qc.diag[i], sys.qc.diag)
                assert np.array_equal(batch.qc.lower[i], sys.qc.lower)
                assert np.array_equal(batch.qc.arrow[i], sys.qc.arrow)
                assert np.array_equal(batch.qc.tip[i], sys.qc.tip)
                assert np.array_equal(batch.rhs[i], sys.rhs)
                view = batch.system(i)
                assert np.array_equal(view.qp_csr.data, sys.qp_csr.data)
                assert np.array_equal(view.taus, sys.taus)

    def test_prior_grid_zero_lambda(self, models):
        """lambda = 0 shrinks the numeric pattern; the plan absorbs it."""
        model, gt, _ = models["tri"]
        theta = gt.theta.copy()
        theta[model.layout.lambda_slice()] = 0.0
        batch = model.assemble_batch(np.stack([gt.theta, theta]))
        sys = model.assemble(theta)
        assert np.array_equal(batch.qp.diag[1], sys.qp.diag)
        assert np.isfinite(sys.qp.frobenius_norm())


class TestPatternSubsetProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
    def test_feasible_theta_pattern_subset_uni(self, deltas):
        """Every feasible theta's sparse pattern fits the reference
        pattern (alignment succeeds) and the plan reproduces its values."""
        model, gt, _ = _UNI
        theta = gt.theta + np.array(deltas)
        try:
            sys = model.assemble(theta)
        except ValueError:
            return  # infeasible configurations raise; nothing to check
        aligned = model._align_p.align(model._joint_prior(theta))
        qp, _, _, _ = model.assemble_sparse(theta)
        assert _rel_err(qp.data, aligned.data) < 1e-10
        assert np.isfinite(sys.qp.frobenius_norm())

    def test_pattern_escape_raises_clearly(self, models):
        model, _, _ = models["uni"]
        with pytest.raises(ValueError, match="outside the reference pattern"):
            model._align_p.slots_of(np.array([0]), np.array([model.N - 1]))


class TestInfeasibleScreening:
    def test_screen_matches_assemble_raise(self, models):
        """assemble_batch's coefficient screen flags exactly the thetas
        for which assemble raises."""
        model, gt, _ = models["uni"]
        lay = model.layout
        bad_range = gt.theta.copy()
        bad_range[lay.range_slice(0)] = 1000.0  # sigma0 overflow regime
        nonfinite = gt.theta.copy()
        nonfinite[0] = np.nan
        thetas = np.stack([gt.theta, bad_range, nonfinite, gt.theta + 0.05])
        batch = model.assemble_batch(thetas)
        assert list(batch.feasible) == [0, 3]
        for j in (1, 2):
            with pytest.raises(ValueError):
                model.assemble(thetas[j])

    def test_all_infeasible_batch_is_empty(self, models):
        model, gt, _ = models["uni"]
        bad = gt.theta.copy()
        bad[model.layout.range_slice(0)] = 1000.0
        batch = model.assemble_batch(np.stack([bad, bad]))
        assert batch.t == 0 and batch.qp is None


class TestNoSparseOpsInHotLoop:
    def test_stencil_batch_runs_no_kron_or_csr_add(self, models, monkeypatch):
        """After plan construction, a full gradient stencil through the
        evaluator's batch path must not touch sp.kron or sparse adds."""
        from repro.inla.evaluator import FobjEvaluator

        model, gt, _ = models["uni"]
        ev = FobjEvaluator(model, batch_stencils=True, cache_size=0)

        def boom(*a, **k):
            raise AssertionError("scipy sparse arithmetic in the stencil hot loop")

        monkeypatch.setattr(sp, "kron", boom)
        monkeypatch.setattr(sp.csr_matrix, "__add__", boom)
        monkeypatch.setattr(sp.csr_matrix, "__sub__", boom)
        monkeypatch.setattr(sp.csr_matrix, "multiply", boom)
        f0, grad, _ = ev.value_and_gradient(gt.theta)
        assert np.isfinite(f0) and np.all(np.isfinite(grad))
        assert ev.n_batch_sweeps == 2

    def test_looped_assemble_runs_no_kron_or_csr_add(self, models, monkeypatch):
        """The rewritten t = 1 assemble is sparse-arithmetic-free too."""
        model, gt, _ = models["tri"]

        def boom(*a, **k):
            raise AssertionError("scipy sparse arithmetic in assemble")

        monkeypatch.setattr(sp, "kron", boom)
        monkeypatch.setattr(sp.csr_matrix, "__add__", boom)
        sys = model.assemble(gt.theta)
        assert np.isfinite(sys.qp.frobenius_norm())


class TestAssemblyWorkspace:
    def test_stacks_reused_across_batches(self, models):
        model, gt, _ = models["uni"]
        ws = AssemblyWorkspace()
        thetas = np.stack([gt.theta + 0.02 * k for k in range(5)])
        b1 = model.assemble_batch(thetas, workspace=ws)
        d1 = b1.qp.diag
        b2 = model.assemble_batch(thetas + 0.01, workspace=ws)
        assert np.shares_memory(d1, b2.qp.diag)
        # Smaller batches reuse a head view of the grown buffers.
        b3 = model.assemble_batch(thetas[:2], workspace=ws)
        assert b3.qp.t == 2
        assert np.shares_memory(b3.qp.diag, d1)
        sys = model.assemble(thetas[0])
        assert np.array_equal(b3.qp.diag[0], sys.qp.diag)

    def test_fresh_alloc_default(self, models):
        model, gt, _ = models["uni"]
        thetas = np.stack([gt.theta, gt.theta + 0.02])
        b1 = model.assemble_batch(thetas)
        b2 = model.assemble_batch(thetas)
        assert not np.shares_memory(b1.qp.diag, b2.qp.diag)
        assert np.array_equal(b1.qp.diag, b2.qp.diag)


class TestAccounting:
    def test_plan_flop_and_byte_model(self, models):
        model, _, _ = models["tri"]
        plan = model.plan
        assert plan.flops(1) > 0 and plan.bytes_moved(1) > 0
        # Linear-in-t identity: batched assembly amortizes dispatch, not
        # arithmetic (the contract every counter in flops.py enforces).
        assert plan.flops(7) == 7 * plan.flops(1)
        assert plan.bytes_moved(7) == 7 * plan.bytes_moved(1)


_UNI = make_dataset(nv=1, ns=20, nt=5, nr=2, obs_per_step=25, seed=5)
