"""Theta-batched stencil sweeps + the theta-keyed LRU on FobjEvaluator.

The batch path must reproduce the per-point stencil values exactly (it
runs the same per-slab kernels through ``factorize_batch``), collapse the
stencil's ``2 (2 d + 1)`` factorization sweeps into 2, fall back to the
per-point path for infeasible batches, and never bypass subclassed
engines.  The LRU must serve revisited thetas with zero assemblies and
zero sweeps — the BFGS line-search / gradient-center pattern.
"""

import numpy as np
import pytest

from repro.inla.evaluator import FobjEvaluator
from repro.inla.smart_gradient import SmartGradient
from repro.inla.solvers import DistributedSolver
from repro.structured.pobtaf import FACTORIZATIONS


@pytest.fixture(scope="module")
def uni_model():
    from repro.model.datasets import make_dataset

    model, gt, _ = make_dataset(nv=1, ns=20, nt=5, nr=2, obs_per_step=25, seed=5)
    return model, gt


def _evaluators(model, **kwargs):
    batch = FobjEvaluator(model, batch_stencils=True, cache_size=0, **kwargs)
    point = FobjEvaluator(model, batch_stencils=False, cache_size=0, **kwargs)
    return batch, point


class TestBatchedStencilValues:
    def test_gradient_stencil_identical(self, uni_model):
        """Batched vs per-theta stencil values (the 1e-10 / bit-identity
        acceptance gate; exact in practice since both run the same
        kernels per slab).  The *gradient* tolerance is the value
        agreement amplified by the central difference's 1/(2h)."""
        h = 1e-4
        model, gt = uni_model
        ev_b, ev_p = _evaluators(model)
        f_b, g_b, _ = ev_b.value_and_gradient(gt.theta, h=h)
        f_p, g_p, _ = ev_p.value_and_gradient(gt.theta, h=h)
        assert abs(f_b - f_p) < 1e-10 * max(1.0, abs(f_p))
        assert np.max(np.abs(g_b - g_p)) < 1e-10 / (2 * h) * max(1.0, np.max(np.abs(g_p)))

    def test_result_decomposition_identical(self, uni_model):
        """Every Eq. 8 term of every stencil point matches, not just the sum."""
        model, gt = uni_model
        ev_b, ev_p = _evaluators(model)
        pts = ev_b.gradient_stencil(gt.theta, 1e-4)
        for rb, rp in zip(ev_b.eval_batch(pts), ev_p.eval_batch(pts)):
            for attr in ("value", "log_likelihood", "logdet_qp", "logdet_qc", "quad_qp"):
                vb, vp = getattr(rb, attr), getattr(rp, attr)
                assert abs(vb - vp) <= 1e-10 * max(1.0, abs(vp)), attr

    def test_smart_gradient_rides_batch_path(self, uni_model):
        model, gt = uni_model
        ev_b, ev_p = _evaluators(model)
        g_b = SmartGradient(ev_b).value_and_gradient(gt.theta)[1]
        g_p = SmartGradient(ev_p).value_and_gradient(gt.theta)[1]
        assert np.allclose(g_b, g_p, atol=1e-10)

    def test_infeasible_point_falls_back(self, uni_model):
        """A stencil containing an infeasible theta resolves per point:
        that point goes -inf, the others keep their batch-path values."""
        model, gt = uni_model
        ev_b, ev_p = _evaluators(model)
        bad = gt.theta.copy()
        bad[0] = 200.0  # exp overflow in assembly or NPD in factorization
        pts = [gt.theta, bad, gt.theta + 0.1]
        res_b = ev_b.eval_batch(pts)
        res_p = ev_p.eval_batch(pts)
        for rb, rp in zip(res_b, res_p):
            if np.isfinite(rp.value):
                assert abs(rb.value - rp.value) < 1e-10 * max(1.0, abs(rp.value))
            else:
                assert rb.value == -np.inf

    def test_npd_batch_falls_back_to_per_point(self, uni_model, monkeypatch):
        """A non-positive-definite stack cannot name the failing theta;
        the evaluator must resolve the batch on the per-point path."""
        import repro.inla.evaluator as ev_mod
        from repro.errors import NotPositiveDefiniteError

        model, gt = uni_model

        def poisoned(mats, **kwargs):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(ev_mod, "factorize_batch", poisoned)
        ev_b = FobjEvaluator(model, batch_stencils=True, cache_size=0)
        ev_p = FobjEvaluator(model, batch_stencils=False, cache_size=0)
        f_b, g_b, _ = ev_b.value_and_gradient(gt.theta)
        f_p, g_p, _ = ev_p.value_and_gradient(gt.theta)
        assert f_b == f_p  # both resolved per-point: bit-identical
        assert np.array_equal(g_b, g_p)
        assert ev_b.n_batch_sweeps == 0


class TestSweepAccounting:
    def test_chunked_sweep_matches_and_counts(self, uni_model, monkeypatch):
        """Hessian-sized batches sweep in chunks (bounded theta-stack
        memory): values unchanged, two sweeps per chunk."""
        import repro.inla.evaluator as ev_mod

        monkeypatch.setattr(ev_mod, "_BATCH_SWEEP_CHUNK", 3)
        model, gt = uni_model
        ev_b, ev_p = _evaluators(model)
        pts = ev_b.gradient_stencil(gt.theta, 1e-4)  # 9 points -> 3 chunks
        res_b = ev_b.eval_batch(list(pts))
        res_p = ev_p.eval_batch(list(pts))
        for rb, rp in zip(res_b, res_p):
            assert abs(rb.value - rp.value) < 1e-10 * max(1.0, abs(rp.value))
        assert ev_b.n_batch_sweeps == 6

    def test_two_sweeps_per_stencil(self, uni_model):
        model, gt = uni_model
        ev, _ = _evaluators(model)
        c0 = FACTORIZATIONS.count
        ev.value_and_gradient(gt.theta)
        assert FACTORIZATIONS.count == c0 + 2  # one batched sweep per matrix
        assert ev.n_batch_sweeps == 2

    def test_distributed_solver_keeps_per_point_path(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model, solver=DistributedSolver(2))
        assert not ev._batch_capable()

    def test_subclass_engines_keep_their_objective(self, uni_model):
        """An overridden _eval_one (baseline engines) disables batching —
        the sweep would silently bypass the subclass's objective."""
        model, _ = uni_model

        class Custom(FobjEvaluator):
            def _eval_one(self, theta):  # pragma: no cover - definition only
                raise AssertionError

        assert not Custom(model)._batch_capable()


class TestThetaKeyedLRU:
    def test_revisit_skips_pobtaf_entirely(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model)
        r1 = ev(gt.theta)
        c0 = FACTORIZATIONS.count
        r2 = ev(gt.theta)
        assert r2 is r1
        assert FACTORIZATIONS.count == c0  # zero sweeps on the hit
        assert ev.n_cache_hits == 1

    def test_line_search_then_gradient_center_cached(self, uni_model):
        """The BFGS pattern: the accepted line-search point becomes the
        stencil center — only the 2d displaced points are swept."""
        model, gt = uni_model
        ev = FobjEvaluator(model, batch_stencils=True)
        center = ev(gt.theta)  # the line-search evaluation
        c0 = FACTORIZATIONS.count
        f0, _, res = ev.value_and_gradient(gt.theta)
        assert FACTORIZATIONS.count == c0 + 2  # the 2d points, two sweeps
        assert res is center
        assert f0 == center.value

    def test_recent_entries_retain_qc_factor(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model, cached_factors=2)
        thetas = [gt.theta, gt.theta + 0.05, gt.theta + 0.1]
        for t in thetas:
            ev(t)
        # only the newest `cached_factors` entries keep their handle
        assert ev.cached_factor(thetas[0]) is None
        f1, f2 = ev.cached_factor(thetas[1]), ev.cached_factor(thetas[2])
        assert f1 is not None and f2 is not None
        # the retained handle is the Qc factorization at that theta
        assert f2.logdet() == ev(thetas[2]).logdet_qc

    def test_lru_eviction_bound(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model, cache_size=2)
        for k in range(4):
            ev(gt.theta + 0.01 * k)
        assert len(ev._cache) == 2
        c0 = FACTORIZATIONS.count
        ev(gt.theta + 0.03)  # still cached (most recent)
        assert FACTORIZATIONS.count == c0
        ev(gt.theta)  # evicted -> re-evaluates
        assert FACTORIZATIONS.count == c0 + 2

    def test_cache_disabled(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model, cache_size=0)
        ev(gt.theta)
        c0 = FACTORIZATIONS.count
        ev(gt.theta)
        assert FACTORIZATIONS.count == c0 + 2
        assert ev.n_cache_hits == 0

    def test_clear_cache(self, uni_model):
        model, gt = uni_model
        ev = FobjEvaluator(model)
        ev(gt.theta)
        ev.clear_cache()
        c0 = FACTORIZATIONS.count
        ev(gt.theta)
        assert FACTORIZATIONS.count == c0 + 2


class TestModeFactorReuse:
    def test_latent_posterior_from_cached_factor(self, uni_model):
        """A retained line-search handle builds the mode posterior with
        zero further factorization sweeps, and identical results."""
        from repro.inla.sampling import LatentPosterior

        model, gt = uni_model
        ev = FobjEvaluator(model)
        ev(gt.theta)  # line-search style single evaluation retains Qc
        f = ev.cached_factor(gt.theta)
        assert f is not None
        c0 = FACTORIZATIONS.count
        post = LatentPosterior.at(model, gt.theta, factor=f)
        assert FACTORIZATIONS.count == c0  # zero sweeps
        assert post.factor is f
        post_fresh = LatentPosterior.at(model, gt.theta)
        assert np.array_equal(post.mean(), post_fresh.mean())
        assert np.array_equal(post.marginals().sd, post_fresh.marginals().sd)

    def test_fit_passes_cached_mode_factor(self, uni_model, monkeypatch):
        """The real DALIA flow: the final accepted line-search handle is
        captured before the Hessian batch floods the LRU and reaches the
        mode posterior."""
        from repro.inla.bfgs import BFGSOptions
        from repro.inla.dalia import DALIA
        from repro.inla.sampling import LatentPosterior

        captured = {}
        orig = LatentPosterior.at.__func__

        def spy(cls, model, theta, **kwargs):
            captured["factor"] = kwargs.get("factor")
            return orig(cls, model, theta, **kwargs)

        monkeypatch.setattr(LatentPosterior, "at", classmethod(spy))
        model, gt = uni_model
        engine = DALIA(model)
        res = engine.fit(theta0=gt.theta + 0.3, options=BFGSOptions(max_iter=3))
        assert captured["factor"] is not None
        # The retained handle is Qc(theta_mode): same assembly, same
        # factorization -> bit-identical logdet.
        from repro.inla.objective import evaluate_fobj

        assert captured["factor"].logdet() == evaluate_fobj(model, res.theta_mode).logdet_qc

    def test_stencil_batches_do_not_retain_factors(self, uni_model):
        """Only single-point evaluations retain handles — a pooled or
        batched stencil never holds per-point factorizations alive."""
        model, gt = uni_model
        for batch in (True, False):
            ev = FobjEvaluator(model, batch_stencils=batch)
            pts = ev.gradient_stencil(gt.theta, 1e-4)
            ev.eval_batch(list(pts))
            with ev._cache_lock:
                assert all(r.qc_factor is None for r in ev._cache.values())


class TestEndToEnd:
    def test_fit_identical_across_paths(self, uni_model):
        """Three BFGS iterations on the batch path land exactly where the
        per-point path lands (same values -> same optimizer trajectory)."""
        from repro.inla.bfgs import BFGSOptions, bfgs_minimize

        model, gt = uni_model
        opts = BFGSOptions(max_iter=3)
        ev_b = FobjEvaluator(model, batch_stencils=True)
        ev_p = FobjEvaluator(model, batch_stencils=False, cache_size=0)
        res_b = bfgs_minimize(ev_b, gt.theta + 0.3, opts)
        res_p = bfgs_minimize(ev_p, gt.theta + 0.3, opts)
        assert np.allclose(res_b.theta, res_p.theta, atol=1e-9)
        assert np.isclose(res_b.fobj, res_p.fobj, atol=1e-9)
