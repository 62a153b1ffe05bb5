"""A fit's answer does not depend on how many threads ran it.

BLAS is pinned to one thread at import (``repro.backend.threads``), so
every objective evaluation computes the same bits on whichever thread the
evaluator's executor runs it.  A Gaussian fit on the pooled per-point
path must then return a bit-identical mode across S1 widths, S2
concurrency and CPU budgets.
"""

import itertools

import numpy as np
import pytest

from repro.backend import threads
from repro.inla import DALIA
from repro.inla.bfgs import BFGSOptions
from repro.model.datasets import make_dataset


@pytest.fixture(scope="module")
def small_model():
    model, _, _ = make_dataset(nv=1, ns=12, nt=3, nr=1, obs_per_step=20, seed=3)
    return model


def _fit(model, s1_workers, s2_parallel):
    engine = DALIA(model, s1_workers=s1_workers, s2_parallel=s2_parallel, batch_stencils=False)
    res = engine.fit(options=BFGSOptions(max_iter=30), compute_latent=False)
    return engine.evaluator, res


def test_mode_bit_identical_across_workers_and_budgets(small_model, monkeypatch):
    ref_ev, ref = _fit(small_model, 1, False)
    assert ref_ev.s1_width == 1 and np.isfinite(ref.fobj_mode)
    widths = set()
    for budget, s1, s2 in itertools.product((1, 2, 4), (1, 2, 8), (False, True)):
        monkeypatch.setattr(threads, "cpu_budget", lambda budget=budget: budget)
        ev, res = _fit(small_model, s1, s2)
        case = f"budget={budget} s1_workers={s1} s2_parallel={s2}"
        assert ev.s1_width == min(s1, max(1, budget // (2 if s2 else 1))), case
        assert res.fobj_mode == ref.fobj_mode, case
        assert np.array_equal(res.theta_mode, ref.theta_mode), case
        assert res.n_fobj_evaluations == ref.n_fobj_evaluations, case
        widths.add(ev.s1_width)
    # The grid really exercised serial, pooled and S2-concurrent paths.
    assert widths == {1, 2, 4}
