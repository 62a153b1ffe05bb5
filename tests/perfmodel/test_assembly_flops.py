"""Assembly flop/byte accounting (ISSUE 5 satellite).

Same contract as every other counter in ``flops.py``: batched and
looped assembly execute identical arithmetic, so the counts are linear
in the batch size and independent of the strategy keywords.
"""

from repro.model.datasets import make_dataset
from repro.perfmodel.flops import bta_assembly_bytes, bta_assembly_flops


class TestAssemblyCounts:
    def test_linear_in_theta_batch(self):
        one = bta_assembly_flops(3, 10, 150, 1600, 800, 500)
        assert bta_assembly_flops(3, 10, 150, 1600, 800, 500, n_theta=9) == 9 * one
        assert bta_assembly_bytes(5000, 5400, n_theta=9) == 9 * bta_assembly_bytes(5000, 5400)

    def test_strategy_keywords_do_not_change_counts(self):
        base = bta_assembly_flops(2, 8, 100, 900, 400, 300)
        assert bta_assembly_flops(2, 8, 100, 900, 400, 300, stacked=True) == base

    def test_plan_reports_its_own_shape(self):
        model, _, _ = make_dataset(nv=2, ns=10, nt=3, nr=1, obs_per_step=8, seed=2)
        plan = model.plan
        expected = bta_assembly_flops(
            plan.nv, plan.ntt, plan.nnz_s, plan.nnz_u, plan.gram_nnz, plan.N
        )
        assert plan.flops() == expected
        assert plan.flops(4) == 4 * expected
        assert plan.bytes_moved() == bta_assembly_bytes(plan.nnz_p, plan.nnz_c)
