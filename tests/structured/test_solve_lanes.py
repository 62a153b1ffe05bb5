"""Multi-lane stacked solves: one collective round, per-lane bit-identity.

The lanes contract (PR 9 satellite): ``solve_stack_lanes`` /
``solve_lt_stack_lanes`` batch the reduced-system collectives of several
``(k_i, N)`` stacks into ONE Allreduce + Allgather round, while every
lane's GEMM sweeps run at its exact solo width — so the per-lane results
must be BIT-IDENTICAL to separate ``solve_stack`` calls, on the
sequential handle, the thread-backed distributed handle, and the
process-backed handle (proc-vs-threads bit-identity included) — and
within 1e-10 of the per-block oracle.
"""

import numpy as np
import pytest

from repro.serving.api import _sweep_grouped
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import d_factorize, d_factorize_proc, factorize
from tests import oracle

WIDTHS = (1, 5, 3)


def _case(n=8, b=4, a=2, seed=3):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    stacks = [rng.standard_normal((k, A.N)) for k in WIDTHS]
    return A, stacks


class TestSequentialLanes:
    def test_matches_per_lane_solve_stack(self):
        A, stacks = _case()
        f = factorize(A)
        for got, s in zip(f.solve_stack_lanes(stacks), stacks):
            assert np.array_equal(got, f.solve_stack(s))
        for got, s in zip(f.solve_lt_stack_lanes(stacks), stacks):
            assert np.array_equal(got, f.solve_lt_stack(s))


class TestDistributedLanes:
    @pytest.mark.parametrize("P", [2, 3])
    def test_threads_matches_per_lane(self, P):
        A, stacks = _case()
        f = d_factorize(A, P)
        ref = oracle.pobtaf(A)
        for got, s in zip(f.solve_stack_lanes(stacks), stacks):
            assert np.array_equal(got, f.solve_stack(s))
            assert np.allclose(got, oracle.pobtas(ref, s.T).T, atol=1e-10)
        for got, s in zip(f.solve_lt_stack_lanes(stacks), stacks):
            assert np.array_equal(got, f.solve_lt_stack(s))

    def test_proc_bitwise_matches_threads(self):
        A, stacks = _case()
        thr = d_factorize(A, 3)
        proc = d_factorize_proc(A, 3)
        try:
            for pg, tg in zip(proc.solve_stack_lanes(stacks), thr.solve_stack_lanes(stacks)):
                assert np.array_equal(pg, tg)
            for pg, tg in zip(
                proc.solve_lt_stack_lanes(stacks), thr.solve_lt_stack_lanes(stacks)
            ):
                assert np.array_equal(pg, tg)
        finally:
            proc.close()

    def test_single_lane_matches_solve_stack(self):
        A, stacks = _case()
        f = d_factorize(A, 2)
        (got,) = f.solve_stack_lanes(stacks[:1])
        assert np.array_equal(got, f.solve_stack(stacks[0]))

    def test_accuracy_vs_dense(self):
        A, stacks = _case()
        dense = A.to_dense()
        f = d_factorize(A, 2)
        for got, s in zip(f.solve_stack_lanes(stacks), stacks):
            np.testing.assert_allclose(got, np.linalg.solve(dense, s.T).T, atol=1e-9)


class TestSweepGroupedLanes:
    """``_sweep_grouped`` with a lanes sibling keeps composition-invariant
    bits: the lanes call collapses the collective rounds but runs exactly
    the jobs the per-job loop would have run."""

    @pytest.mark.parametrize("factory", [factorize, lambda A: d_factorize(A, 2)])
    def test_lanes_fn_bits_unchanged(self, factory):
        A, stacks = _case(seed=9)
        f = factory(A)
        plain = _sweep_grouped(f, stacks, f.solve_stack)
        laned = _sweep_grouped(f, stacks, f.solve_stack, f.solve_stack_lanes)
        for p, q in zip(plain, laned):
            assert np.array_equal(p, q)
        plain = _sweep_grouped(f, stacks, f.solve_lt_stack)
        laned = _sweep_grouped(f, stacks, f.solve_lt_stack, f.solve_lt_stack_lanes)
        for p, q in zip(plain, laned):
            assert np.array_equal(p, q)
