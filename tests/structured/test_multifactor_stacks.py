"""Caller-owned stack input to ``factorize_batch`` (ISSUE 5 satellite).

The batch assembly path produces theta-first :class:`BTAStack` storage;
``factorize_batch`` must consume it without re-stacking, eliminate in
place under ``overwrite=True``, and produce results identical to the
sequence-of-matrices path.
"""

import numpy as np
import pytest

from repro.structured.bta import BTAMatrix, BTAShape, BTAStack
from repro.structured.factor import factorize
from repro.structured.multifactor import factorize_batch


def _mats(t=5, n=6, b=4, a=3, seed=3):
    rng = np.random.default_rng(seed)
    shape = BTAShape(n=n, b=b, a=a)
    return [BTAMatrix.random_spd(shape, rng) for _ in range(t)], shape, rng


class TestBTAStack:
    def test_from_matrices_roundtrip(self):
        mats, shape, _ = _mats()
        stack = BTAStack.from_matrices(mats)
        assert stack.t == len(mats) and stack.shape3 == shape
        for j, A in enumerate(mats):
            assert np.array_equal(stack.matrix(j).diag, A.diag)
            assert np.array_equal(stack.matrix(j).tip, A.tip)

    def test_matrix_views_share_storage(self):
        mats, shape, _ = _mats()
        stack = BTAStack.from_matrices(mats)
        assert np.shares_memory(stack.matrix(0).diag, stack.diag)

    def test_head_view(self):
        mats, _, _ = _mats()
        stack = BTAStack.from_matrices(mats)
        head = stack.head(2)
        assert head.t == 2 and np.shares_memory(head.diag, stack.diag)
        with pytest.raises(ValueError):
            stack.head(len(mats) + 1)

    def test_shape_mismatch_rejected(self):
        mats, _, rng = _mats()
        other = BTAMatrix.random_spd(BTAShape(n=6, b=5, a=3), rng)
        with pytest.raises(ValueError, match="share one BTA shape"):
            BTAStack.from_matrices(mats + [other])


class TestFactorizeBatchStacks:
    def test_stack_input_matches_sequence_input(self):
        mats, _, rng = _mats()
        stack = BTAStack.from_matrices(mats)
        fb_seq = factorize_batch(mats)
        fb_stack = factorize_batch(stack)
        assert np.array_equal(fb_seq.diag, fb_stack.diag)
        assert np.array_equal(fb_seq.lower, fb_stack.lower)
        assert np.array_equal(fb_seq.logdets(), fb_stack.logdets())
        rhs = rng.standard_normal((len(mats), mats[0].N))
        assert np.array_equal(fb_seq.solve_each(rhs), fb_stack.solve_each(rhs))

    def test_overwrite_false_preserves_stack(self):
        mats, _, _ = _mats()
        stack = BTAStack.from_matrices(mats)
        before = stack.diag.copy()
        fb = factorize_batch(stack)
        assert np.array_equal(stack.diag, before)
        assert not np.shares_memory(fb.diag, stack.diag)

    def test_overwrite_true_eliminates_in_place(self):
        mats, _, _ = _mats()
        stack = BTAStack.from_matrices(mats)
        fb = factorize_batch(stack, overwrite=True)
        # The factor owns the caller's storage: zero copies.
        assert np.shares_memory(fb.diag, stack.diag)
        assert np.shares_memory(fb.tip, stack.tip)
        # Values still match the per-theta handles.
        for j, A in enumerate(mats):
            f = factorize(A.copy())
            assert np.isclose(fb.factor(j).logdet(), f.logdet(), atol=1e-10)

    def test_per_theta_agreement(self):
        mats, _, rng = _mats(t=4)
        stack = BTAStack.from_matrices(mats)
        fb = factorize_batch(stack, overwrite=True)
        rhs = rng.standard_normal((4, mats[0].N))
        xs = fb.solve_each(rhs)
        for j, A in enumerate(mats):
            x_ref = factorize(A.copy()).solve(rhs[j])
            assert np.allclose(xs[j], x_ref, atol=1e-10)
