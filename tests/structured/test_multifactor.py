"""Theta-batched factorization: one sweep vs per-theta handles and oracle.

``factorize_batch`` must be bit-identical to the per-theta handles at any
``t`` (the chain runs the same per-slab operations), agree with the
looped per-block oracle (``tests/oracle``) to 1e-10, count exactly one
factorization sweep per call, and serve full per-theta ``BTAFactor``
views off the shared stacks with zero further ``pobtaf``.
"""

import numpy as np
import pytest

from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import factorize
from repro.errors import NotPositiveDefiniteError
from repro.structured.multifactor import factorize_batch
from repro.structured.pobtaf import FACTORIZATIONS
from tests import oracle


def _stencil(t=7, n=8, b=4, a=3, seed=42):
    """t same-shape SPD matrices with distinct values + per-theta RHS."""
    rng = np.random.default_rng(seed)
    shape = BTAShape(n=n, b=b, a=a)
    mats = [BTAMatrix.random_spd(shape, rng) for _ in range(t)]
    rhs = rng.standard_normal((t, shape.N))
    return mats, rhs


class TestAgainstPerTheta:
    def test_bit_identical_to_batched_handles(self):
        """Every theta slab runs the same ops as factorize()."""
        mats, rhs = _stencil()
        batch = factorize_batch([A.copy() for A in mats])
        lds = batch.logdets()
        xs = batch.solve_each(rhs)
        for j, A in enumerate(mats):
            f = factorize(A.copy())
            assert lds[j] == f.logdet()
            assert np.array_equal(xs[j], f.solve(rhs[j]))

    def test_matches_looped_reference_path(self):
        """1e-10 agreement with the looped per-block oracle."""
        mats, rhs = _stencil()
        batch = factorize_batch([A.copy() for A in mats])
        lds = batch.logdets()
        xs = batch.solve_each(rhs)
        for j, A in enumerate(mats):
            chol = oracle.pobtaf(A)
            ld = oracle.logdet(chol)
            assert abs(lds[j] - ld) < 1e-10 * max(1.0, abs(ld))
            assert np.max(np.abs(xs[j] - oracle.pobtas(chol, rhs[j]))) < 1e-10

    def test_single_theta_bit_identical(self):
        """t = 1 is bit-for-bit the sequential path."""
        mats, rhs = _stencil(t=1)
        batch = factorize_batch([mats[0].copy()])
        f = factorize(mats[0].copy())
        assert batch.logdets()[0] == f.logdet()
        assert np.array_equal(batch.solve_each(rhs[:1])[0], f.solve(rhs[0]))
        v = batch.factor(0)
        assert np.array_equal(v.selected_inverse_diagonal(), f.selected_inverse_diagonal())

    def test_bt_no_arrow(self):
        """a = 0 (the prior Qp shape) runs the chain without arrow work."""
        mats, rhs = _stencil(t=5, a=0)
        batch = factorize_batch([A.copy() for A in mats])
        lds = batch.logdets()
        xs = batch.solve_each(rhs)
        assert batch.arrow_flat is None
        for j, A in enumerate(mats):
            f = factorize(A.copy())
            assert lds[j] == f.logdet()
            assert np.array_equal(xs[j], f.solve(rhs[j]))

    def test_single_block_chain(self):
        mats, rhs = _stencil(t=3, n=1, b=5, a=2)
        batch = factorize_batch([A.copy() for A in mats])
        for j, A in enumerate(mats):
            f = factorize(A.copy())
            assert batch.logdets()[j] == f.logdet()
            assert np.array_equal(batch.solve_each(rhs)[j], f.solve(rhs[j]))

    def test_dense_ground_truth(self):
        mats, rhs = _stencil(t=4, n=6, b=3, a=2)
        batch = factorize_batch(mats)
        xs = batch.solve_each(rhs)
        for j, A in enumerate(mats):
            Ad = A.to_dense()
            assert np.isclose(batch.logdets()[j], np.linalg.slogdet(Ad)[1])
            assert np.allclose(Ad @ xs[j], rhs[j], atol=1e-9)


class TestPerThetaViews:
    def test_views_share_storage_and_serve_everything(self):
        mats, rhs = _stencil(t=4)
        batch = factorize_batch(mats)
        refs = [factorize(A.copy()) for A in mats]
        c0 = FACTORIZATIONS.count
        for j in range(batch.t):
            v = batch.factor(j)
            ref = refs[j]
            assert v.logdet() == ref.logdet()
            assert np.array_equal(v.solve(rhs[j]), ref.solve(rhs[j]))
            assert np.array_equal(
                v.selected_inverse_diagonal(), ref.selected_inverse_diagonal()
            )
            assert v.sample(3, np.random.default_rng(7)).shape == (3, batch.N)
            # zero-copy: the view's factor blocks alias the shared stacks
            assert np.shares_memory(v.chol.factor.diag, batch.diag)
            assert np.shares_memory(v.chol.factor.lower, batch.lower)
        # views never refactorize
        assert FACTORIZATIONS.count == c0
        assert batch.factor(1) is batch.factor(1)  # cached
        assert batch.factor(-1) is batch.factor(batch.t - 1)

    def test_factors_list(self):
        mats, _ = _stencil(t=3)
        batch = factorize_batch(mats)
        assert len(batch.factors()) == 3
        assert len(batch) == 3


class TestAccounting:
    def test_one_sweep_per_batch(self):
        mats, _ = _stencil(t=7)
        c0 = FACTORIZATIONS.count
        factorize_batch(mats)
        assert FACTORIZATIONS.count == c0 + 1  # one sweep, not t

    def test_inputs_not_modified(self):
        mats, _ = _stencil(t=3)
        pristine = [A.copy() for A in mats]
        factorize_batch(mats)
        for A, P in zip(mats, pristine):
            assert np.array_equal(A.diag, P.diag)
            assert np.array_equal(A.tip, P.tip)


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            factorize_batch([])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        A = BTAMatrix.random_spd(BTAShape(n=4, b=3, a=1), rng)
        B = BTAMatrix.random_spd(BTAShape(n=4, b=4, a=1), rng)
        with pytest.raises(ValueError):
            factorize_batch([A, B])

    def test_not_positive_definite_raises(self):
        mats, _ = _stencil(t=3)
        mats[1].diag[2] -= 1e4 * np.eye(mats[1].b)  # poison one theta
        with pytest.raises(NotPositiveDefiniteError):
            factorize_batch(mats)

    def test_rhs_shape_checked(self):
        mats, _ = _stencil(t=3)
        batch = factorize_batch(mats)
        with pytest.raises(ValueError):
            batch.solve_each(np.zeros((2, batch.N)))
        with pytest.raises(IndexError):
            batch.factor(5)
