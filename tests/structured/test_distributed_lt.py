"""Distributed backward-only solve ``d_pobtas_lt`` (the S3 sampling sweep).

``L`` is the nested-dissection factor of the *permuted* matrix, so the
solutions differ entry-by-entry from the sequential ``pobtas_lt`` — the
contract is covariance-exactness: ``M = L^{-T}`` (applied columnwise to
the identity) must satisfy ``M M^T = A^{-1}``, and every draw must
satisfy the quadratic-form identity ``x^T A x = z^T z`` (because
``z = L^T x`` and the permutation preserves norms).
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas_lt
from repro.structured.multirhs import d_pobtas_lt_stack
from tests import oracle


def _oracle_lt_stack(f, stack_local, stack_tip, comm):
    xl, xt = oracle.d_pobtas_lt(f, stack_local.T, stack_tip.T, comm)
    return xl.T, xt.T


#: impl -> (factorization, row-major stacked L^T solve)
IMPLS = {
    "batched": (d_pobtaf, d_pobtas_lt_stack),
    "oracle": (oracle.d_pobtaf, _oracle_lt_stack),
}


def _solve_lt(A, P, stack, *, impl="batched", lb=1.6):
    """Columns of ``stack`` (k, N) through the stacked ``L^T`` solve on P ranks."""
    slices = partition_matrix(A, P, lb=lb)
    n, b = A.n, A.b
    factorize, solve_lt = IMPLS[impl]

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = factorize(sl, comm)
        return solve_lt(f, stack[:, sl.part.start * b : sl.part.stop * b], stack[:, n * b :], comm)

    out = run_spmd(P, rank_fn)
    return np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)


@pytest.mark.parametrize("impl", ["oracle", "batched"])
@pytest.mark.parametrize("P", [2, 3])
@pytest.mark.parametrize("shape", [(7, 3, 2), (6, 2, 0), (10, 3, 4)])
def test_covariance_identity(shape, P, impl, rng):
    """``L^{-T}`` applied to I gives M with ``M M^T = A^{-1}`` exactly,
    for the production path and for the per-block oracle."""
    n, b, a = shape
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    Ad = A.to_dense()
    M = _solve_lt(A, P, np.eye(A.N), impl=impl).T  # columns of L^{-T}
    assert np.allclose(M @ M.T, np.linalg.inv(Ad), atol=1e-10)


@pytest.mark.parametrize("P", [2, 3])
def test_quadratic_form_identity(P, rng):
    A = BTAMatrix.random_spd(BTAShape(n=9, b=3, a=2), rng)
    Ad = A.to_dense()
    Z = rng.standard_normal((5, A.N))
    X = _solve_lt(A, P, Z)
    assert np.allclose(
        np.einsum("kn,nm,km->k", X, Ad, X), np.einsum("kn,kn->k", Z, Z)
    )


@pytest.mark.parametrize("impl", ["oracle", "batched"])
def test_stack_matches_looped(impl, rng):
    """One stacked pass equals per-RHS ``L^T`` solves (1e-12; the only
    difference is GEMV-vs-GEMM low bits on the panel operands), looped
    through the production ``d_pobtas_lt`` or the per-block oracle."""
    A = BTAMatrix.random_spd(BTAShape(n=8, b=3, a=2), rng)
    P, n, b = 2, A.n, A.b
    Z = rng.standard_normal((4, A.N))
    stacked = _solve_lt(A, P, Z)
    slices = partition_matrix(A, P, lb=1.6)
    factorize = IMPLS[impl][0]
    solve_lt = d_pobtas_lt if impl == "batched" else oracle.d_pobtas_lt

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = factorize(sl, comm)
        cols = [
            solve_lt(f, Z[j, sl.part.start * b : sl.part.stop * b], Z[j, n * b :], comm)
            for j in range(Z.shape[0])
        ]
        return np.stack([c[0] for c in cols]), np.stack([c[1] for c in cols])

    out = run_spmd(P, rank_fn)
    looped = np.concatenate([o[0] for o in out] + [out[0][1]], axis=1)
    assert np.max(np.abs(stacked - looped)) < 1e-12


def test_vector_rhs_squeeze(rng):
    """A 1-D rhs round-trips as a k=1 stack (same squeeze contract)."""
    A = BTAMatrix.random_spd(BTAShape(n=8, b=3, a=2), rng)
    Ad = A.to_dense()
    z = rng.standard_normal(A.N)
    x = _solve_lt(A, 2, z[None, :])[0]
    slices = partition_matrix(A, 2, lb=1.6)

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = d_pobtaf(sl, comm)
        return d_pobtas_lt(
            f, z[sl.part.start * A.b : sl.part.stop * A.b], z[A.n * A.b :], comm
        )

    out = run_spmd(2, rank_fn)
    x1 = np.concatenate([o[0] for o in out] + [out[0][1]])
    assert x1.shape == (A.N,)
    assert np.max(np.abs(x1 - x)) < 1e-12
    assert np.isclose(x1 @ Ad @ x1, z @ z)
