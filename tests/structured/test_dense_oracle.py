"""Every structured entry point against the dense ``np.linalg`` oracle.

The production (batched) solvers and the per-block reference of
``tests/oracle`` are each checked against plain LAPACK on the dense
matrix — ``cholesky``, ``slogdet``, ``solve`` and ``inv`` — over the
degenerate shapes (``n = 1``, ``a = 0``, scalar blocks, an arrow wider
than the blocks) and over the distributed pipeline at P = 2, 3.  The
matrices are strictly diagonally dominant, so 1e-10 absolute (relative
for ``log det``) leaves ample room over rounding.
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas
from repro.structured.pobtasi import pobtasi
from tests import oracle
from tests.oracle import dense

ATOL = 1e-10
SHAPES = [(4, 3, 2), (1, 5, 3), (1, 4, 0), (7, 2, 0), (3, 1, 1), (2, 4, 6), (6, 4, 3)]

#: impl -> (factorize, logdet, solve, selected inverse)
SEQUENTIAL = {
    "batched": (pobtaf, lambda chol: chol.logdet(), pobtas, pobtasi),
    "blocked": (oracle.pobtaf, oracle.logdet, oracle.pobtas, oracle.pobtasi),
}


def _case(n, b, a, seed=0):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, rng


@pytest.mark.parametrize("impl", sorted(SEQUENTIAL))
@pytest.mark.parametrize("n,b,a", SHAPES)
class TestSequentialVsDense:
    def test_cholesky(self, impl, n, b, a):
        A, _ = _case(n, b, a)
        chol = SEQUENTIAL[impl][0](A)
        assert np.max(np.abs(chol.to_dense() - dense.cholesky(A))) < ATOL

    def test_logdet(self, impl, n, b, a):
        A, _ = _case(n, b, a, seed=1)
        factorize, logdet, _, _ = SEQUENTIAL[impl]
        ref = dense.slogdet(A)
        assert abs(logdet(factorize(A)) - ref) <= ATOL * max(1.0, abs(ref))

    def test_solve(self, impl, n, b, a):
        A, rng = _case(n, b, a, seed=2)
        factorize, _, solve, _ = SEQUENTIAL[impl]
        rhs = rng.standard_normal((A.N, 3))
        assert np.max(np.abs(solve(factorize(A), rhs) - dense.solve(A, rhs))) < ATOL

    def test_selected_inverse(self, impl, n, b, a):
        A, _ = _case(n, b, a, seed=3)
        factorize, _, _, selinv = SEQUENTIAL[impl]
        X = selinv(factorize(A)).to_dense()
        assert np.max(np.abs(X - dense.selected_inverse(A))) < ATOL


@pytest.mark.parametrize("impl", ["batched", "blocked"])
@pytest.mark.parametrize("P", [2, 3])
@pytest.mark.parametrize("n,b,a", [(10, 3, 2), (9, 2, 0)])
def test_distributed_vs_dense(impl, P, n, b, a):
    """``d_pobtaf`` log det and ``d_pobtas`` solve against dense LAPACK."""
    A, rng = _case(n, b, a, seed=P)
    rhs = rng.standard_normal(A.N)
    slices = partition_matrix(A, P, lb=1.4)

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        rhs_local, rhs_tip = rhs[sl.part.start * b : sl.part.stop * b], rhs[n * b :]
        if impl == "blocked":
            f = oracle.d_pobtaf(sl, comm)
            return oracle.d_logdet(f, comm), *oracle.d_pobtas(f, rhs_local, rhs_tip, comm)
        f = d_pobtaf(sl, comm)
        return f.logdet(comm), *d_pobtas(f, rhs_local, rhs_tip, comm)

    out = run_spmd(P, rank_fn)
    ref = dense.slogdet(A)
    assert abs(out[0][0] - ref) <= ATOL * max(1.0, abs(ref))
    x = np.concatenate([o[1] for o in out] + [out[0][2]])
    assert np.max(np.abs(x - dense.solve(A, rhs))) < ATOL
