"""Factorization handles: handle/legacy equivalence and amortization.

The handle API (``factorize`` / ``BTAFactor`` / ``DistributedBTAFactor``)
must be **bit-identical** to the legacy one-shot solver surface (the
one-shot methods are thin factorize-then-call wrappers), must perform
exactly one ``pobtaf`` per handle, and must keep its caches and reused
workspaces invisible to callers.
"""

import numpy as np
import pytest

from repro.inla.solvers import DistributedSolver, SequentialSolver
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import d_factorize, factorize
from repro.structured.pobtaf import FACTORIZATIONS, pobtaf
from repro.structured.pobtasi import (
    pobtasi,
    pobtasi_with_solve,
    selected_inverse_diagonal,
    solve_and_selected_inverse_diagonal,
)
from tests import oracle

ATOL = 1e-10


def _case(n=10, b=3, a=2, seed=7):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, A.to_dense(), rng


@pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
class TestHandleLegacyEquivalence:
    """factorize(A).<op>() bit-identical to the one-shot API, and within
    1e-10 of the per-block oracle.

    These are the deprecated wrappers' own equivalence tests, so they opt
    back out of the repo-wide warning-as-error escalation."""

    def test_logdet(self):
        A, Ad, _ = _case()
        sv = SequentialSolver()
        assert sv.factorize(A.copy()).logdet() == sv.logdet(A.copy())
        assert np.isclose(sv.factorize(A.copy()).logdet(), np.linalg.slogdet(Ad)[1])
        assert np.isclose(sv.logdet(A.copy()), oracle.logdet(oracle.pobtaf(A)), atol=ATOL)

    def test_solve(self):
        A, Ad, rng = _case()
        rhs = rng.standard_normal(A.N)
        sv = SequentialSolver()
        f = sv.factorize(A.copy())
        ld, x = sv.logdet_and_solve(A.copy(), rhs)
        assert f.logdet() == ld
        assert (f.solve(rhs) == x).all()
        assert np.allclose(Ad @ x, rhs)
        assert np.allclose(x, oracle.pobtas(oracle.pobtaf(A), rhs), atol=ATOL)

    def test_selected_inverse_diagonal(self):
        A, Ad, _ = _case()
        sv = SequentialSolver()
        d_handle = sv.factorize(A.copy()).selected_inverse_diagonal()
        d_oneshot = sv.selected_inverse_diagonal(A.copy())
        assert (d_handle == d_oneshot).all()
        assert np.allclose(d_handle, np.diag(np.linalg.inv(Ad)))
        assert np.allclose(d_handle, oracle.pobtasi(oracle.pobtaf(A)).diagonal(), atol=ATOL)

    def test_solve_stack(self):
        A, _, rng = _case()
        S = rng.standard_normal((5, A.N))
        sv = SequentialSolver()
        f = sv.factorize(A.copy())
        ld, X = sv.solve_stack(A.copy(), S)
        assert f.logdet() == ld
        assert (f.solve_stack(S) == X).all()
        assert np.allclose(X, oracle.pobtas(oracle.pobtaf(A), S.T).T, atol=ATOL)

    def test_solve_lt_stack(self):
        A, _, rng = _case()
        S = rng.standard_normal((4, A.N))
        sv = SequentialSolver()
        f = sv.factorize(A.copy())
        X = sv.solve_lt_stack(A.copy(), S)
        assert (f.solve_lt_stack(S) == X).all()
        assert np.allclose(X, oracle.pobtas_lt(oracle.pobtaf(A), S.T).T, atol=ATOL)

    def test_fused_solve_and_variances(self):
        A, _, rng = _case()
        rhs = rng.standard_normal(A.N)
        sv = SequentialSolver()
        f = sv.factorize(A.copy())
        ld, x, var = sv.solve_and_selected_inverse_diagonal(A.copy(), rhs)
        x2, var2 = f.solve_and_selected_inverse_diagonal(rhs)
        assert f.logdet() == ld
        assert (x2 == x).all() and (var2 == var).all()
        ref = oracle.pobtaf(A)
        assert np.allclose(x, oracle.pobtas(ref, rhs), atol=ATOL)
        assert np.allclose(var, oracle.pobtasi(ref).diagonal(), atol=ATOL)


@pytest.mark.parametrize("ref", ["batched", "oracle"])
class TestDiagonalOnlySelectedInversion:
    """The carry-based diagonal recursion matches the full ``pobtasi``
    bit for bit, and the per-block oracle's full recursion to 1e-10."""

    @pytest.mark.parametrize("shape", [(10, 3, 2), (6, 4, 0), (1, 3, 2), (2, 2, 1)])
    def test_matches_full(self, ref, shape):
        n, b, a = shape
        A, _, _ = _case(n, b, a)
        chol = pobtaf(A)
        d_diag = selected_inverse_diagonal(chol)
        if ref == "batched":
            assert (pobtasi(chol).diagonal() == d_diag).all()
        else:
            d_full = oracle.pobtasi(oracle.pobtaf(A)).diagonal()
            assert np.allclose(d_full, d_diag, atol=ATOL)

    def test_fused_matches_with_solve(self, ref):
        A, _, rng = _case()
        rhs = rng.standard_normal(A.N)
        chol = pobtaf(A)
        if ref == "batched":
            X, x_ref = pobtasi_with_solve(chol, rhs)
        else:
            X, x_ref = oracle.pobtasi(oracle.pobtaf(A)), oracle.pobtas(oracle.pobtaf(A), rhs)
        x, var = solve_and_selected_inverse_diagonal(chol, rhs)
        assert np.allclose(x, x_ref, atol=1e-12)
        assert np.allclose(var, X.diagonal(), atol=1e-12)


class TestFactorCaching:
    def test_logdet_cached_and_stable(self):
        A, _, _ = _case()
        f = factorize(A.copy())
        assert f.logdet() == f.logdet()

    def test_selinv_cache_isolated_from_caller(self):
        """Mutating the returned diagonal must not corrupt the cache."""
        A, _, _ = _case()
        f = factorize(A.copy())
        d1 = f.selected_inverse_diagonal()
        d1[:] = -1.0
        assert (f.selected_inverse_diagonal() > 0).all()

    def test_workspace_reuse_across_widths(self):
        """Repeated stacked solves (same and different k) stay correct."""
        A, Ad, rng = _case(n=8, b=3, a=2)
        f = factorize(A.copy())
        for k in (3, 5, 3, 1, 3):
            S = rng.standard_normal((k, A.N))
            X = f.solve_stack(S)
            assert np.allclose(X @ Ad, S, atol=1e-8), k
        # Results from an earlier call must not alias the workspace.
        S1 = rng.standard_normal((4, A.N))
        X1 = f.solve_stack(S1).copy()
        f.solve_stack(rng.standard_normal((4, A.N)))
        assert (X1 == f.solve_stack(S1)).all()

    def test_k1_stack_results_do_not_alias_workspace(self):
        """Regression: a 2-D k=1 stack transposes to a (1, N) view that
        numpy flags contiguous, so the result must be copied out of the
        reused workspace explicitly."""
        A, Ad, rng = _case(n=8, b=3, a=2, seed=21)
        f = factorize(A.copy())
        r1 = rng.standard_normal(A.N)
        r2 = rng.standard_normal(A.N)
        x1 = f.solve_stack(r1[None, :])
        x2 = f.solve_stack(r2[None, :])
        assert not np.shares_memory(x1, x2)
        assert np.allclose((x1 @ Ad)[0], r1, atol=1e-8)
        z1 = f.solve_lt_stack(r1[None, :])
        f.solve_lt_stack(r2[None, :])
        assert np.allclose(np.einsum("kn,nm,km->k", z1, Ad, z1), [r1 @ r1])
        s1 = f.sample(1, np.random.default_rng(5))
        s2 = f.sample(1, np.random.default_rng(6))
        assert not np.shares_memory(s1, s2)
        assert not (s1 == s2).all()

    def test_sample_mean_and_reproducibility(self):
        A, Ad, _ = _case()
        f = factorize(A.copy())
        mean = np.arange(A.N, dtype=float)
        s1 = f.sample(6, np.random.default_rng(3), mean=mean)
        s2 = f.sample(6, np.random.default_rng(3), mean=mean)
        assert s1.shape == (6, A.N)
        assert (s1 == s2).all()
        # x - mean = L^{-T} z: the draws' quadratic forms equal |z|^2.
        z = np.random.default_rng(3).standard_normal((6, A.N))
        dev = s1 - mean
        assert np.allclose(
            np.einsum("kn,nm,km->k", dev, Ad, dev), np.einsum("kn,kn->k", z, z)
        )

    def test_sample_validates_k(self):
        A, _, _ = _case()
        with pytest.raises(ValueError):
            factorize(A.copy()).sample(0, np.random.default_rng(0))


class TestFactorizationCount:
    def test_factorize_runs_exactly_one_pobtaf(self):
        A, _, rng = _case()
        rhs = rng.standard_normal(A.N)
        c0 = FACTORIZATIONS.count
        f = factorize(A.copy())
        assert FACTORIZATIONS.count == c0 + 1
        f.logdet()
        f.solve(rhs)
        f.solve_stack(rng.standard_normal((3, A.N)))
        f.selected_inverse_diagonal()
        f.solve_and_selected_inverse_diagonal(rhs)
        f.sample(2, rng)
        assert FACTORIZATIONS.count == c0 + 1

    @pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
    def test_oneshot_triple_runs_three(self):
        A, _, rng = _case()
        rhs = rng.standard_normal(A.N)
        sv = SequentialSolver()
        c0 = FACTORIZATIONS.count
        sv.logdet(A.copy())
        sv.logdet_and_solve(A.copy(), rhs)
        sv.selected_inverse_diagonal(A.copy())
        assert FACTORIZATIONS.count == c0 + 3

    def test_distributed_handle_amortizes(self):
        """After d_factorize (ONE shared reduced-system pobtaf per epoch,
        see factorize_reduced), no handle method factorizes again."""
        A, _, rng = _case(n=12, b=3, a=2)
        rhs = rng.standard_normal(A.N)
        P = 3
        c0 = FACTORIZATIONS.count
        df = d_factorize(A.copy(), P)
        assert FACTORIZATIONS.count == c0 + 1
        df.logdet()
        df.solve(rhs)
        df.solve_stack(rng.standard_normal((4, A.N)))
        df.solve_lt_stack(rng.standard_normal((4, A.N)))
        df.selected_inverse_diagonal()
        df.solve_and_selected_inverse_diagonal(rhs)
        df.sample(2, rng)
        assert FACTORIZATIONS.count == c0 + 1


class TestDistributedHandle:
    @pytest.mark.parametrize("P", [2, 3])
    def test_matches_sequential(self, P):
        A, Ad, rng = _case(n=12, b=3, a=2)
        rhs = rng.standard_normal(A.N)
        df = DistributedSolver(P).factorize(A.copy())
        assert np.isclose(df.logdet(), np.linalg.slogdet(Ad)[1])
        assert np.allclose(Ad @ df.solve(rhs), rhs, atol=1e-8)
        assert np.allclose(
            df.selected_inverse_diagonal(), np.diag(np.linalg.inv(Ad)), atol=1e-8
        )
        S = rng.standard_normal((5, A.N))
        assert np.allclose(df.solve_stack(S) @ Ad, S, atol=1e-8)
        x, var = df.solve_and_selected_inverse_diagonal(rhs)
        assert np.allclose(Ad @ x, rhs, atol=1e-8)
        assert np.allclose(var, np.diag(np.linalg.inv(Ad)), atol=1e-8)

    def test_small_matrix_falls_back_to_sequential_handle(self):
        A, _, _ = _case(n=2, b=2, a=1)
        f = DistributedSolver(8).factorize(A.copy())
        # n=2 clamps to one partition: a sequential BTAFactor comes back.
        assert hasattr(f, "chol")

    @pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
    def test_matches_legacy_oneshot(self):
        A, _, rng = _case(n=12, b=3, a=2)
        rhs = rng.standard_normal(A.N)
        sv = DistributedSolver(3)
        df = sv.factorize(A.copy())
        ld, x = sv.logdet_and_solve(A.copy(), rhs)
        assert df.logdet() == ld
        assert (df.solve(rhs) == x).all()
        assert (
            df.selected_inverse_diagonal() == sv.selected_inverse_diagonal(A.copy())
        ).all()
