"""Numerical graceful degradation: audited NPD jitter recovery.

Pins the ISSUE-10 contract for the structured layer: recovery is opt-in,
escalating, and *audited* (``applied_jitter`` on the handle plus
:class:`NPDJitterWarning` — never silent), and it never changes the bits
of a result that would have succeeded without it.
"""

import warnings

import numpy as np
import pytest

from repro.errors import NotPositiveDefiniteError, NPDJitterWarning
from repro.faults import FaultPlan, chaos_seeds, injected
from repro.structured.bta import BTAMatrix, BTAShape, BTAStack
from repro.structured.factor import NPDJitterPolicy, factorize
from repro.structured.multifactor import factorize_batch

CHAOS_SEEDS = chaos_seeds()

SHAPE = BTAShape(n=5, b=3, a=2)


def _spd(seed: int) -> BTAMatrix:
    return BTAMatrix.random_spd(SHAPE, np.random.default_rng(seed))


def _nearly_spd(bad: float = -1e-6) -> BTAMatrix:
    """Decoupled identity blocks with one slightly negative diagonal entry:
    indefinite, but curable by a small diagonal shift — and the block
    structure makes the cure threshold exactly predictable."""
    shape = BTAShape(n=3, b=2, a=1)
    A = BTAMatrix(
        diag=np.tile(np.eye(2), (3, 1, 1)),
        lower=np.zeros((2, 2, 2)),
        arrow=np.zeros((3, 1, 2)),
        tip=np.eye(1),
    )
    assert shape == A.shape3
    A.diag[1, 1, 1] = bad
    return A


def _assert_factor_bits_equal(f, g) -> None:
    assert np.array_equal(f.chol.factor.diag, g.chol.factor.diag)
    assert np.array_equal(f.chol.factor.lower, g.chol.factor.lower)
    assert np.array_equal(f.chol.factor.arrow, g.chol.factor.arrow)
    assert np.array_equal(f.chol.factor.tip, g.chol.factor.tip)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestInjectedNPD:
    def test_factorize_recovers_from_injected_npd(self, seed):
        """An injected NPD on the first attempt sends a genuinely SPD
        matrix down the recovery chain: rung one succeeds, the handle
        reports the added diagonal, and the warning fires."""
        A = _spd(seed)
        plan = FaultPlan.at("structured.pobtaf", times=1, seed=seed)
        with injected(plan), pytest.warns(NPDJitterWarning, match="succeeded only after"):
            f = factorize(A, jitter=True)
        assert f.applied_jitter > 0
        assert np.isfinite(f.logdet())

    def test_without_jitter_the_injected_npd_propagates(self, seed):
        plan = FaultPlan.at("structured.pobtaf", times=1, seed=seed)
        with injected(plan):
            with pytest.raises(NotPositiveDefiniteError, match="injected"):
                factorize(_spd(seed))

    def test_recovery_never_corrupts_the_caller_matrix(self, seed):
        """Even with ``overwrite=True``, an active jitter policy keeps the
        first attempt out-of-place: after a recovered factorization the
        caller's matrix still holds the pristine values."""
        A = _spd(seed)
        pristine = A.copy()
        plan = FaultPlan.at("structured.pobtaf", times=1, seed=seed)
        with injected(plan), pytest.warns(NPDJitterWarning):
            factorize(A, overwrite=True, jitter=True)
        assert np.array_equal(A.diag, pristine.diag)
        assert np.array_equal(A.lower, pristine.lower)
        assert np.array_equal(A.arrow, pristine.arrow)
        assert np.array_equal(A.tip, pristine.tip)

    def test_batch_fault_recovers_bit_identically(self, seed):
        """An injected batch-level NPD (fired before any block is touched)
        routes through per-lane recovery; every lane is genuinely SPD, so
        the recovered batch is bit-identical to the fault-free batch and
        reports zero applied jitter everywhere."""
        mats = [_spd(10 + j) for j in range(3)]
        expect = factorize_batch(mats)
        plan = FaultPlan.at("structured.factorize_batch", times=1, seed=seed)
        with injected(plan):
            got = factorize_batch(mats, jitter=True)
        assert np.array_equal(got.applied_jitter, np.zeros(3))
        for j in range(3):
            _assert_factor_bits_equal(got.factor(j), expect.factor(j))
            assert got.factor(j).logdet() == expect.factor(j).logdet()

    def test_batch_fault_with_overwritten_stack_recovers_from_pristine_copy(self, seed):
        """``overwrite=True`` + jitter retains a pristine copy of the
        caller's stack until the outcome is decided — recovery after the
        injected fault still sees unfactorized values."""
        mats = [_spd(20 + j) for j in range(2)]
        expect = factorize_batch(mats)
        stack = BTAStack.from_matrices(mats)
        plan = FaultPlan.at("structured.factorize_batch", times=1, seed=seed)
        with injected(plan):
            got = factorize_batch(stack, overwrite=True, jitter=True)
        for j in range(2):
            _assert_factor_bits_equal(got.factor(j), expect.factor(j))

    def test_batch_fault_without_jitter_propagates(self, seed):
        plan = FaultPlan.at("structured.factorize_batch", times=1, seed=seed)
        with injected(plan):
            with pytest.raises(NotPositiveDefiniteError, match="injected"):
                factorize_batch([_spd(0), _spd(1)])


class TestGenuineNPD:
    def test_escalates_to_the_curing_rung(self):
        """The ``-1e-6`` entry defeats rungs one (1e-8) and two (1e-6) and
        is cured by rung three (1e-4) — pinning that escalation actually
        escalates rather than succeeding or giving up on rung one."""
        A = _nearly_spd()
        with pytest.raises(NotPositiveDefiniteError):
            factorize(A.copy())
        with pytest.warns(NPDJitterWarning):
            f = factorize(A, jitter=True)
        scale = np.abs(
            np.concatenate([A.diag.diagonal(axis1=1, axis2=2).ravel(), A.tip.diagonal()])
        ).mean()
        assert f.applied_jitter == pytest.approx(1e-4 * scale)
        assert np.isfinite(f.logdet())

    def test_exhausted_rungs_reraise_with_cause(self):
        A = _nearly_spd(bad=-10.0)  # beyond the largest rung's reach
        with pytest.raises(NotPositiveDefiniteError, match="after 4 diagonal jitter") as info:
            factorize(A, jitter=True)
        assert isinstance(info.value.__cause__, NotPositiveDefiniteError)

    def test_clean_matrix_is_bit_identical_with_jitter_enabled(self):
        """Recovery must never change the bits of a successful result: a
        matrix that factorizes cleanly yields the same handle whether or
        not the policy is armed, with zero reported jitter and no warning."""
        A = _spd(3)
        plain = factorize(A.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error", NPDJitterWarning)
            armed = factorize(A.copy(), jitter=True)
        assert armed.applied_jitter == 0.0
        _assert_factor_bits_equal(armed, plain)

    def test_batch_recovers_only_the_bad_lane(self):
        """One indefinite lane poisons the whole stacked sweep; per-lane
        recovery jitters only that lane and leaves the clean lanes
        bit-identical to their per-theta factorizations."""
        shape = BTAShape(n=3, b=2, a=1)
        clean = [
            BTAMatrix.random_spd(shape, np.random.default_rng(s)) for s in (30, 31)
        ]
        mats = [clean[0], _nearly_spd(), clean[1]]
        with pytest.raises(NotPositiveDefiniteError):
            factorize_batch([m.copy() for m in mats])
        with pytest.warns(NPDJitterWarning):
            got = factorize_batch(mats, jitter=True)
        assert got.applied_jitter[1] > 0
        assert got.applied_jitter[0] == got.applied_jitter[2] == 0.0
        for j in (0, 2):
            _assert_factor_bits_equal(got.factor(j), factorize(mats[j]))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="initial"):
            NPDJitterPolicy(initial=0.0)
        with pytest.raises(ValueError, match="growth"):
            NPDJitterPolicy(growth=1.0)
        with pytest.raises(ValueError, match="max_tries"):
            NPDJitterPolicy(max_tries=0)
        with pytest.raises(TypeError, match="jitter"):
            factorize(_spd(0), jitter=42)
