"""Fig. 7: strong scaling of the trivariate model (dataset SA1).

Paper anchors: ~4 min/iteration on one GH200 vs >40 min for R-INLA;
near-perfect efficiency to 31 GPUs; eta = 85.6% at 62; peak performance at
496 GPUs with eta = 28.3% and a three-orders-of-magnitude speedup over
R-INLA.  Measured part: strong scaling of one gradient stencil over S1
thread workers plus the S3 distributed-solver path on a fixed problem.
"""

import numpy as np

from benchmarks._comm_leg import bta_case, timed_epoch
from benchmarks.conftest import write_report
from repro.diagnostics import Timer, format_table
from repro.inla import DistributedSolver, FobjEvaluator, SequentialSolver
from repro.model.datasets import make_dataset
from repro.perfmodel import DaliaPerfModel, RInlaPerfModel
from repro.perfmodel.scaling import ModelShape
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas

LADDER = [
    (1, (1, 1, 1)),
    (8, (8, 1, 1)),
    (31, (31, 1, 1)),
    (62, (31, 2, 1)),
    (124, (31, 2, 2)),
    (248, (31, 2, 4)),
    (496, (31, 2, 8)),
]


def test_fig7_modeled_paper_scale(benchmark, results_dir):
    dalia = DaliaPerfModel()
    rinla = RInlaPerfModel()
    sa1 = ModelShape(nv=3, ns=1675, nt=192, nr=1)
    tr = rinla.iteration_time(sa1, s1=8)
    rows = []
    t1 = None
    for gpus, (s1, s2, s3) in LADDER:
        t = dalia.iteration_time(sa1, s1=s1, s2=s2, s3=s3)
        if t1 is None:
            t1 = t
        rows.append((gpus, round(t, 2), round(t1 / (gpus * t), 3), round(tr / t, 0)))
    write_report(
        results_dir,
        "fig7_modeled",
        format_table(
            ["GPUs", "s/iter", "efficiency", "speedup vs R-INLA"],
            rows,
            title=(
                f"Fig. 7 (modeled, SA1): 1 GPU = {t1:.0f} s/iter (paper ~240 s), "
                f"R-INLA = {tr / 60:.0f} min/iter (paper >40 min); paper eta: 85.6% "
                "at 62 GPUs, 28.3% at 496, 3 orders of magnitude total"
            ),
        ),
    )
    by = {r[0]: r for r in rows}
    # Single-GPU iteration in the paper's few-minutes range.
    assert 60 < t1 < 1200
    assert tr / t1 > 5  # R-INLA an order of magnitude behind at 1 GPU
    # Efficiency profile: high at 31/62, decayed but nonzero at 496.
    assert by[31][2] > 0.8
    assert by[62][2] > 0.6
    assert 0.1 < by[496][2] < 0.7
    assert by[62][2] > by[496][2]
    # Three orders of magnitude at 496 GPUs.
    assert by[496][3] >= 1000

    benchmark(lambda: DaliaPerfModel().iteration_time(sa1, s1=31, s2=2, s3=8))


def test_fig7_measured_strong_scaling(benchmark, results_dir):
    """Strong scaling of one real gradient stencil on a fixed model."""
    model, gt, _ = make_dataset(nv=3, ns=24, nt=12, nr=1, obs_per_step=25, seed=7)
    rows = []
    t1 = None
    for s1 in (1, 2, 4, 8):
        ev = FobjEvaluator(model, s1_workers=s1)
        with Timer() as t:
            ev.value_and_gradient(gt.theta)
        if t1 is None:
            t1 = t.elapsed
        rows.append((s1, round(t.elapsed, 3), round(t1 / (s1 * t.elapsed), 2)))
    # S3 path on the same model (2 thread-ranks inside one evaluation).
    ev3 = FobjEvaluator(model, solver=DistributedSolver(2), s1_workers=1)
    with Timer() as t3:
        ev3(gt.theta)
    ev_seq = FobjEvaluator(model, solver=SequentialSolver(), s1_workers=1)
    with Timer() as ts:
        ev_seq(gt.theta)
    rows.append(("S3=2 (1 eval)", round(t3.elapsed, 3), round(ts.elapsed / t3.elapsed, 2)))
    write_report(
        results_dir,
        "fig7_measured",
        format_table(
            ["config", "seconds", "efficiency/speedup"],
            rows,
            title="Fig. 7 (measured, scaled-down SA1): S1 strong scaling + S3 path",
        ),
    )
    assert rows[1][2] > 0.3  # real parallel gain from S1 threads

    ev = FobjEvaluator(model, s1_workers=4)
    benchmark.pedantic(ev.value_and_gradient, args=(gt.theta,), rounds=2, iterations=1)


def test_fig7_measured_comm_backend(results_dir, comm_mode):
    """S3 epoch under the ``--comm`` backend with the shared reduced
    factorization.

    The reduced (separator) system used to be factorized by every rank;
    rank 0 now runs ONE sweep per epoch and broadcasts the factor.  The
    sweeps column must read ``1`` for every ``P`` on either backend — for
    ``--comm proc`` the counts come from the workers' own process-local
    counters, so they prove the behavior over real process boundaries.
    """
    A, rhs = bta_case(n=24, b=24, a=3, seed=7)  # SA1-flavored: nt blocks of nv*ns
    x_ref = pobtas(pobtaf(A), rhs)
    rows = []
    for P in (2, 4):
        secs, x, sweeps = timed_epoch(A, rhs, P, comm_mode)
        assert np.allclose(x, x_ref, atol=1e-8)
        assert sweeps == 1
        rows.append((P, comm_mode, round(secs, 3), sweeps))
    write_report(
        results_dir,
        "fig7_comm",
        format_table(
            ["P", "backend", "s/epoch", "reduced sweeps"],
            rows,
            title=(
                "Fig. 7 (measured S3 leg): one reduced-system factorization "
                "per epoch, whatever P"
            ),
        ),
    )
