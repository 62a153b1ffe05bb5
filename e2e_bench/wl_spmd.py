"""SPMD workload: persistent ``SpmdSession(2)`` epochs over ``ShmComm``.

Every epoch draws a fresh seeded SPD BTA matrix (``n = 64``, ``b = 120``,
``a = 6``) and an 8-column right-hand-side stack.  A first, untimed
dispatch has each rank build its slice; the timed dispatch then runs
``d_pobtaf`` (plus the global log-determinant), ``d_pobtas_stack`` and
``d_pobtasi_diag``.  The epoch time is the parent's wall time around that
dispatch, as a caller of the session sees it.
"""

from __future__ import annotations

import json
import os
import time
import traceback

import numpy as np

from common import Outcome, keep_going, op_metrics, timed_setups
from repro import factorize
from repro.comm import SpmdSession, TraceComm, worker_store
from repro.perfmodel.flops import d_pobtaf_comm_bytes, d_pobtaf_critical_flops
from repro.structured import d_pobtaf, d_pobtas_stack, d_pobtasi_diag
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import partition_matrix
from repro.structured.partition import partition_counts
from tracing import union_length

SHAPE = {"n": 64, "b": 120, "a": 6}
SHAPE_SMALL = {"n": 8, "b": 16, "a": 2}
RANKS = 2
NRHS = 8
#: An epoch longer than this multiple of the run median is a stall.
STALL_FACTOR = 3.0
REL_TOL = 1e-10
#: One in CHECK_EVERY epochs (and the first) is compared against the
#: sequential handle.
CHECK_EVERY = 8
#: A 30 s run plans about 45 epochs, which leaves eleven beyond the 75th percentile.
TAIL_Q = 75.0
SETUP_REPS = 3
#: Per-layer metrics this workload must emit; the others read 0 here.
LAYER_PREFIXES = ("comm.", "structured.d_", "structured.epoch_", "structured.seq_")


def epoch_inputs(seed: int, epoch: int, shape: dict) -> tuple:
    """The seeded matrix and right-hand sides of one epoch."""
    rng = np.random.default_rng([seed, epoch])
    A = BTAMatrix.random_spd(BTAShape(**shape), rng)
    return A, rng.standard_normal((NRHS, A.N))


class TimedComm(TraceComm):
    """``TraceComm`` that also records when this rank sat in a collective."""

    def __init__(self, inner):
        super().__init__(inner)
        self.intervals = []


def _timed(name):
    base = getattr(TraceComm, name)

    def method(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return base(self, *args, **kwargs)
        finally:
            self.intervals.append((t0, time.perf_counter()))

    return method


for _name in ("Send", "Recv", "Barrier", "Allreduce", "Bcast", "Allgather", "bcast", "allgather"):
    setattr(TimedComm, _name, _timed(_name))


def load_job(comm, seed: int, epoch: int, shape: dict) -> None:
    """Untimed: build this rank's slice of the epoch's system."""
    A, rhs = epoch_inputs(seed, epoch, shape)
    sl = partition_matrix(A, comm.Get_size())[comm.Get_rank()]
    b = A.b
    worker_store()["bench_epoch"] = (
        sl,
        np.ascontiguousarray(rhs[:, sl.part.start * b : sl.part.stop * b]),
        np.ascontiguousarray(rhs[:, A.N - A.a :]),
    )


def epoch_job(comm, trace: bool) -> dict:
    """Timed: factorize, solve the stack, take the selected-inverse diagonal."""
    sl, rhs_local, rhs_tip = worker_store().pop("bench_epoch")
    c = TimedComm(comm) if trace else comm
    wire0 = comm.measured.total_bytes()
    t0 = time.perf_counter()
    f = d_pobtaf(sl, c)
    logdet = f.logdet(c)
    t1 = time.perf_counter()
    xl, xt = d_pobtas_stack(f, rhs_local, rhs_tip, c)
    t2 = time.perf_counter()
    dl, dt = d_pobtasi_diag(f)
    t3 = time.perf_counter()
    out = {"logdet": logdet, "x_local": xl, "x_tip": xt, "diag_local": dl, "diag_tip": dt}
    if trace:
        out.update(
            stamps=(t0, t1, t2, t3),
            comm_intervals=c.intervals,
            comm_ops=c.stats.total_messages(),
            comm_bytes=c.stats.total_bytes(),
            wire_bytes=comm.measured.total_bytes() - wire0,
        )
    return out


def _ready_job(comm) -> int:
    return comm.Get_rank()


class Session:
    def __init__(self):
        self.session = SpmdSession(RANKS)
        # The first dispatch waits for the workers to come up: part of set-up.
        self.session.run(_ready_job)

    def close(self) -> None:
        self.session.close()


def _rel_err(x, ref) -> float:
    return float(np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _check(results, A, rhs, trace_seq: list) -> str | None:
    """Ranks agree bit for bit on the log-determinant and the replicated
    selected-inverse diagonal; the epoch matches the sequential handle."""
    if len({r["logdet"] for r in results}) != 1:
        return "ranks disagree on logdet"
    if not all(np.array_equal(results[0]["diag_tip"], r["diag_tip"]) for r in results[1:]):
        return "ranks disagree on the replicated selected-inverse diagonal"
    if A is None:
        return None
    t0 = time.perf_counter()
    seq = factorize(A)
    logdet = seq.logdet()
    x = seq.solve_stack(rhs)
    diag = seq.selected_inverse_diagonal()
    trace_seq.append(time.perf_counter() - t0)
    n_local = sum(len(r["diag_local"]) for r in results)
    got_diag = np.concatenate([r["diag_local"] for r in results] + [results[0]["diag_tip"]])
    got_x = np.concatenate([r["x_local"] for r in results] + [results[0]["x_tip"]], axis=1)
    errs = {
        "logdet": abs(results[0]["logdet"] - logdet) / abs(logdet),
        "selected-inverse diagonal": _rel_err(got_diag, diag),
        "solution": _rel_err(got_x, x),
    }
    bad = {k: e for k, e in errs.items() if not e <= REL_TOL}
    if bad or n_local + A.a != A.N:
        return f"distributed epoch off the sequential handle: {bad}"
    return None


def _layer_metrics(traces: list, epochs_s: list, seq_s: list, shape: dict) -> dict:
    per = {k: [] for k in ("f", "s", "si", "wait", "imb", "ops", "bytes", "wire")}
    # The replicated tip of the solution is not bit-identical on every rank
    # in every epoch; counted here, compared to the sequential handle in
    # the output check.
    epochs = [(ranks, e) for ranks, e in zip(traces, epochs_s) if ranks is not None]
    tip_divergent = sum(
        not all(np.array_equal(ranks[0]["x_tip"], r["x_tip"]) for r in ranks[1:])
        for ranks, _ in epochs
    )
    busy = {"structured": 0.0, "comm": 0.0}
    wall = {"structured": 0.0, "comm": 0.0}
    for ranks, epoch_s in epochs:
        st = [r["stamps"] for r in ranks]
        per["f"].append(max(s[1] - s[0] for s in st))
        per["s"].append(max(s[2] - s[1] for s in st))
        per["si"].append(max(s[3] - s[2] for s in st))
        comm_s = [union_length(r["comm_intervals"]) for r in ranks]
        compute = [s[3] - s[0] - c for s, c in zip(st, comm_s)]
        per["wait"].append(epoch_s - max(compute))
        per["imb"].append(max(compute) / min(compute))
        per["ops"].append(sum(r["comm_ops"] for r in ranks))
        per["bytes"].append(sum(r["comm_bytes"] for r in ranks))
        per["wire"].append(sum(r["wire_bytes"] for r in ranks))
        busy["structured"] += sum(s[3] - s[0] for s in st)
        busy["comm"] += sum(comm_s)
        wall["structured"] += union_length((s[0], s[3]) for s in st)
        wall["comm"] += union_length([iv for r in ranks for iv in r["comm_intervals"]])
    med = {k: float(np.median(v)) for k, v in per.items()}
    n, b, a = shape["n"], shape["b"], shape["a"]
    flops = d_pobtaf_critical_flops(partition_counts(n, RANKS), b, a)
    median_epoch = float(np.median(epochs_s))
    return {
        "structured.d_pobtaf_ms": 1e3 * med["f"],
        "structured.d_pobtas_ms": 1e3 * med["s"],
        "structured.d_pobtasi_ms": 1e3 * med["si"],
        "structured.d_pobtaf.flops_computed": flops,
        "structured.d_pobtaf.gflops": flops / med["f"] / 1e9,
        "structured.epoch_p50_ms": 1e3 * median_epoch,
        "structured.seq_epoch_ms": 1e3 * float(np.median(seq_s)),
        "structured.busy_s": busy["structured"],
        "structured.wall_s": wall["structured"],
        "structured.self_s": busy["structured"] - busy["comm"],
        "comm.ops": med["ops"],
        "comm.bytes": med["bytes"],
        "comm.bytes_computed": RANKS * d_pobtaf_comm_bytes(RANKS, b, a),
        "comm.wire_bytes": med["wire"],
        "comm.wait_ms": 1e3 * med["wait"],
        "comm.imbalance": med["imb"],
        "comm.stall_epochs": sum(e > STALL_FACTOR * median_epoch for e in epochs_s),
        "comm.tip_divergent_epochs": tip_divergent,
        "comm.busy_s": busy["comm"],
        "comm.wall_s": wall["comm"],
        "comm.self_s": busy["comm"],
    }


def run(ctx) -> Outcome:
    out = Outcome()
    shape = SHAPE_SMALL if ctx.small else SHAPE
    state, setup_s = timed_setups(Session, SETUP_REPS)
    out.e2e["_setup_body_s"] = setup_s
    session = state.session
    epochs_s, traces, seq_s = [], [], []
    check_rng = np.random.default_rng([ctx.seed, 1])
    try:
        t_start = time.perf_counter()
        while keep_going(t_start, ctx.seconds, len(epochs_s), 0.0, min_ops=2):
            epoch = len(epochs_s)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                session.run(load_job, ctx.seed, epoch, shape)
                t0 = time.perf_counter()
                results = session.run(epoch_job, ctx.trace)
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                traceback.print_exc()
                out.fail(f"epoch {epoch}: {exc!r}")
                epochs_s.append(time.perf_counter() - t0)
                traces.append(None)
                continue
            epochs_s.append(time.perf_counter() - t0)
            sequential = epoch == 0 or check_rng.integers(CHECK_EVERY) == 0
            A, rhs = epoch_inputs(ctx.seed, epoch, shape) if sequential else (None, None)
            why = _check(results, A, rhs, seq_s)
            if why is not None:
                out.fail(f"epoch {epoch}: {why}")
            if ctx.trace:
                traces.append(results)
    finally:
        state.close()
    out.e2e.update(op_metrics([1e3 * e for e in epochs_s], TAIL_Q))
    out.e2e["_max_epoch_ms"] = 1e3 * max(epochs_s)
    if ctx.trace:
        out.layers.update(_layer_metrics(traces, epochs_s, seq_s, shape))
        with open(os.path.join(ctx.out_dir, f"trace-spmd-epoch-seed{ctx.seed}.json"), "w") as fh:
            json.dump({"epochs_s": epochs_s, "layers": out.layers}, fh)
    return out
