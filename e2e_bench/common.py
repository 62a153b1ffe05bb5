"""Shared pieces of the workloads: run context, timing loop, percentiles."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Context:
    """What a workload gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    small: bool
    out_dir: str


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.notes.append(why)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def op_metrics(samples_ms, tail_q: float) -> dict:
    """The gated time per unit of work (the median of the run's
    operations), plus the ``tail_q`` percentile and the sample count for
    the record.  ``tail_q`` is fixed per workload: the highest percentile
    that the workload's planned sample count leaves at least ten samples
    beyond (the median when a run holds fewer than twenty operations)."""
    return {
        "op_ms": percentile(samples_ms, 50.0),
        f"_p{tail_q:g}_ms": percentile(samples_ms, tail_q),
        "_samples": len(samples_ms),
        "_ops_ms": [round(float(x), 3) for x in samples_ms],
    }


def timed_setups(build, reps: int) -> tuple:
    """Run ``build()`` ``reps`` times; return the last state and the median
    set-up time.  Earlier states are closed when they have a ``close``."""
    times, state = [], None
    for _ in range(reps):
        if state is not None and hasattr(state, "close"):
            state.close()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def keep_going(t_start: float, seconds: float, done: int, last_s: float, min_ops: int) -> bool:
    """Start another operation?  Yes until ``seconds`` of measurement have
    elapsed, unless the next one would end more than half its length past
    the deadline; at least ``min_ops`` always run."""
    if done < min_ops:
        return True
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * last_s < seconds
