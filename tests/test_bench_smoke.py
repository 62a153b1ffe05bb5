"""Tier-1 smoke wiring for ``benchmarks/bench_batched_kernels.py``.

Runs the benchmark's smoke shape (one mid-sized BTA problem, a few
seconds) inside the regular test suite so that

- a *correctness* divergence between the batched kernels and the
  per-block oracle (> 1e-10) fails every tier-1 run,
- a *flop-accounting* divergence between execution strategies fails
  every tier-1 run,
- a gross *performance* regression of the batched path (falling toward or
  below per-block speed) fails every tier-1 run, and
- with ``pytest --bench-smoke`` the thresholds tighten to the speedups
  measured on this host (see ``benchmarks/results/batched_kernels.txt``).

Methodology: **paired medians**.  Each rep times both paths back-to-back
on the same machine state and the gated statistic is the median of the
per-rep ratios, so the 20-30% second-to-second drift of shared-vCPU
runners cancels inside each pair — the ROADMAP follow-up that replaced
the flaky best-of-N gates.  The strict floors are set with margin below
this host's paired medians (f+s 2.4-2.6x, sinv 3.2-3.5x at the smoke
shape); the lenient tier-1 floors are far below that so only a real
regression — e.g. the batched path degrading to per-block dispatch —
can trip them.
"""

import importlib.util
import pathlib
import sys

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_batched_kernels.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_batched_kernels", _BENCH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_batched_kernels", mod)
    spec.loader.exec_module(mod)
    return mod


def test_bench_batched_smoke(request):
    bench = _load_bench()
    strict = request.config.getoption("--bench-smoke")
    # Strict mode takes more reps: the median over more pairs is what
    # keeps a single-CPU CI host's scheduling noise out of the gate.
    case = bench.smoke_case(reps=4 if strict else 2)

    # Correctness and accounting gates — always strict.
    assert case.max_err < 1e-10, case.max_err
    assert case.flops_equal

    # Paired-median floors.  Strict sits with margin under the measured
    # medians (2.4-2.6x / 3.2-3.5x); lenient survives foreign LAPACK
    # builds whose blocked TRSM kernels narrow the gap, yet still trips
    # if the batched path degrades to per-block dispatch (~1.0x).
    fs_floor, sinv_floor = (1.9, 2.6) if strict else (1.25, 1.5)
    assert case.speedup_fact_solve >= fs_floor, (
        f"batched factorization+solve paired-median speedup "
        f"{case.speedup_fact_solve:.2f}x below floor {fs_floor}x — batched path regressed"
    )
    assert case.speedup("sinv") >= sinv_floor, (
        f"batched selected-inversion paired-median speedup "
        f"{case.speedup('sinv'):.2f}x below floor {sinv_floor}x — batched path regressed"
    )
