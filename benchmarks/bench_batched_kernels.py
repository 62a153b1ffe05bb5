"""A/B benchmark: batched kernel layer vs. the per-block reference.

Regenerates the evidence behind the paper's central kernel claim — that
expressing the BTA solvers through a batched array API removes the
per-block dispatch overhead that otherwise dominates at INLA-scale block
sizes (b in the tens to low hundreds).  For a grid of ``(n, b)`` shapes
this benchmark times factorization (``pobtaf``), solve (``pobtas``) and
selected inversion (``pobtasi``) of the production solvers against the
per-block test oracle (``tests/oracle/blocked.py``), verifies the results
agree to 1e-10, and checks that :mod:`repro.perfmodel.flops` reports one
count per workload whatever the execution strategy (single, stacked or
theta-batched — the calibration contract).

Run directly::

    PYTHONPATH=src python benchmarks/bench_batched_kernels.py

or through pytest (writes ``benchmarks/results/batched_kernels.txt``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batched_kernels.py -s

Smoke mode (``smoke_case()``) runs one mid-sized shape in a few seconds
and is wired into the tier-1 suite via ``tests/test_bench_smoke.py`` and
the ``--bench-smoke`` conftest flag, so a perf regression of the batched
path fails loudly in CI.
"""

import pathlib
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.perfmodel.flops import (
    bta_batch_factorization_flops,
    bta_batch_solve_flops,
    bta_factorization_flops,
    bta_selected_inversion_flops,
    bta_solve_flops,
)
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas
from repro.structured.pobtasi import pobtasi

# The per-block reference lives with the tests; make the repo root
# importable when this file runs as a script.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests import oracle  # noqa: E402

#: Path name -> (factorize, logdet, solve, selected inverse).
PATHS = {
    "blocked": (oracle.pobtaf, oracle.logdet, oracle.pobtas, oracle.pobtasi),
    "batched": (pobtaf, lambda chol: chol.logdet(), pobtas, pobtasi),
}

try:  # pytest-only import (the module is also runnable stand-alone)
    from benchmarks.conftest import write_report
except ImportError:  # pragma: no cover
    write_report = None


@dataclass
class CaseResult:
    n: int
    b: int
    a: int
    t_fact: dict
    t_fact_solve: dict
    t_sinv: dict
    ratios: dict  # per-rep paired (blocked / batched) ratios per workload
    err_logdet: float
    err_solve: float
    err_sinv: float
    flops_equal: bool

    def speedup(self, key: str) -> float:
        """Paired-median speedup: the median of the per-rep ratios.

        Each rep times both paths back-to-back on the same machine state,
        so drift on a shared-vCPU host cancels inside the pair — the
        statistic the smoke gate asserts (best-of-N was flaky there).
        """
        return float(np.median(self.ratios[key]))

    @property
    def speedup_fact_solve(self) -> float:
        """The acceptance metric: factorization + logdet + solve — one INLA
        objective evaluation's structured-solver work — end to end."""
        return self.speedup("fs")

    @property
    def max_err(self) -> float:
        return max(self.err_logdet, self.err_solve, self.err_sinv)


def run_case(n: int, b: int, a: int = 4, k: int = 1, reps: int = 5, seed: int = 0) -> CaseResult:
    """Time both paths on one shape (paired reps) and cross-validate."""
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    rhs = rng.standard_normal((A.N, k)) if k > 1 else rng.standard_normal(A.N)

    def fact_solve(path):
        factorize, logdet, solve, _ = PATHS[path]
        chol = factorize(A)
        logdet(chol)
        return solve(chol, rhs)

    # Paired methodology: each rep measures every (workload, path) cell
    # back-to-back, so both paths of a pair see the same machine state.
    t_fact = {path: [] for path in PATHS}
    t_fs = {path: [] for path in PATHS}
    t_sinv = {path: [] for path in PATHS}
    chols = {}
    for _ in range(reps):
        for path, (factorize, _, _, selinv) in PATHS.items():
            t0 = time.perf_counter()
            factorize(A)
            t_fact[path].append(time.perf_counter() - t0)
            # Factorization + logdet + solve timed as ONE workload (an
            # INLA objective evaluation): the batched factorization's
            # cached triangular inverses are paid for and reused inside
            # the same measurement, exactly as the solver dispatch layer
            # uses them.
            t0 = time.perf_counter()
            fact_solve(path)
            t_fs[path].append(time.perf_counter() - t0)
            chols[path] = factorize(A)
            t0 = time.perf_counter()
            selinv(chols[path])
            t_sinv[path].append(time.perf_counter() - t0)

    ratios = {
        key: [lo / ba for lo, ba in zip(t["blocked"], t["batched"])]
        for key, t in (("fact", t_fact), ("fs", t_fs), ("sinv", t_sinv))
    }
    results = {
        path: (logdet(chols[path]), solve(chols[path], rhs), selinv(chols[path]).diagonal())
        for path, (_, logdet, solve, selinv) in PATHS.items()
    }

    ref, got = results["blocked"], results["batched"]
    scale = max(1.0, abs(ref[0]))
    err_logdet = abs(got[0] - ref[0]) / scale
    err_solve = float(np.max(np.abs(got[1] - ref[1])))
    err_sinv = float(np.max(np.abs(got[2] - ref[2])))
    # One count per workload: the stacked / theta-batched strategies
    # report exactly the single-matrix arithmetic.
    flops_equal = (
        bta_batch_factorization_flops(1, n, b, a) == bta_factorization_flops(n, b, a)
        and bta_solve_flops(n, b, a, k, stacked=True) == bta_solve_flops(n, b, a, k)
        and bta_batch_solve_flops(1, n, b, a, k) == bta_solve_flops(n, b, a, k)
        and bta_selected_inversion_flops(n, b, a) > 0
    )
    def med(ts):
        return {path: float(np.median(v)) for path, v in ts.items()}

    return CaseResult(
        n=n, b=b, a=a, t_fact=med(t_fact), t_fact_solve=med(t_fs), t_sinv=med(t_sinv),
        ratios=ratios,
        err_logdet=err_logdet, err_solve=err_solve, err_sinv=err_sinv,
        flops_equal=flops_equal,
    )


def smoke_case(reps: int = 2) -> CaseResult:
    """One mid-sized shape, a few seconds: the tier-1 perf tripwire."""
    return run_case(n=96, b=32, a=4, reps=reps)


GRID = [
    (64, 8), (64, 16), (64, 32), (64, 64),
    (128, 32), (128, 64),
    (256, 16), (256, 32),
]


def run_grid(grid=GRID, a: int = 4, reps: int = 3):
    return [run_case(n, b, a=a, reps=reps, seed=i) for i, (n, b) in enumerate(grid)]


def format_report(cases) -> str:
    lines = [
        "batched kernel layer vs per-block reference (times in ms, paired medians)",
        "f+s = factorization + logdet + solve, one INLA objective evaluation",
        f"{'n':>5} {'b':>4} | {'fact/blk':>9} {'fact/bat':>9} {'x':>5} | "
        f"{'f+s/blk':>9} {'f+s/bat':>9} {'x':>5} | {'sinv/blk':>9} "
        f"{'sinv/bat':>9} {'x':>5} | {'maxerr':>8}",
    ]
    for c in cases:
        lines.append(
            f"{c.n:>5} {c.b:>4} | "
            f"{c.t_fact['blocked'] * 1e3:>9.2f} {c.t_fact['batched'] * 1e3:>9.2f} "
            f"{c.speedup('fact'):>5.2f} | "
            f"{c.t_fact_solve['blocked'] * 1e3:>9.2f} {c.t_fact_solve['batched'] * 1e3:>9.2f} "
            f"{c.speedup('fs'):>5.2f} | "
            f"{c.t_sinv['blocked'] * 1e3:>9.2f} {c.t_sinv['batched'] * 1e3:>9.2f} "
            f"{c.speedup('sinv'):>5.2f} | "
            f"{c.max_err:>8.1e}"
        )
    lines.append(
        "flop counts identical across strategies: "
        + ("yes" if all(c.flops_equal for c in cases) else "NO")
    )
    return "\n".join(lines)


def test_bench_batched_kernels(results_dir):
    """Full A/B grid (explicit invocation only; not part of tier-1).

    Thresholds encode what this host can honestly sustain (see
    ``src/repro/structured/README.md`` for the analysis): the full
    objective workload clears 3x while per-block dispatch overhead
    dominates (b <= 16); at b >= 32 the batched factorization is pinned
    to the irreducible LAPACK ``potrf``+``trtri`` floor (~2-2.9x) while
    the GEMM-dominated selected inversion stays above 3x throughout.
    """
    cases = run_grid()
    report = format_report(cases)
    if write_report is not None:
        write_report(results_dir, "batched_kernels", report)
    for c in cases:
        assert c.max_err < 1e-10, (c.n, c.b, c.max_err)
        assert c.flops_equal
        # Floors sit well under the measured medians (3.5-4x, 2.6-2.9x,
        # 1.8x respectively) so host timing noise cannot flake the gate
        # while a real regression — e.g. the batched path degrading to
        # per-block dispatch — still trips it.
        if c.b <= 16:
            assert c.speedup_fact_solve >= 2.5, (c.n, c.b, c.speedup_fact_solve)
        elif c.b <= 32:
            assert c.speedup_fact_solve >= 1.8, (c.n, c.b, c.speedup_fact_solve)
        else:
            assert c.speedup_fact_solve >= 1.2, (c.n, c.b, c.speedup_fact_solve)
        if c.n >= 64 and c.b >= 32:
            assert c.speedup("sinv") >= 2.2, (c.n, c.b, c.speedup("sinv"))


def main():  # pragma: no cover
    print(format_report(run_grid()))


if __name__ == "__main__":  # pragma: no cover
    main()
