#!/usr/bin/env python3
"""End-to-end benchmark of the DALIA reproduction.

Four workloads run through the public API: two fits (``repro.DALIA``), an
open-loop serving mix (``repro.serving.Server``) and persistent SPMD epochs
(``repro.comm.SpmdSession`` with ``d_pobtaf`` / ``d_pobtas_stack`` /
``d_pobtasi_diag``).  ``BENCHMARK.json`` gates three of them;
``fit-trivariate`` runs on demand (see README.md for why).  Untraced runs report the end-to-end metrics; a traced
run (``--trace 1``) wraps each layer's public callables and reports the
per-layer metrics instead.  Every run checks its outputs and counts failed
checks against the operations attempted.  The metric names and units are
those of ``BENCHMARK.json`` at the repository root.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload fit-poisson --seed 1 --seconds 30 --trace 0
    python3 e2e_bench/run.py --self-test          # reduced sizes, every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment (cores, BLAS thread counts, versions, commit).
Traced runs also write their spans to ``.bench_out/``.  The benchmark sets
no thread-count environment variable.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("fit-trivariate", "fit-poisson", "serve-mix", "spmd-epoch")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_program() -> float:
    """Import the package from ``src/``; return the seconds it took since
    the process started (the first part of every workload's set-up)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    return time.perf_counter() - T_START


#: Imports timed per run: this process's and IMPORT_REPS - 1 fresh
#: interpreters'.  One import varies by a fifth run to run.
IMPORT_REPS = 3
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); "
    "import argparse, importlib, json, subprocess; sys.path.insert(0, sys.argv[1]); import repro; "
    "print(time.perf_counter() - t)"
)


def _median_import_s(first_s: float) -> float:
    """Median import time over this process and fresh interpreters."""
    import statistics

    times = [first_s]
    for _ in range(IMPORT_REPS - 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, os.path.join(ROOT, "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


#: Workload name -> (module, entry point).
RUNNERS = {
    "fit-trivariate": ("wl_fit", "run_trivariate"),
    "fit-poisson": ("wl_fit", "run_poisson"),
    "serve-mix": ("wl_serve", "run"),
    "spmd-epoch": ("wl_spmd", "run"),
}


def run_workload(name: str, ctx, import_s: float, spec: dict) -> dict:
    """Run one workload and shape its result line."""
    module_name, entry = RUNNERS[name]
    module = importlib.import_module(module_name)
    outcome = getattr(module, entry)(ctx)
    if ctx.trace:
        wanted, values = spec["per_layer"], outcome.layers
    else:
        wanted = spec["end_to_end"]
        values = dict(outcome.e2e)
        values["setup_s"] = import_s + values.pop("_setup_body_s")
    metrics, missing = {}, []
    for m in wanted:
        if m["name"] in values:
            value = float(values[m["name"]])
        elif ctx.trace and not m["name"].startswith(module.LAYER_PREFIXES):
            value = 0.0  # a layer this workload does not reach
        else:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for note in outcome.notes:
        print(f"check failed: {note}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0 and not missing and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": metrics,
        "_missing": missing,
        "_extra": {k: v for k, v in values.items() if k.startswith("_") and k != "_setup_body_s"},
    }


def self_test(spec: dict, import_s: float) -> int:
    """Every workload at reduced size, untraced and traced: each metric
    ``BENCHMARK.json`` names must be emitted (with its unit from there)
    and every output check must pass."""
    from common import Context

    bad = 0
    # The SPMD session forks its workers: run it before the other workloads
    # have started any threads in this process.
    for name in ("spmd-epoch", "fit-trivariate", "fit-poisson", "serve-mix"):
        for trace in (False, True):
            ctx = Context(seed=1, seconds=2.0, trace=trace, small=True, out_dir=OUT_DIR)
            res = run_workload(name, ctx, import_s, spec)
            ok = res["correct"] and not res["_missing"]
            bad += not ok
            print(f"self-test {name:15s} trace={int(trace)} "
                  f"{'ok' if ok else 'FAILED'} metrics={len(res['metrics'])} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"missing={res['_missing']}")
    return 1 if bad else 0


def stop_children() -> None:
    """Join every child process the run started, so none outlives it: the
    workers of a session that failed to close, and the multiprocessing
    resource tracker that the first shared-memory segment starts (left
    alone, it exits only after this process does)."""
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for p in mp.active_children():
        p.join(timeout=5.0)
        if p.is_alive():
            p.kill()
            p.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at reduced size and check the metric set")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        spec = _spec()
        import_s = _median_import_s(_import_program())
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"cannot set up the benchmark: {exc!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    from common import Context
    from envinfo import environment

    env = environment(ROOT)
    print(json.dumps({"environment": env}))
    if args.self_test:
        return self_test(spec, import_s)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  small=False, out_dir=OUT_DIR)
    res = run_workload(args.workload, ctx, import_s, spec)
    if res["_missing"]:
        print(f"metrics not emitted: {res['_missing']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **res["_extra"]}),
          file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
