"""Command-line interface.

``python -m repro.cli <command>`` provides the operations a downstream
user reaches for first:

- ``fit``        — synthesize (or reuse) a dataset of a given shape and run
                   the full INLA pipeline, printing posterior summaries;
- ``solver``     — micro-benchmark the structured solver routines
                   (sequential and distributed) on a random BTA matrix,
                   including factor-reuse timings: factorize once, then
                   logdet + solve + selected inversion from the handle
                   next to the factorize-per-call numbers;
- ``serve``      — demo the posterior serving tier: fit a synthetic
                   model, then push a concurrent burst of typed
                   predict/sample/exceedance queries through the
                   micro-batching server and print throughput, latency
                   percentiles, and registry statistics;
- ``spmd``       — demo the SPMD launcher: run one distributed
                   factorize + solve epoch over ``--procs`` ranks on the
                   selected backend (real worker processes over shared
                   memory, or in-process threads) and print per-rank
                   timings plus modeled/measured communication stats;
- ``calibrate``  — measure the blocked-POTRF crossover on this host and
                   print the recommended ``REPRO_POTRF_SPLIT`` setting;
- ``predict``    — paper-scale runtime predictions from the performance
                   model for a given model shape and GPU count;
- ``datasets``   — print the paper's Table IV configurations;
- ``backends``   — list registered execution backends with their
                   capability flags (which one ``REPRO_BACKEND`` selects),
                   then one CPU-budget line: affinity cores, each bundled
                   OpenBLAS copy's thread count, and whether an
                   environment variable overrode the one-thread pin.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np


def _cmd_fit(args) -> int:
    from repro.inla import DALIA
    from repro.inla.bfgs import BFGSOptions
    from repro.model.datasets import make_dataset

    model, gt, latent = make_dataset(
        nv=args.nv,
        ns=args.ns,
        nt=args.nt,
        nr=args.nr,
        obs_per_step=args.obs,
        seed=args.seed,
    )
    print(f"model: nv={model.nv} ns={model.ns} nt={model.nt} nr={model.nr} "
          f"N={model.N} m={model.m} dim(theta)={model.layout.dim}")
    engine = DALIA(model, s1_workers=args.s1, s2_parallel=args.s2)
    t0 = time.perf_counter()
    res = engine.fit(options=BFGSOptions(max_iter=args.max_iter))
    print(f"fit: {res.optimization.n_iterations} iterations, "
          f"{res.n_fobj_evaluations} evaluations, {time.perf_counter() - t0:.1f} s "
          f"({res.optimization.message})")
    print("theta truth:", np.array2string(gt.theta, precision=3))
    print("theta mode :", np.array2string(res.theta_mode, precision=3))
    print("posterior sd:", np.array2string(res.hyper.sd, precision=3))
    c = np.corrcoef(res.latent.mean, latent)[0, 1]
    print(f"latent corr(mean, truth) = {c:.3f}")
    return 0


def _cmd_solver(args) -> int:
    from repro.comm import run_spmd
    from repro.diagnostics import Timer
    from repro.inla.solvers import SequentialSolver
    from repro.structured import BTAMatrix, BTAShape, pobtaf, pobtas, pobtasi
    from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
    from repro.structured.d_pobtas import d_pobtas
    from repro.structured.d_pobtasi import d_pobtasi

    rng = np.random.default_rng(args.seed)
    A = BTAMatrix.random_spd(BTAShape(n=args.n, b=args.b, a=args.a), rng)
    rhs = rng.standard_normal(A.N)
    with Timer() as tf:
        chol = pobtaf(A)
    with Timer() as ts:
        pobtas(chol, rhs)
    with Timer() as ti:
        pobtasi(chol)
    print(f"sequential: pobtaf {tf.elapsed * 1e3:.1f} ms, pobtas {ts.elapsed * 1e3:.1f} ms, "
          f"pobtasi {ti.elapsed * 1e3:.1f} ms")

    # Factor reuse: the logdet + solve + selected-inverse triple once
    # with one factorization per call (what the deprecated one-shot
    # surface used to do) and once through a single BTAFactor handle.
    solver = SequentialSolver()
    with Timer() as tl:
        solver.factorize(A.copy(), overwrite=True).logdet()
        f1 = solver.factorize(A.copy(), overwrite=True)
        f1.logdet(), f1.solve(rhs)
        solver.factorize(A.copy(), overwrite=True).selected_inverse_diagonal()
    with Timer() as th:
        f = solver.factorize(A.copy())
        f.logdet()
        f.solve(rhs)
        f.selected_inverse_diagonal()
    print(f"triple (logdet + solve + selected inverse): factorize x3 "
          f"{tl.elapsed * 1e3:.1f} ms, one BTAFactor {th.elapsed * 1e3:.1f} ms "
          f"({tl.elapsed / th.elapsed:.2f}x)")
    if args.ranks > 1:
        slices = partition_matrix(A, args.ranks, lb=args.lb)

        def rank_fn(comm):
            sl = slices[comm.Get_rank()]
            f = d_pobtaf(sl, comm)
            d_pobtas(f, rhs[sl.part.start * args.b : sl.part.stop * args.b],
                     rhs[args.n * args.b :], comm)
            d_pobtasi(f)
            return None

        with Timer() as td:
            run_spmd(args.ranks, rank_fn)
        print(f"distributed (P={args.ranks}, lb={args.lb}): full pipeline "
              f"{td.elapsed * 1e3:.1f} ms")
    return 0


def _spmd_demo_rank(comm, slices, rhs, b, a):
    """One rank's demo epoch (module-level so it pickles under spawn)."""
    from repro.comm import CommStats, TraceComm
    from repro.structured.d_pobtaf import d_pobtaf
    from repro.structured.d_pobtas import d_pobtas

    stats = CommStats()
    traced = TraceComm(comm, stats)
    t0 = time.perf_counter()
    sl = slices[comm.Get_rank()]
    f = d_pobtaf(sl, traced)
    ld = f.logdet(traced)
    d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[rhs.shape[0] - a :], traced)
    elapsed = time.perf_counter() - t0
    measured = getattr(comm, "measured", None)  # wire bytes (ShmComm only)
    return {
        "rank": comm.Get_rank(),
        "blocks": sl.part.n_blocks,
        "seconds": elapsed,
        "logdet": ld,
        "ops": sum(stats.counts.values()),
        "modeled_bytes": sum(stats.bytes.values()),
        "measured_bytes": None if measured is None else sum(measured.bytes.values()),
    }


def _cmd_spmd(args) -> int:
    from repro.comm import run_spmd
    from repro.diagnostics import Timer, format_table
    from repro.structured import BTAMatrix, BTAShape
    from repro.structured.d_pobtaf import partition_matrix

    rng = np.random.default_rng(args.seed)
    A = BTAMatrix.random_spd(BTAShape(n=args.n, b=args.b, a=args.a), rng)
    rhs = rng.standard_normal(A.N)
    slices = partition_matrix(A, args.procs, lb=args.lb)
    with Timer() as t:
        out = run_spmd(
            args.procs, _spmd_demo_rank, slices, rhs, args.b, args.a, backend=args.backend
        )
    rows = [
        (
            o["rank"],
            o["blocks"],
            round(o["seconds"] * 1e3, 1),
            o["ops"],
            o["modeled_bytes"],
            "-" if o["measured_bytes"] is None else o["measured_bytes"],
        )
        for o in out
    ]
    print(format_table(
        ["rank", "blocks", "ms", "comm ops", "modeled bytes", "measured bytes"], rows,
        title=(
            f"SPMD demo: backend={args.backend} P={args.procs} on a "
            f"(n={args.n}, b={args.b}, a={args.a}) BTA system"
        ),
    ))
    same = len({o["logdet"] for o in out}) == 1
    print(f"epoch wall time {t.elapsed * 1e3:.1f} ms (includes worker startup); "
          f"logdet = {out[0]['logdet']:.6f}, identical on all ranks: {same}")
    return 0 if same else 1


def _cmd_serve(args) -> int:
    import threading

    from repro.backend.memory import posterior_memory_bytes
    from repro.model.datasets import make_dataset
    from repro.serving import ExceedanceRequest, ModelRegistry, SampleRequest, Server

    model, gt, _ = make_dataset(
        nv=args.nv, ns=args.ns, nt=args.nt, nr=args.nr,
        obs_per_step=args.obs, seed=args.seed,
    )
    b = model.nv * model.ns
    budget = 4 * posterior_memory_bytes(model.nt, b, model.N - model.nt * b)
    registry = ModelRegistry(budget_bytes=budget)
    print(f"model: N={model.N}; registry budget {budget / 2**20:.1f} MiB")

    latencies: list[float] = []
    lock = threading.Lock()

    def client(worker: int, server: Server) -> None:
        for i in range(args.requests):
            req = (
                SampleRequest(n_samples=2, seed=worker * args.requests + i)
                if (worker + i) % 2
                else ExceedanceRequest(threshold=0.5)
            )
            t0 = time.perf_counter()
            server.query(model, gt.theta, req)
            with lock:
                latencies.append(time.perf_counter() - t0)

    with Server(registry, max_batch=args.max_batch) as server:
        server.query(model, gt.theta, ExceedanceRequest(threshold=0.5))  # warm fit
        threads = [
            threading.Thread(target=client, args=(w, server))
            for w in range(args.concurrency)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stats = server.stats.snapshot()
    lat = np.sort(np.array(latencies)) * 1e3
    total = args.concurrency * args.requests
    print(f"served {total} requests from {args.concurrency} clients in {wall:.2f} s "
          f"({total / wall:.0f} qps)")
    print(f"latency ms: p50 {np.percentile(lat, 50):.2f} "
          f"p95 {np.percentile(lat, 95):.2f} p99 {np.percentile(lat, 99):.2f}")
    print(f"server: {stats['ticks']} ticks, max batch {stats['max_batch']}; "
          f"registry: {registry.stats.snapshot()}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.perfmodel.calibrate import print_potrf_recommendation

    sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
    kwargs = {"repeats": args.repeats}
    if sizes:
        print_potrf_recommendation(sizes, **kwargs)
    else:
        print_potrf_recommendation(**kwargs)
    return 0


def _cmd_predict(args) -> int:
    from repro.perfmodel import DaliaPerfModel, RInlaPerfModel
    from repro.perfmodel.scaling import ModelShape

    shape = ModelShape(nv=args.nv, ns=args.ns, nt=args.nt, nr=args.nr)
    dalia = DaliaPerfModel()
    rinla = RInlaPerfModel()
    t = dalia.iteration_time_for_procs(shape, args.gpus)
    tr = rinla.iteration_time(shape, s1=8)
    print(f"shape: {shape} (N = {shape.N}, nfeval = {shape.nfeval})")
    print(f"DALIA on {args.gpus} modeled GH200: {t:.2f} s/iteration")
    print(f"R-INLA baseline (one CPU node):   {tr:.2f} s/iteration "
          f"({tr / t:.1f}x slower)")
    return 0


def _cmd_datasets(args) -> int:
    from repro.diagnostics import format_table
    from repro.model.datasets import TABLE_IV

    rows = [
        (s.name, s.dim_theta, s.nv, s.ns, s.nr, s.nt, s.N, s.description)
        for s in TABLE_IV.values()
    ]
    print(format_table(
        ["name", "dim(theta)", "nv", "ns", "nr", "nt", "N", "description"], rows,
        title="Paper Table IV",
    ))
    return 0


def _cmd_backends(args) -> int:
    from repro.backend import available_backends, get_backend, threads
    from repro.diagnostics import format_table

    active = get_backend()
    rows = []
    for name in available_backends():
        be = get_backend(name)
        rows.append((
            name,
            "yes" if be.is_host else "no",
            "yes" if be.has_lapack else "no",
            "yes" if be.has_batched_trsm else "no",
            "yes" if be.has_batched_potrf else "no",
            "*" if be is active else "",
        ))
    print(format_table(
        ["name", "host", "lapack", "batched trsm", "batched potrf", "active"], rows,
        title="Registered backends (select with REPRO_BACKEND=<name>)",
    ))
    blas = ", ".join(
        f"{lib} {'not found' if n is None else n}"
        for lib, n in threads.blas_threads().items()
    )
    var = threads.env_override()
    override = f"{var}={os.environ[var]}" if var else "none"
    print(f"CPU budget: {threads.cpu_budget()} affinity cores; "
          f"OpenBLAS threads: {blas}; env override: {override}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit a synthetic coregional ST model")
    f.add_argument("--nv", type=int, default=1)
    f.add_argument("--ns", type=int, default=40)
    f.add_argument("--nt", type=int, default=6)
    f.add_argument("--nr", type=int, default=2)
    f.add_argument("--obs", type=int, default=40)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--s1", type=int, default=4, help="parallel fobj evaluations")
    f.add_argument("--s2", action="store_true", help="factorize Qp/Qc concurrently")
    f.add_argument("--max-iter", type=int, default=60)
    f.set_defaults(func=_cmd_fit)

    s = sub.add_parser("solver", help="benchmark the structured solver")
    s.add_argument("--n", type=int, default=32)
    s.add_argument("--b", type=int, default=64)
    s.add_argument("--a", type=int, default=8)
    s.add_argument("--ranks", type=int, default=2)
    s.add_argument("--lb", type=float, default=1.6)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_solver)

    sp = sub.add_parser("spmd", help="demo the SPMD launcher and comm backends")
    sp.add_argument("--procs", type=int, default=4, help="number of SPMD ranks")
    sp.add_argument("--backend", choices=("proc", "threads"), default="proc")
    sp.add_argument("--n", type=int, default=24)
    sp.add_argument("--b", type=int, default=32)
    sp.add_argument("--a", type=int, default=4)
    sp.add_argument("--lb", type=float, default=1.6)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_spmd)

    sv = sub.add_parser("serve", help="demo the posterior serving tier")
    sv.add_argument("--nv", type=int, default=1)
    sv.add_argument("--ns", type=int, default=40)
    sv.add_argument("--nt", type=int, default=12)
    sv.add_argument("--nr", type=int, default=2)
    sv.add_argument("--obs", type=int, default=40)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--concurrency", type=int, default=16)
    sv.add_argument("--requests", type=int, default=32, help="requests per client")
    sv.add_argument("--max-batch", type=int, default=128)
    sv.set_defaults(func=_cmd_serve)

    c = sub.add_parser(
        "calibrate", help="measure the blocked-POTRF crossover on this host"
    )
    c.add_argument("--repeats", type=int, default=5)
    c.add_argument("--sizes", type=str, default="",
                   help="comma-separated block sizes (default 32..256)")
    c.set_defaults(func=_cmd_calibrate)

    pr = sub.add_parser("predict", help="paper-scale runtime prediction")
    pr.add_argument("--nv", type=int, default=3)
    pr.add_argument("--ns", type=int, default=1675)
    pr.add_argument("--nt", type=int, default=192)
    pr.add_argument("--nr", type=int, default=1)
    pr.add_argument("--gpus", type=int, default=62)
    pr.set_defaults(func=_cmd_predict)

    d = sub.add_parser("datasets", help="print the paper's Table IV")
    d.set_defaults(func=_cmd_datasets)

    b = sub.add_parser("backends", help="list registered execution backends")
    b.set_defaults(func=_cmd_backends)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
