"""One process-wide CPU budget.

The paper parallelizes across stencil evaluations (S1), the ``Qp``/``Qc``
pair (S2) and the distributed solver (S3).  Multi-threaded BLAS under
those layers only oversubscribes the cores: every SPMD rank, serving tick
and S1 worker would run its own BLAS team on the same CPUs, and the BLAS
thread count also changes the bits of a fit.  So ``import repro`` runs
:func:`apply_budget` once, which sets both OpenBLAS copies that ship in
the numpy and scipy wheels to one thread, and the package spends the
cores of :func:`cpu_budget` on its own layers instead (see
:class:`repro.inla.evaluator.FobjEvaluator`).

The pin is a process-wide side effect of the import, never scoped or
restored: served responses are compared bit for bit against direct
calls, and 1- vs 2-thread BLAS gives different bits, so a scoped pin
would make answers depend on which scope was open.  Setting
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` opts out: BLAS is then
left as the environment configured it.  Worker processes inherit the pin
under ``fork`` and re-apply it when they re-import the package under
``spawn``.

Standard library and ctypes only; a missing library or symbol (another
BLAS build, a platform without these wheels) makes every call a no-op.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import logging
import os

logger = logging.getLogger(__name__)

#: Environment variables that, when set, leave BLAS threading alone.
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: The bundled OpenBLAS copies: package, wheel library directory, file
#: pattern and the ``{set,get}`` thread-count symbol template.
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so*", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so*", "scipy_openblas_{}_num_threads"),
)

_applied = False


def cpu_budget() -> int:
    """Cores this process may run on (its CPU affinity)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def env_override() -> str | None:
    """The thread-count variable the user set, or None."""
    return next((v for v in ENV_VARS if os.environ.get(v, "").strip()), None)


def _symbol(package: str, libdir: str, pattern: str, name: str):
    """``name`` from one bundled OpenBLAS copy, or None when absent."""
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return None
    root = os.path.dirname(list(spec.submodule_search_locations)[0])
    for path in sorted(glob.glob(os.path.join(root, libdir, pattern))):
        try:
            fn = getattr(ctypes.CDLL(path), name, None)
        except OSError:
            continue
        if fn is not None:
            return fn
    return None


def blas_threads() -> dict:
    """Each OpenBLAS copy's current thread count (None when not found)."""
    out = {}
    for package, libdir, pattern, template in _OPENBLAS:
        fn = _symbol(package, libdir, pattern, template.format("get"))
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
        out[package] = None if fn is None else int(fn())
    return out


def apply_budget() -> None:
    """Pin BLAS to one thread unless the environment chose a count.

    Runs once per process (``import repro`` calls it); later calls do
    nothing.  The decision is logged once on this module's logger.
    """
    global _applied
    if _applied:
        return
    _applied = True
    var = env_override()
    if var is not None:
        logger.info("BLAS threads left to %s=%s", var, os.environ[var])
        return
    found = []
    for package, libdir, pattern, template in _OPENBLAS:
        fn = _symbol(package, libdir, pattern, template.format("set"))
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(1)
        found.append(f"{package}: {'pinned' if fn is not None else 'not found'}")
    logger.info(
        "BLAS threads on %d affinity cores: %s", cpu_budget(), ", ".join(found)
    )
