"""Environment record printed with every run.

The benchmark reads the thread settings it runs under and never changes
them: the oversubscription that ``fit-trivariate`` and ``spmd-epoch``
expose depends on the default BLAS thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os


def _blas_threads(package, libdir: str, pattern: str, symbol: str):
    """Thread count reported by one of the bundled OpenBLAS copies."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(package.__file__)))
    for path in glob.glob(os.path.join(root, libdir, pattern)):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, symbol, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
        "blas_threads_numpy": _blas_threads(
            numpy, "numpy.libs", "libscipy_openblas64_*.so*",
            "scipy_openblas_get_num_threads64_",
        ),
        "blas_threads_scipy": _blas_threads(
            scipy, "scipy.libs", "libscipy_openblas-*.so*",
            "scipy_openblas_get_num_threads",
        ),
    }
