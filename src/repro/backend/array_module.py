"""NumPy/CuPy array-module shim (thin veneer over :mod:`repro.backend.protocol`).

The DALIA paper implements every dense block kernel through the CuPy/NumPy
compatible API so the same code drives both host and device execution.
The formal contract now lives in :mod:`repro.backend.protocol` (the
:class:`~repro.backend.protocol.Backend` protocol with capability flags
and allocator hooks); this module keeps the historical free-function
entry points as delegating wrappers so existing call sites — and the
flop accounting layered on top (see :mod:`repro.perfmodel`) — keep
working unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.backend.protocol import NUMPY_BACKEND, backend_for, get_backend

_DEFAULT_DTYPE = np.float64


def is_host_module(xp) -> bool:
    """True when ``xp`` is NumPy (enables the SciPy/LAPACK fast paths)."""
    return xp is np


def get_array_module(*arrays) -> "module":
    """Return the array module that owns the given arrays.

    Mirrors ``cupy.get_array_module``: inspects the arguments and returns
    the module that created them.  Resolution goes through the backend
    registry (:func:`repro.backend.protocol.backend_for`), so registering
    a device backend makes device arrays route here without code changes.
    """
    return backend_for(*arrays).xp


def asarray(a, dtype=None):
    """Convert ``a`` to a default-backend array without copying when possible."""
    return get_backend().asarray(a, dtype=dtype)


def empty_blocks(n: int, b: int, *, dtype=None) -> np.ndarray:
    """Allocate an uninitialized C-contiguous stack of ``n`` ``b x b`` blocks.

    The structured solvers store block diagonals as ``(n, b, b)`` stacks so
    per-block LAPACK calls hit contiguous memory (guide: beware of cache
    effects; smaller strides are faster).
    """
    return NUMPY_BACKEND.empty_blocks(n, b, dtype=dtype)


def zeros_blocks(n: int, b: int, *, dtype=None) -> np.ndarray:
    """Allocate a zeroed C-contiguous stack of ``n`` ``b x b`` blocks."""
    return NUMPY_BACKEND.zeros_blocks(n, b, dtype=dtype)
