"""Historical import path of :class:`~repro.errors.NotPositiveDefiniteError`.

The per-block dense kernels that used to live here were the reference
path of the structured solvers; they now serve only as a test oracle.
"""

from repro.errors import NotPositiveDefiniteError

__all__ = ["NotPositiveDefiniteError"]
