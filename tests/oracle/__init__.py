"""Test-only reference implementations (oracles) for the production paths.

- :mod:`.dense` — dense ``np.linalg`` ground truth (``cholesky`` /
  ``slogdet`` / ``inv``) for every structured entry point;
- :mod:`.kernels` — the per-block SciPy/LAPACK block kernels;
- :mod:`.blocked` — the per-block sequential BTA solvers (``pobtaf`` /
  ``pobtas`` / ``pobtas_lt`` / ``pobtasi``), one block at a time;
- :mod:`.distributed` — the per-block nested-dissection elimination and
  the distributed solve sweeps built on it;
- :mod:`.assembly` — the scipy-sparse ``sp.kron`` assembly path that the
  symbolic assembly plan replaces.

The production solvers run only the batched block-dense kernels; these
modules exist so the tests (and the A/B benchmarks) can compare them
against an independent implementation at a fixed tolerance (1e-10).
"""

from tests.oracle.blocked import logdet, pobtaf, pobtas, pobtas_lt, pobtasi
from tests.oracle.distributed import d_logdet, d_pobtaf, d_pobtas, d_pobtas_lt

__all__ = [
    "d_logdet",
    "d_pobtaf",
    "d_pobtas",
    "d_pobtas_lt",
    "logdet",
    "pobtaf",
    "pobtas",
    "pobtas_lt",
    "pobtasi",
]
