"""DALIA reproduction: accelerated spatio-temporal Bayesian modeling for
multivariate Gaussian processes (Gaedke-Merzhaeuser, Maillou et al., SC 2025).

Public API quick map (everything below is importable from ``repro``
directly — deep module paths stay available but are not needed):

- build a model: :class:`CoregionalSTModel` (or :func:`make_dataset` for
  synthetic data of any Table IV shape);
- run inference: :class:`DALIA` (``fit`` -> posterior marginals of
  hyperparameters and latent field) returning an :class:`INLAResult`;
- query a fitted posterior: :class:`LatentPosterior` (sampling,
  prediction, exceedance — all served from one cached factorization);
- serve many queriers: :mod:`repro.serving` — typed requests
  (:class:`PredictRequest` / :class:`SampleRequest` /
  :class:`ExceedanceRequest`) through a :class:`Server` micro-batcher
  over a byte-budgeted :class:`ModelRegistry`;
- structured solvers: :func:`factorize` -> :class:`BTAFactor` handles,
  with :func:`select_solver` / :class:`SequentialSolver` /
  :class:`DistributedSolver` choosing the execution strategy;
- baselines: :class:`repro.baselines.RINLAEngine`,
  :class:`repro.baselines.INLADistEngine`;
- scaling predictions: :mod:`repro.perfmodel`.

See README.md for a quickstart and DESIGN.md for the full system map.
"""

__version__ = "1.3.0"

from repro import errors, faults, serving
from repro.errors import ReproError, is_transient
from repro.faults import FaultPlan, FaultSpec
from repro.inla.dalia import DALIA, INLAResult
from repro.inla.sampling import LatentPosterior
from repro.inla.solvers import (
    DistributedSolver,
    SequentialSolver,
    StructuredSolver,
    select_solver,
)
from repro.model.assembler import CoregionalSTModel, ResponseData
from repro.model.datasets import TABLE_IV, make_dataset
from repro.serving import (
    ExceedanceRequest,
    ExceedanceResult,
    ModelRegistry,
    PredictRequest,
    PredictResult,
    SampleRequest,
    SampleResult,
    Server,
)
from repro.structured.factor import BTAFactor, DistributedBTAFactor, factorize
from repro.backend.threads import apply_budget

# Process-wide side effect: pin both bundled OpenBLAS copies to one
# thread (unless OPENBLAS_NUM_THREADS / OMP_NUM_THREADS is set) so the
# package's own S1/S2/S3 layers own the cores — see repro.backend.threads.
apply_budget()

__all__ = [
    # modeling + inference
    "DALIA",
    "INLAResult",
    "CoregionalSTModel",
    "ResponseData",
    "make_dataset",
    "TABLE_IV",
    # posterior queries
    "LatentPosterior",
    # serving tier
    "serving",
    "Server",
    "ModelRegistry",
    "PredictRequest",
    "PredictResult",
    "SampleRequest",
    "SampleResult",
    "ExceedanceRequest",
    "ExceedanceResult",
    # structured solver handles + dispatch
    "factorize",
    "BTAFactor",
    "DistributedBTAFactor",
    "StructuredSolver",
    "SequentialSolver",
    "DistributedSolver",
    "select_solver",
    # resilience: unified errors + deterministic fault injection
    "errors",
    "faults",
    "ReproError",
    "is_transient",
    "FaultPlan",
    "FaultSpec",
    "__version__",
]
