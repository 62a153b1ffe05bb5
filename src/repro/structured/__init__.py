"""Structured sparse linear algebra for BT / BTA matrices (Serinv substrate).

The precision matrices arising in DALIA's spatio-temporal models are
block-tridiagonal (BT, the prior ``Qp``) or block-tridiagonal with an
arrowhead (BTA, the conditional ``Qc``; paper Fig. 2).  This package
implements the three bottleneck operations on their *densified-block*
representation:

- Cholesky factorization      (``pobtaf``  / distributed ``d_pobtaf``)
- triangular solve            (``pobtas``  / distributed ``d_pobtas`` —
  the P POBTAS routine the paper contributes)
- selected inversion          (``pobtasi`` / distributed ``d_pobtasi``)

Naming follows Serinv: ``po`` (positive definite) + ``bta`` (block
tridiagonal arrowhead) + ``f``/``s``/``si``.  The distributed variants use
the nested-dissection time-domain partitioning of paper Sec. IV-C/D3 with
the boundary-weighted load balancing studied in Fig. 5.

Every solver runs on the stacked/fused block kernels of
:mod:`repro.structured.batched` — see ``README.md`` in this package for
the layering and the measured comparison against a per-block reference.

Sampling / smart-gradient workloads that drive many right-hand sides
through one factor use the stacked multi-RHS interface of
:mod:`repro.structured.multirhs` (``pobtas_stack`` / ``pobtas_lt_stack``
/ ``d_pobtas_stack`` / ``d_pobtas_lt_stack``) so ``k`` right-hand sides
cost one loop-carried pass, and the fused ``pobtasi_with_solve`` when
means and marginal variances are needed from the same factor.

Consumers that derive several quantities from one matrix should hold a
**factorization handle** (:mod:`repro.structured.factor`):
``factorize(A)`` / ``d_factorize(A, P)`` run the factorization once and
the returned :class:`BTAFactor` / :class:`DistributedBTAFactor` serves
``logdet`` / solves / selected inversion / sampling from it.
"""

from repro.structured.bta import BTAMatrix, BTAShape, BTAStack
from repro.structured.partition import Partition, balanced_partitions, partition_counts
from repro.structured.pobtaf import FACTORIZATIONS, pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import pobtasi, pobtasi_with_solve
from repro.structured.multirhs import (
    d_pobtas_lt_stack,
    d_pobtas_stack,
    pobtas_lt_stack,
    pobtas_stack,
)
from repro.structured.factor import (
    BTAFactor,
    DistributedBTAFactor,
    d_factorize,
    factorize,
)
from repro.structured.multifactor import BTAFactorBatch, factorize_batch
from repro.structured.d_pobtaf import DistributedFactors, d_pobtaf
from repro.structured.d_pobtas import d_pobtas, d_pobtas_lt
from repro.structured.d_pobtasi import d_pobtasi, d_pobtasi_diag
from repro.structured.reduced_system import ReducedSystem

__all__ = [
    "BTAMatrix",
    "BTAShape",
    "BTAStack",
    "BTAFactor",
    "BTAFactorBatch",
    "DistributedBTAFactor",
    "FACTORIZATIONS",
    "factorize",
    "factorize_batch",
    "d_factorize",
    "Partition",
    "balanced_partitions",
    "partition_counts",
    "pobtaf",
    "pobtas",
    "pobtas_lt",
    "pobtas_stack",
    "pobtas_lt_stack",
    "pobtasi",
    "pobtasi_with_solve",
    "DistributedFactors",
    "d_pobtaf",
    "d_pobtas",
    "d_pobtas_lt",
    "d_pobtas_stack",
    "d_pobtas_lt_stack",
    "d_pobtasi",
    "d_pobtasi_diag",
    "ReducedSystem",
]
