"""The scipy-sparse assembly path — the reference for the symbolic plan.

Re-derives the joint prior through ``sp.kron`` products, the sparse LMC
block-mix, CSR adds, two alignment passes, the CSR permutation and a
fresh :meth:`BTAMapping.map <repro.sparse.mapping.BTAMapping.map>`
scatter: the per-theta cost profile that
:class:`repro.model.assembler.SymbolicAssembly` removes.  It is the
independent cross-check for the plan's values (and the baseline of
``benchmarks/bench_assembly.py``); it agrees with
:meth:`CoregionalSTModel.assemble` to rounding (1e-10), not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.model.assembler import AssembledSystem, CoregionalSTModel


def assemble_reference(model: CoregionalSTModel, theta: np.ndarray) -> AssembledSystem:
    """Assemble ``Qp`` / ``Qc`` / the information vector at ``theta``."""
    theta = model.layout.validate(theta)
    taus = model.layout.taus(theta)

    qp = model._align_p.align(model._joint_prior(theta))
    qc_var = qp + sum(tau * g for tau, g in zip(taus, model._grams))
    qc = model._align_c.align(qc_var)

    qp_perm = model._perm_p.apply(qp)
    qc_perm = model._perm_c.apply(qc)
    rhs = model.permutation.permute_vector(model.likelihood.information_vector(model.A, taus))
    return AssembledSystem(
        theta=theta,
        qp=model._map_p.map(qp_perm),
        qc=model._map_c.map(qc_perm),
        qp_csr=qp_perm,
        rhs=rhs,
        taus=taus,
    )
