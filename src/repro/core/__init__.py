"""Core LS3DF algorithm — the paper's primary contribution.

The linearly scaling three-dimensional fragment (LS3DF) method divides a
periodic supercell into an ``m1 x m2 x m3`` grid of cells and, from every
grid corner, derives 8 overlapping fragments (sizes 1x1x1 ... 2x2x2 cells)
carrying weights +1/-1 chosen so that artificial boundary (surface, edge,
corner) effects cancel between fragments while every interior point of the
system is represented exactly once.  Each self-consistent iteration then
performs the paper's four steps:

* **Gen_VF**   (:mod:`repro.core.patching`)    — restrict the global input
  potential to every fragment box and add the fixed passivation potential;
* **PEtot_F**  (:mod:`repro.core.fragment_task` /
  :mod:`repro.core.fragment_solver`) — solve the Kohn-Sham eigenproblem of
  every fragment with the plane-wave substrate, dispatched through a
  pluggable execution backend (serial, process pool or remote workers;
  see :mod:`repro.parallel.executor`);
* **Gen_dens** (:mod:`repro.core.patching`)    — patch the weighted fragment
  densities into the global charge density;
* **GENPOT**   (:mod:`repro.core.genpot`)      — solve the global Poisson
  equation, add exchange-correlation, mix with previous iterations.

:mod:`repro.core.driver` exposes the high-level :class:`~repro.core.driver.LS3DF`
API; :mod:`repro.core.compare` provides the LS3DF-vs-direct-DFT accuracy
comparisons reported in the paper.
"""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "fragments": "Fragment enumerate_fragments fragment_weight coverage_map",
    "division": "SpatialDivision",
    "passivation": "passivate_fragment",
    "patching": "restrict_to_fragment patch_fragment_fields patch_contributions "
    "patching_identity_residual tree_reduce_fields",
    "genpot": "GlobalPotentialSolver",
    "fragment_task": "ExecutionReport FragmentExecutor FragmentPipelineTask FragmentTask "
    "FragmentTaskResult run_fragment_pipeline_task solve_fragment_task",
    "fragment_solver": "FragmentSolver",
    "scf": "LS3DFSCF LS3DFResult IterationTimings",
    "driver": "LS3DF",
    "compare": "compare_ls3df_to_direct ComparisonReport",
})
