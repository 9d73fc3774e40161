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

from repro.core.fragments import Fragment, enumerate_fragments, fragment_weight, coverage_map
from repro.core.division import SpatialDivision
from repro.core.passivation import passivate_fragment
from repro.core.patching import (
    restrict_to_fragment,
    patch_fragment_fields,
    patch_contributions,
    patching_identity_residual,
    tree_reduce_fields,
)
from repro.core.genpot import GlobalPotentialSolver
from repro.core.fragment_task import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    clear_problem_cache,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.core.fragment_solver import FragmentSolver
from repro.core.scf import LS3DFSCF, LS3DFResult, IterationTimings
from repro.core.driver import LS3DF
from repro.core.compare import compare_ls3df_to_direct, ComparisonReport

__all__ = [
    "Fragment",
    "enumerate_fragments",
    "fragment_weight",
    "coverage_map",
    "SpatialDivision",
    "passivate_fragment",
    "restrict_to_fragment",
    "patch_fragment_fields",
    "patch_contributions",
    "patching_identity_residual",
    "tree_reduce_fields",
    "GlobalPotentialSolver",
    "ExecutionReport",
    "FragmentExecutor",
    "FragmentPipelineTask",
    "FragmentTask",
    "FragmentTaskResult",
    "clear_problem_cache",
    "run_fragment_pipeline_task",
    "solve_fragment_task",
    "FragmentSolver",
    "LS3DFSCF",
    "LS3DFResult",
    "IterationTimings",
    "LS3DF",
    "compare_ls3df_to_direct",
    "ComparisonReport",
]
