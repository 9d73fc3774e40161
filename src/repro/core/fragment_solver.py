"""PEtot_F problem construction: passivation, screening potential, tasks.

Each LS3DF fragment is an independent periodic plane-wave problem in its
buffered box Omega_F: the Hamiltonian is built from the fragment's own
atoms plus the passivation atoms (short-range local potential, smeared
ionic potential, Kleinman-Bylander projectors), while the *self-consistent*
screening part comes from the restriction of the global input potential
produced by Gen_VF.

:class:`FragmentSolver` owns the parts of PEtot_F that need the spatial
division — passivation and the fragment screening potential — and turns
them into picklable :class:`~repro.core.fragment_task.FragmentTask`
descriptions.  The solve itself is the shared kernel
:func:`repro.core.fragment_task.solve_fragment_task`, the same code every
execution backend in :mod:`repro.parallel.executor` runs; this class adds
no second solve path.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from repro.atoms.structure import Structure
from repro.core.division import SpatialDivision
from repro.core.fragment_task import (
    FragmentPipelineTask,
    FragmentTask,
    TaskProblem,
    get_task_problem,
)
from repro.core.fragments import Fragment
from repro.core.passivation import PassivationResult, passivate_fragment
from repro.pw.grid import FFTGrid
from repro.pw.hartree import hartree_potential
from repro.pw.pseudopotential import PseudopotentialSet


class FragmentSolver:
    """Builds the Kohn-Sham problems and solve tasks of all fragments.

    Parameters
    ----------
    division:
        The spatial division of the supercell.
    pseudopotentials:
        Model pseudopotential set (shared with the global solver).
    ecut:
        Plane-wave cutoff for the fragment problems (Hartree).
    n_empty:
        Guard bands per fragment: iterated and returned, not gated.

    Every fragment is passivated with partially charged pseudo-hydrogens
    (H_cation / H_anion) and solved by the all-band CG, as in the paper.

    The static problem of each fragment is built once per process — the
    paper's "store everything in the LS3DF global module" — in the one
    problem cache every backend's kernel uses
    (:func:`~repro.core.fragment_task.get_task_problem`); this solver keeps
    only the fragment's passivation result in :attr:`passivations` and its
    cached Delta V_F beside it.
    """

    def __init__(
        self,
        division: SpatialDivision,
        pseudopotentials: PseudopotentialSet,
        ecut: float,
        n_empty: int = 2,
    ) -> None:
        self.division = division
        self.pseudopotentials = pseudopotentials
        self.ecut = float(ecut)
        self.n_empty = int(n_empty)
        # The division signature (structure + grids + buffer) salted with the
        # parameters that shape the warm-start coefficients: the checkpoint
        # compatibility digest and the scope of the per-process problem cache.
        h = hashlib.sha256(division.signature().encode())
        h.update(np.float64(self.ecut).tobytes())
        h.update(np.int64(self.n_empty).tobytes())
        self.problem_signature = h.hexdigest()
        self.passivations: dict[str, PassivationResult] = {}
        self._passivation_potentials: dict[str, np.ndarray | None] = {}

    # ------------------------------------------------------------------
    def build_problem(self, fragment: Fragment) -> TaskProblem:
        """The static problem of one fragment, from the per-process cache
        (built there on first use; pool workers forked later inherit it)."""
        passivation = self.passivations.get(fragment.label)
        if passivation is None:
            passivation = self.passivations[fragment.label] = passivate_fragment(self.division, fragment)
        grid = self.division.fragment_grid(fragment)
        return get_task_problem(self._static_task(fragment, passivation.structure, grid))

    def _static_task(
        self,
        fragment: Fragment,
        structure: Structure,
        grid: FFTGrid,
        screening_potential: np.ndarray | None = None,
    ) -> FragmentTask:
        """Task skeleton carrying the static problem data."""
        return FragmentTask(
            label=fragment.label,
            cell=tuple(grid.cell),
            grid_shape=tuple(grid.shape),
            symbols=list(structure.symbols),
            positions=structure.positions,
            screening_potential=screening_potential,
            ecut=self.ecut,
            n_empty=self.n_empty,
            pseudopotentials=self.pseudopotentials,
            weight=fragment.weight,
            ncells=fragment.ncells,
            problem_signature=self.problem_signature,
        )

    # ------------------------------------------------------------------
    def passivation_potential(self, fragment: Fragment) -> np.ndarray | None:
        """The fixed passivation correction Delta V_F of one fragment.

        Electrostatic potential of the *neutral* passivant pseudo-atoms:
        the compact ionic Gaussian minus a diffuse electron cloud of the
        same total charge.  This terminates the cut bonds without
        injecting a net monopole into the fragment box.  The term is
        iteration-independent — only the restricted global potential
        changes between outer iterations — so it is computed once per
        fragment and cached; warm iterations reuse the array instead of
        redoing the per-fragment Hartree solves every Gen_VF.  Returns
        ``None`` for unpassivated fragments.
        """
        key = fragment.label
        if key in self._passivation_potentials:
            return self._passivation_potentials[key]
        problem = self.build_problem(fragment)
        passivation = self.passivations[key]
        delta_v = None
        if passivation.n_passivants:
            passivants = passivation.passivant_indices
            sub = Structure(
                problem.structure.cell,
                [problem.structure.symbols[i] for i in passivants],
                problem.structure.positions[passivants],
            )
            rho_ion_pass = self.pseudopotentials.ionic_density(sub, problem.grid)
            cloud_overrides = {}
            for sym in set(sub.symbols):
                pp = self.pseudopotentials[sym]
                cloud_overrides[sym] = replace(pp, core_width=2.0 * pp.core_width)
            cloud_set = self.pseudopotentials.with_override(cloud_overrides)
            rho_cloud_pass = cloud_set.ionic_density(sub, problem.grid)
            delta_v = hartree_potential(rho_ion_pass - rho_cloud_pass, problem.grid)
        self._passivation_potentials[key] = delta_v
        return delta_v

    def fragment_screening_potential(
        self, fragment: Fragment, restricted_potential: np.ndarray
    ) -> np.ndarray:
        """Combine the restricted global potential with the fragment's own parts.

        The restriction of the *global* screening potential carries the
        electrostatics of the whole system; the passivation atoms (absent
        from the global system) additionally contribute the fixed (cached)
        passivation potential Delta V_F of the paper: nonzero only near
        the fragment boundary.
        """
        if restricted_potential.shape != self.build_problem(fragment).grid.shape:
            raise ValueError("restricted potential shape mismatch")
        v = restricted_potential
        delta_v = self.passivation_potential(fragment)
        if delta_v is not None:
            v = v - delta_v
        return v

    # ------------------------------------------------------------------
    def make_task(
        self,
        fragment: Fragment,
        restricted_potential: np.ndarray,
        eigensolver_tolerance: float = 1e-5,
        eigensolver_iterations: int = 60,
        initial_coefficients: np.ndarray | None = None,
    ) -> FragmentTask:
        """Picklable solve task for one fragment and one input potential.

        This is what :class:`repro.core.scf.LS3DFSCF` hands to its
        execution backend every outer iteration.
        """
        problem = self.build_problem(fragment)
        v_screen = self.fragment_screening_potential(fragment, restricted_potential)
        task = self._static_task(
            fragment, problem.structure, problem.grid, screening_potential=v_screen
        )
        task.tolerance = float(eigensolver_tolerance)
        task.max_iterations = int(eigensolver_iterations)
        task.initial_coefficients = initial_coefficients
        return task

    def make_pipeline_task(
        self,
        fragment: Fragment,
        global_potential: np.ndarray,
        eigensolver_tolerance: float = 1e-5,
        eigensolver_iterations: int = 60,
        initial_coefficients: np.ndarray | None = None,
    ) -> FragmentPipelineTask:
        """Fused Gen_VF -> PEtot_F -> Gen_dens task for one fragment.

        Unlike :meth:`make_task`, the screening potential is *not*
        assembled here: the task carries the global input potential, the
        fragment's gather/scatter index maps and the cached passivation
        correction, and the worker performs the restriction, the solve and
        the weighted-interior extraction itself
        (:func:`repro.core.fragment_task.run_fragment_pipeline_task`).
        This is what :class:`repro.core.scf.LS3DFSCF` hands to its
        executor every outer iteration.
        """
        if global_potential.shape != self.division.global_grid.shape:
            raise ValueError("global potential shape mismatch")
        problem = self.build_problem(fragment)
        task = self._static_task(fragment, problem.structure, problem.grid)
        task.tolerance = float(eigensolver_tolerance)
        task.max_iterations = int(eigensolver_iterations)
        task.initial_coefficients = initial_coefficients
        box = self.division.fragment_box(fragment)
        return FragmentPipelineTask(
            task=task,
            global_potential=global_potential,
            box_indices=self.division.global_indices(fragment, interior_only=False),
            interior_slice=box.interior_slice,
            passivation_potential=self.passivation_potential(fragment),
        )
