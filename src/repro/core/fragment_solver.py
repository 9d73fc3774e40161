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

from dataclasses import dataclass, field, replace

import numpy as np

from repro.atoms.structure import Structure
from repro.core.division import SpatialDivision
from repro.core.fragment_task import (
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    TaskProblem,
    build_task_problem,
    seed_task_problem,
)
from repro.core.fragments import Fragment
from repro.core.passivation import PassivationResult, passivate_fragment
from repro.pw.basis import PlaneWaveBasis
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.hartree import hartree_potential
from repro.pw.pseudopotential import PseudopotentialSet


@dataclass
class FragmentSolveResult:
    """Output of one fragment solve within one LS3DF iteration.

    Attributes
    ----------
    fragment:
        The fragment that was solved.
    eigenvalues:
        Fragment band energies (Hartree).
    density:
        Electron density on the fragment-box grid.
    quantum_energy:
        sum_i occ_i <psi_i| T + V_sr + V_NL |psi_i> of the fragment — the
        piece entering the patched total energy E = sum_F alpha_F E_F.
    band_energy:
        sum_i occ_i eps_i with the full (screened) fragment Hamiltonian.
    solver_iterations:
        Iterations used by the iterative eigensolver.
    converged:
        Eigensolver convergence flag.
    wall_time:
        Wall-clock seconds of this fragment's solve.
    worker_pid:
        PID of the process that executed the solve.
    """

    fragment: Fragment
    eigenvalues: np.ndarray
    density: np.ndarray
    quantum_energy: float
    band_energy: float
    solver_iterations: int
    converged: bool
    wall_time: float = 0.0
    worker_pid: int = 0


@dataclass
class FragmentProblem:
    """Static (iteration-independent) data of one fragment's Kohn-Sham problem.

    Construction is the expensive "setup" the paper eliminated from the per-
    iteration cost by storing everything in the LS3DF global module; here it
    is built once by :class:`FragmentSolver`, seeded into the shared
    per-process task-problem cache, and reused every iteration.  The
    numerical pieces (grid, basis, Hamiltonian, band counts) live on the
    wrapped :class:`~repro.core.fragment_task.TaskProblem` — the single
    copy every backend uses — and are exposed here as read-only views.
    """

    fragment: Fragment
    structure: Structure
    passivation: PassivationResult
    ionic_density: np.ndarray
    task_problem: TaskProblem = field(repr=False)
    # Fixed passivation correction Delta V_F (see
    # FragmentSolver.passivation_potential); computed once, reused every
    # iteration.  None until first requested or for unpassivated fragments.
    passivation_potential: np.ndarray | None = field(default=None, repr=False)

    @property
    def grid(self) -> FFTGrid:
        return self.task_problem.grid

    @property
    def basis(self) -> PlaneWaveBasis:
        return self.task_problem.basis

    @property
    def hamiltonian(self) -> Hamiltonian:
        return self.task_problem.hamiltonian

    @property
    def nelectrons(self) -> int:
        return self.task_problem.nelectrons

    @property
    def nbands(self) -> int:
        return self.task_problem.nbands

    @property
    def occupations(self) -> np.ndarray:
        return self.task_problem.occupations


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
        self._problems: dict[str, FragmentProblem] = {}

    # ------------------------------------------------------------------
    def build_problem(self, fragment: Fragment) -> FragmentProblem:
        """Construct (or fetch the cached) static problem of one fragment."""
        key = fragment.label
        if key in self._problems:
            return self._problems[key]
        passivation = passivate_fragment(self.division, fragment)
        structure = passivation.structure
        grid = self.division.fragment_grid(fragment)
        # The basis/Hamiltonian/occupations construction is the shared
        # kernel's — one build path for this solver and the pool workers.
        template = self._static_task(fragment, structure, grid)
        task_problem = build_task_problem(template)
        ionic_density = self.pseudopotentials.ionic_density(structure, grid)
        # Seed the shared per-process cache so in-process kernels (the
        # serial backend, loopback workers) reuse this Hamiltonian.
        # Process pools benefit too on fork platforms: workers forked at
        # first use inherit the seeded cache copy-on-write.
        seed_task_problem(task_problem)
        problem = FragmentProblem(
            fragment=fragment,
            structure=structure,
            passivation=passivation,
            ionic_density=ionic_density,
            task_problem=task_problem,
        )
        self._problems[key] = problem
        return problem

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
        )

    # ------------------------------------------------------------------
    def passivation_potential(self, problem: FragmentProblem) -> np.ndarray | None:
        """The fixed passivation correction Delta V_F of one fragment.

        Electrostatic potential of the *neutral* passivant pseudo-atoms:
        the compact ionic Gaussian minus a diffuse electron cloud of the
        same total charge.  This terminates the cut bonds without
        injecting a net monopole into the fragment box.  The term is
        iteration-independent — only the restricted global potential
        changes between outer iterations — so it is computed once per
        fragment and cached on the problem; warm iterations reuse the
        array instead of redoing the per-fragment Hartree solves every
        Gen_VF.  Returns ``None`` for unpassivated fragments.
        """
        if not problem.passivation.n_passivants:
            return None
        if problem.passivation_potential is None:
            passivants = problem.passivation.passivant_indices
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
            problem.passivation_potential = hartree_potential(
                rho_ion_pass - rho_cloud_pass, problem.grid
            )
        return problem.passivation_potential

    def fragment_screening_potential(
        self, problem: FragmentProblem, restricted_potential: np.ndarray
    ) -> np.ndarray:
        """Combine the restricted global potential with the fragment's own parts.

        The restriction of the *global* screening potential carries the
        electrostatics of the whole system; the passivation atoms (absent
        from the global system) additionally contribute the fixed (cached)
        passivation potential Delta V_F of the paper: nonzero only near
        the fragment boundary.
        """
        if restricted_potential.shape != problem.grid.shape:
            raise ValueError("restricted potential shape mismatch")
        v = restricted_potential
        delta_v = self.passivation_potential(problem)
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
        v_screen = self.fragment_screening_potential(problem, restricted_potential)
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
        global_potential_key: str | None = None,
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

        With ``global_potential_key`` set (the PR 6 install channel) the
        task references the potential by fingerprint instead of carrying
        the array — the caller must have installed ``global_potential``
        under that key through the executor first.
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
            global_potential=None if global_potential_key else global_potential,
            box_indices=self.division.global_indices(fragment, interior_only=False),
            interior_slice=box.interior_slice,
            passivation_potential=self.passivation_potential(problem),
            global_potential_key=global_potential_key,
        )

    @staticmethod
    def result_from_task(
        fragment: Fragment, result: FragmentTaskResult
    ) -> FragmentSolveResult:
        """Attach the fragment object to a kernel result."""
        if result.label != fragment.label:
            raise ValueError(
                f"task result {result.label!r} does not match fragment "
                f"{fragment.label!r}"
            )
        return FragmentSolveResult(
            fragment=fragment,
            eigenvalues=result.eigenvalues,
            density=result.density,
            quantum_energy=result.quantum_energy,
            band_energy=result.band_energy,
            solver_iterations=result.solver_iterations,
            converged=result.converged,
            wall_time=result.wall_time,
            worker_pid=result.worker_pid,
        )

    # ------------------------------------------------------------------
    def problems(self) -> dict[str, FragmentProblem]:
        """All fragment problems built so far, keyed by fragment label."""
        return dict(self._problems)
