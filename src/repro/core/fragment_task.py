"""The single fragment-solve kernel shared by every execution backend.

PEtot_F — solving each fragment's Kohn-Sham problem in its buffered,
passivated box — is the embarrassingly parallel step the paper exploits
for near-perfect scaling.  This module is the one place that step is
implemented:

* :class:`FragmentTask` is a *picklable*, self-contained description of
  one fragment solve (geometry, passivated atoms, screening potential,
  solver controls, optional warm-start wavefunctions), mirroring the way
  the production code ships fragment data between MPI groups rather than
  live solver objects.
* :func:`solve_fragment_task` executes one task.  It is the kernel the
  executors in :mod:`repro.parallel.executor` call in-process and from
  worker processes; one worker solves a whole fragment.
* A per-process cache of the static (iteration-independent) problem data
  — basis, Hamiltonian, occupations — reproduces the paper's "store
  everything in the LS3DF global module" optimisation: the expensive
  setup happens once per fragment per process, so the second and later
  outer iterations are cheap even inside pool workers.  It is scoped to
  one run: it holds the problems of one solver signature only.
* :class:`FragmentTaskResult` is the one per-fragment product — what a
  plain solve, a fused pipeline step, every executor and the SCF result
  all carry.
* :class:`FragmentExecutor` is the protocol every backend implements.

Every process that imports this module — the driver, a pool worker, a
``repro-worker``, a job slot — runs numpy's BLAS on one thread unless the
environment sets a count (:func:`repro.parallel.wire.pin_blas`): the bits
of a solve depend on the BLAS reduction order, so all of them must agree.

Layering note: this module deliberately depends only on the plane-wave
substrate (:mod:`repro.pw`), :mod:`repro.atoms` and the stdlib-only
:mod:`repro.parallel.wire` leaf (for that pin); the backends in
:mod:`repro.parallel.executor` depend on it, never the other way round.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.atoms.structure import Structure
from repro.parallel.wire import pin_blas
from repro.pw.basis import PlaneWaveBasis
from repro.pw.density import compute_density, occupations_for_insulator
from repro.pw.eigensolver import all_band_cg
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials

pin_blas()


@dataclass
class FragmentTask:
    """Self-contained description of one fragment solve (picklable).

    Attributes
    ----------
    label:
        Fragment label (bookkeeping; also the warm-start cache key).
    cell:
        Fragment box edge lengths (Bohr).
    grid_shape:
        Fragment FFT grid shape.
    symbols, positions:
        Fragment atoms (including passivants).
    screening_potential:
        The Gen_VF output for this fragment (restricted global potential
        plus passivation potential).  May be ``None`` on template tasks
        used only for fingerprinting/problem construction; a task handed
        to :func:`solve_fragment_task` must carry a real array.
    ecut:
        Plane-wave cutoff (Hartree).
    n_empty:
        Guard bands: iterated and returned, not gated (the solve ends when
        the occupied bands are converged).
    tolerance, max_iterations:
        Eigensolver controls.
    initial_coefficients:
        Optional warm-start wavefunctions (previous outer iteration).
    pseudopotentials:
        Model pseudopotential set; ``None`` means the default set.
    weight:
        The fragment's patching weight alpha_F (carried for bookkeeping).
    ncells:
        Number of grid cells the fragment covers (1..8).
    problem_signature:
        The owning solver's problem signature
        (:attr:`repro.core.fragment_solver.FragmentSolver.problem_signature`), the scope
        of the per-process static-problem cache; ad-hoc tasks share ``""``.
    """

    label: str
    cell: tuple[float, float, float]
    grid_shape: tuple[int, int, int]
    symbols: list[str]
    positions: np.ndarray
    screening_potential: np.ndarray | None
    ecut: float
    n_empty: int = 2
    tolerance: float = 1e-5
    max_iterations: int = 60
    initial_coefficients: np.ndarray | None = None
    pseudopotentials: PseudopotentialSet | None = None
    weight: int = 1
    ncells: int = 1
    problem_signature: str = ""

    def cost(self) -> float:
        """Relative cost for load balancing (grid volume as npw proxy)."""
        return float(np.prod(self.grid_shape))

    def static_fingerprint(self) -> str:
        """Digest of the iteration-independent problem data.

        Two tasks with equal fingerprints share basis, Hamiltonian and
        occupations, so the cached static problem may be reused across
        outer iterations (only the screening potential changes).
        """
        h = hashlib.sha256()
        h.update(self.label.encode())
        h.update(np.asarray(self.cell, dtype=float).tobytes())
        h.update(np.asarray(self.grid_shape, dtype=np.int64).tobytes())
        h.update(",".join(self.symbols).encode())
        h.update(np.ascontiguousarray(self.positions, dtype=float).tobytes())
        h.update(np.float64(self.ecut).tobytes())
        h.update(np.int64(self.n_empty).tobytes())
        if self.pseudopotentials is not None:
            h.update(self.pseudopotentials.fingerprint.encode())
        return h.hexdigest()


@dataclass(eq=False)
class FragmentTaskResult:
    """The product of one fragment solve — the only per-fragment record.

    A plain :func:`solve_fragment_task` fills the kernel fields; the fused
    :func:`run_fragment_pipeline_task` also fills ``contribution`` and the
    Gen_VF / Gen_dens times, and widens ``wall_time`` to the whole step.

    Attributes
    ----------
    label:
        The solved fragment's label (matches ``FragmentTask.label``).
    eigenvalues:
        Fragment band energies (Hartree), ascending.
    density:
        Electron density on the fragment-box grid.
    quantum_energy:
        sum_i occ_i <psi_i| T + V_sr + V_NL |psi_i> — the screened parts
        are assembled globally by GENPOT, so they are excluded here.
    band_energy:
        sum_i occ_i eps_i with the full (screened) fragment Hamiltonian.
    solver_iterations, converged:
        Eigensolver steps and convergence flag of the gated (occupied) bands;
        ``eigenvalues`` beyond them are guard-band Ritz values.
    wall_time:
        In-worker wall-clock seconds of the whole step (the solve, plus
        restriction and extraction on the fused path).
    worker_pid:
        PID of the process that executed the solve (distinguishes pool
        workers from the driver).
    coefficients:
        Converged wavefunctions (the next iteration's warm start).
    weight:
        The fragment's patching weight alpha_F.
    contribution:
        The alpha-weighted region interior of ``density`` — the exact
        array the Gen_dens reduction sums; ``None`` after a plain solve.
    gen_vf_time, gen_dens_time:
        In-worker seconds of the fused restriction and extraction (0 after
        a plain solve).
    """

    label: str
    eigenvalues: np.ndarray
    density: np.ndarray
    quantum_energy: float
    band_energy: float
    solver_iterations: int
    converged: bool
    wall_time: float
    worker_pid: int
    coefficients: np.ndarray
    weight: int = 1
    contribution: np.ndarray | None = None
    gen_vf_time: float = 0.0
    gen_dens_time: float = 0.0


@dataclass
class TaskProblem:
    """Static (iteration-independent) data of one fragment task's problem.

    Building this — plane-wave basis, Hamiltonian with non-local
    projectors — is the expensive setup the paper keeps resident in the
    LS3DF global module between iterations; here it is cached per process
    for one run, keyed by :meth:`FragmentTask.static_fingerprint`.

    Attributes
    ----------
    fingerprint:
        The owning task's static fingerprint (the cache key).
    structure:
        Fragment atoms (including passivants) in the box frame.
    grid, basis, hamiltonian:
        The fragment's FFT grid, plane-wave basis and Hamiltonian.
    nelectrons, nbands, occupations:
        Electron count, band count and fixed insulator occupations.
    noccupied:
        Number of bands that carry charge — the ones the all-band solver
        must converge, the rest are guard bands (1 in an empty box).
    lock:
        Guards the Hamiltonian's mutable potential during a solve (two
        same-fingerprint tasks may run concurrently on threads).
    """

    fingerprint: str
    structure: Structure
    grid: FFTGrid
    basis: PlaneWaveBasis
    hamiltonian: Hamiltonian
    nelectrons: int
    nbands: int
    occupations: np.ndarray
    noccupied: int
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


def build_task_problem(task: FragmentTask) -> TaskProblem:
    """Construct the static problem of one task (no caching).

    Parameters
    ----------
    task:
        Any task of the fragment; only the iteration-independent fields
        (geometry, grid, cutoff, band counts) are read, so a template
        task without a screening potential works.

    Returns
    -------
    TaskProblem
        Freshly built basis, Hamiltonian and occupations.  Most callers
        want :func:`get_task_problem`, which consults the per-process
        cache first.
    """
    structure = Structure(task.cell, list(task.symbols), task.positions)
    grid = FFTGrid(task.cell, task.grid_shape)
    basis = PlaneWaveBasis(grid, task.ecut)
    pps = task.pseudopotentials or default_pseudopotentials()
    hamiltonian = Hamiltonian.from_structure(structure, basis, pps)
    nelectrons = structure.total_valence_electrons()
    nbands = (nelectrons + 1) // 2 + int(task.n_empty)
    if nbands > basis.npw // 2:
        raise ValueError(
            f"fragment {task.label}: {nbands} bands exceed half the basis size "
            f"({basis.npw} plane waves); increase ecut or the grid density"
        )
    occupations = occupations_for_insulator(nelectrons, nbands)
    return TaskProblem(
        fingerprint=task.static_fingerprint(),
        structure=structure,
        grid=grid,
        basis=basis,
        hamiltonian=hamiltonian,
        nelectrons=nelectrons,
        nbands=nbands,
        occupations=occupations,
        noccupied=max(1, int(np.count_nonzero(occupations))),
    )


# Per-process static-problem cache, scoped to one run: {signature: {static
# fingerprint: problem}} with at most one signature.  Worker processes
# populate it on their first iteration and hit it afterwards — the reason
# LS3DF's "second iteration" is cheap holds inside pool workers too.  The
# first task of another signature drops the previous run's problems, so a
# long-lived process (a job slot, a pool worker, a repro-worker) pins the
# static data of the run it serves, never of every run it ever served.
_PROBLEMS: dict[str, dict[str, TaskProblem]] = {}
_PROBLEM_CACHE_LOCK = threading.Lock()


def _scope(signature: str) -> dict[str, TaskProblem]:
    """The cached problems of ``signature``, dropping any other run's (lock held)."""
    problems = _PROBLEMS.get(signature)
    if problems is None:
        _PROBLEMS.clear()
        problems = _PROBLEMS[signature] = {}
    return problems


def get_task_problem(task: FragmentTask) -> TaskProblem:
    """Fetch (or build and cache) the static problem of one task.

    Parameters
    ----------
    task:
        The task whose static problem is needed; its
        :meth:`FragmentTask.static_fingerprint` is the cache key and its
        ``problem_signature`` the cache's scope.

    Returns
    -------
    TaskProblem
        The cached problem when one with the same fingerprint exists in
        this process's scope, otherwise a freshly built (and newly cached)
        one.
    """
    key = task.static_fingerprint()
    with _PROBLEM_CACHE_LOCK:
        problem = _scope(task.problem_signature).get(key)
    if problem is None:
        problem = build_task_problem(task)
        with _PROBLEM_CACHE_LOCK:
            problem = _scope(task.problem_signature).setdefault(key, problem)
    return problem


def clear_problem_cache() -> None:
    """Drop all cached static problems (tests start from a cold process)."""
    with _PROBLEM_CACHE_LOCK:
        _PROBLEMS.clear()


def solve_fragment_task(
    task: FragmentTask, problem: TaskProblem | None = None
) -> FragmentTaskResult:
    """Solve one fragment task — THE shared PEtot_F kernel.

    Runs identically in the calling process (serial backend) and inside
    process-pool or remote workers.

    Parameters
    ----------
    task:
        The fragment solve description; must carry a real
        ``screening_potential`` array (``ValueError`` otherwise).
    problem:
        Optional pre-built static problem, bypassing the per-process
        cache lookup when the caller already holds the data.

    Returns
    -------
    FragmentTaskResult
        Eigenvalues, density, energies, solve bookkeeping and the
        converged wavefunctions.
    """
    t0 = time.perf_counter()
    if task.screening_potential is None:
        raise ValueError(f"task {task.label!r} has no screening potential")
    v_screen = np.asarray(task.screening_potential)
    if problem is None:
        problem = get_task_problem(task)
    hamiltonian = problem.hamiltonian
    with problem.lock:
        hamiltonian.set_effective_potential(v_screen)
        result = all_band_cg(
            hamiltonian,
            problem.nbands,
            initial=task.initial_coefficients,
            max_iterations=task.max_iterations,
            tolerance=task.tolerance,
            nconverge=problem.noccupied,
        )
        density = compute_density(
            problem.basis, result.coefficients, problem.occupations
        )
    band_energy = float(np.sum(problem.occupations * result.eigenvalues))
    # Quantum energy: kinetic + short-range ionic + nonlocal only (GENPOT
    # assembles the screened parts); the Ritz values are <x_i|H|x_i> on a
    # fresh image, so taking the screening share back out needs no H·psi.
    quantum_energy = band_energy - problem.grid.integrate(v_screen * density)
    return FragmentTaskResult(
        label=task.label,
        eigenvalues=result.eigenvalues,
        density=density,
        quantum_energy=quantum_energy,
        band_energy=band_energy,
        solver_iterations=result.iterations,
        converged=result.converged,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
        coefficients=result.coefficients,
        weight=task.weight,
    )


@dataclass
class FragmentPipelineTask:
    """Fused Gen_VF -> PEtot_F -> Gen_dens unit of work for one fragment.

    The plain :class:`FragmentTask` covers only the Kohn-Sham solve.  This
    task — the unit of work of every :class:`repro.core.scf.LS3DFSCF`
    iteration — fuses all three per-fragment steps into one picklable
    description, so a pool worker receives the global input potential plus
    index maps, performs restrict -> solve -> weighted-interior extraction
    locally, and ships back a single result: one round trip per fragment
    per SCF iteration and no per-fragment loop left on the driver.

    IPC trade-off (process pools): each submission carries the *global*
    potential inline instead of a box-sized restriction; at the scales
    this reproduction runs a driver-side restriction loop would cost more
    than the bytes.  On the golden ZnO 2x1x1 cell V_in is 16 KB, against
    64 KB of passivation potential per 1x1x1 fragment: a first-iteration
    1x1x1 task pickles to 83 KB, an unpassivated 2x1x1 one to 19 KB.
    The production code avoids both by point-to-point isend/irecv of
    box-sized pieces.

    Attributes
    ----------
    task:
        The underlying solve task.  Its ``screening_potential`` is
        ``None``; the worker assembles it from ``global_potential`` and
        ``passivation_potential``.
    global_potential:
        The global input potential V_in of this iteration.
    box_indices:
        Per-axis global-grid index arrays (periodically wrapped) of the
        full fragment box — the Gen_VF gather map.
    interior_slice:
        Slice selecting the fragment *region* (box minus buffer) inside
        the box — what the Gen_dens contribution is cut from.
    passivation_potential:
        The fixed passivation correction Delta V_F (subtracted from the
        restricted potential), or ``None`` for unpassivated fragments.
    """

    task: FragmentTask
    global_potential: np.ndarray
    box_indices: tuple[np.ndarray, np.ndarray, np.ndarray]
    interior_slice: tuple[slice, slice, slice]
    passivation_potential: np.ndarray | None = None

    @property
    def label(self) -> str:
        """The underlying solve task's fragment label."""
        return self.task.label

    def cost(self) -> float:
        """Relative cost for load balancing (the solve dominates)."""
        return self.task.cost()


def run_fragment_pipeline_task(
    pipeline_task: FragmentPipelineTask,
    problem: TaskProblem | None = None,
) -> FragmentTaskResult:
    """Execute one fused fragment pipeline task (worker-side Figure 2 lap).

    Performs, in the worker, the three embarrassingly parallel steps of
    one LS3DF iteration for one fragment:

    1. **Gen_VF** — gather the fragment-box restriction of the global
       input potential and subtract the fixed passivation correction;
    2. **PEtot_F** — run the shared solve kernel
       (:func:`solve_fragment_task`, with its static-problem cache and
       warm starts);
    3. **Gen_dens** — extract the region interior of the solved density
       and apply the fragment's charge-conserving alpha weight.

    The arithmetic matches the step-by-step sequence
    :func:`repro.core.patching.restrict_to_fragment` ->
    :func:`solve_fragment_task` -> weighted interior operation for
    operation; only the grouping of the global density sum is the
    reducer's choice (:func:`repro.core.patching.patch_contributions`).

    Parameters
    ----------
    pipeline_task:
        The fused work unit (solve task + global potential + index maps).
    problem:
        Optional pre-built static problem, forwarded to
        :func:`solve_fragment_task`.

    Returns
    -------
    FragmentTaskResult
        The solve result with the alpha-weighted interior density
        contribution and the in-worker Gen_VF / Gen_dens times filled in,
        and ``wall_time`` covering the whole fused step.
    """
    t0 = time.perf_counter()
    ix, iy, iz = pipeline_task.box_indices
    # Advanced indexing already yields a fresh array — no copy needed.
    v_screen = pipeline_task.global_potential[np.ix_(ix, iy, iz)]
    if pipeline_task.passivation_potential is not None:
        v_screen = v_screen - pipeline_task.passivation_potential
    task = pipeline_task.task
    task.screening_potential = v_screen
    gen_vf_time = time.perf_counter() - t0
    result = solve_fragment_task(task, problem=problem)
    t0 = time.perf_counter()
    interior = result.density[pipeline_task.interior_slice]
    result.contribution = task.weight * np.real(interior)
    result.gen_dens_time = time.perf_counter() - t0
    result.gen_vf_time = gen_vf_time
    result.wall_time = gen_vf_time + result.wall_time + result.gen_dens_time
    return result


def run_fragment_pipeline_task_grouped(*args, **kwargs):
    """Harness-only stub: band-sliced fragment solves are gone, so this raises.

    Kept by name because the benchmark harness's tracer resolves it.
    """
    raise NotImplementedError("band-sliced fragment solves were removed; use run_fragment_pipeline_task")


@runtime_checkable
class FragmentExecutor(Protocol):
    """What :class:`repro.core.scf.LS3DFSCF` needs of an execution backend.

    Every iteration submits one fused :class:`FragmentPipelineTask` per
    fragment and consumes the futures in fragment order.  The backends
    in :mod:`repro.parallel.executor` and :mod:`repro.parallel.remote`
    also offer gathered batch forms (``run``, ``run_pipeline``, returning
    an :class:`ExecutionReport`) and ``submit_global`` (the sharded
    :class:`~repro.core.genpot.GlobalPotentialSolver`, which the SCF
    loop does not use) surfaces; anything with this shape — e.g. an
    MPI- or cluster-backed mapper — plugs into the SCF loop the same way.
    """

    n_workers: int

    def submit_pipeline_batch(self, tasks: Sequence[FragmentPipelineTask]) -> list:
        """Submit a batch of fused tasks; one future per task, in task order.

        Each future (``done`` / ``result`` / ``add_done_callback``)
        resolves to that task's :class:`FragmentTaskResult`.
        """
        ...


@dataclass
class ExecutionReport:
    """Timing summary of one batch of fragment solves.

    ``results`` holds one :class:`FragmentTaskResult` per task, for plain
    solve and fused pipeline batches alike (global-step batches hold
    :class:`repro.parallel.distributed.GlobalStepResult`); the summary properties
    read their ``wall_time`` / ``worker_pid``.  Re-dispatches after a
    worker death are counted once, on the executor
    (``RemoteExecutor.resubmissions``).
    """

    results: list
    wall_time: float
    worker_count: int
    schedule: object | None = None

    @property
    def total_cpu_time(self) -> float:
        """Summed in-worker task time (the batch's serial-equivalent cost)."""
        return float(sum(r.wall_time for r in self.results))

    @property
    def parallel_efficiency(self) -> float:
        """total task time / (workers * wall time); 1.0 is ideal."""
        if self.wall_time <= 0 or self.worker_count <= 0:
            return 0.0
        return self.total_cpu_time / (self.worker_count * self.wall_time)
