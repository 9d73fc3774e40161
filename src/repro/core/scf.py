"""The LS3DF outer self-consistent loop (Figure 2 of the paper).

Every iteration performs the four steps Gen_VF -> PEtot_F -> Gen_dens ->
GENPOT.  In the paper all three per-fragment steps are embarrassingly
parallel and only the small GENPOT Poisson solve is global, and that is
the one data path here: Gen_VF, the solve and the Gen_dens contribution
of a fragment are fused into one
:class:`~repro.core.fragment_task.FragmentPipelineTask` (a single
executor round trip), executed through a pluggable backend implementing
the :class:`repro.core.fragment_task.FragmentExecutor` protocol — the
serial default, a process pool (:mod:`repro.parallel.executor`) or
socket workers (:mod:`repro.parallel.remote`).  The global density is
assembled by a deterministic chunked tree-reduce that consumes the
fragments' futures in order while the batch tail is still running, so
the driver's serial work per iteration is task building, the reduce's
residue and GENPOT; the loop never cares *where* a fragment was solved.

The paper's parallelism is two-level: fragments go to processor
*groups*, and the Np cores inside a group share one fragment's all-band
CG.  Only the first level executes here — one worker solves a whole
fragment — because the second pays only with more workers than
fragments, a shape no workload here has; :mod:`repro.parallel.perfmodel`
and :mod:`repro.parallel.groups` keep it as a model.

The loop is the generator :meth:`LS3DFSCF.iterate`, which yields the run
after every iteration; :meth:`LS3DFSCF.run` drains it.  Long runs can be
checkpointed and resumed (``checkpoint_dir=`` / ``resume=``): after
every iteration the cross-iteration state — input potential, mixer
history, warm-start wavefunctions — is persisted via
:mod:`repro.io.checkpoint`, and a resumed run's iterates are
bit-identical to an uninterrupted run's.  That end-of-iteration
checkpoint is the only restart state: a kill mid-PEtot_F re-solves the
killed iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.core.division import SpatialDivision
from repro.core.fragment_solver import FragmentSolver
from repro.core.fragment_task import FragmentExecutor, FragmentTaskResult
from repro.core.fragments import Fragment, enumerate_fragments
from repro.core.genpot import GlobalPotentialSolver
from repro.core.patching import PATCH_CHUNK_SIZE, patch_contributions
from repro.io.checkpoint import (
    SCFCheckpoint,
    clear_checkpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.parallel.executor import SerialFragmentExecutor
from repro.pw.grid import FFTGrid, grid_density
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials


@dataclass
class IterationTimings:
    """Wall-clock split of one LS3DF iteration over the paper's four steps.

    ``petot_f`` is the wall-clock time of the whole PEtot_F step as seen
    by the outer loop; ``petot_f_fragments`` holds each fragment's own
    solve time (in fragment order), so real speedups and parallel
    efficiencies can be measured instead of modelled.

    The Gen_VF restriction and the Gen_dens interior extraction run
    *inside* the fused per-fragment tasks: their in-worker times land in
    ``gen_vf_fragments`` / ``gen_dens_fragments`` (and inside
    ``petot_f_fragments``, which times the whole fused step), while the
    driver-side ``gen_vf`` / ``gen_dens`` are task building and the
    residue of the chunked tree-reduce.  ``serial_time`` /
    ``measured_serial_fraction`` expose how much of the iteration
    actually remained serial — the measured counterpart of the paper's
    Amdahl fit (compare
    :func:`repro.parallel.amdahl.serial_fraction_history`).

    The reduce consumes fragment results in fragment order while the
    batch tail is still draining: ``overlap_wait`` / ``overlap_busy``
    split the PEtot_F wall into not-reducing (the submission, blocked
    pulls) versus useful reduce work (see ``overlap_occupancy``), and
    ``gen_dens`` is the residue left *after* the last fragment landed.

    ``genpot_poisson`` / ``genpot_xc`` / ``genpot_mix`` break the GENPOT
    wall time down into its three global steps, all run on the driver.

    ``checkpoint_io`` records the seconds spent writing this iteration's
    checkpoint (zero when checkpointing is off).  Checkpoint I/O happens
    on the driver while every worker idles, so it is counted in
    ``serial_time`` — the Amdahl accounting stays honest about the cost
    of restartability.

    ``band_tasks`` (always ``[]``), ``genpot_tasks`` (always ``[]``) and
    ``genpot_sharded`` (always False) are harness-only vestiges: the
    loop never band-slices a solve nor shards GENPOT, and the benchmark
    harness still reads the three fields.
    """

    gen_vf: float = 0.0
    petot_f: float = 0.0
    gen_dens: float = 0.0
    genpot: float = 0.0
    petot_f_fragments: list[float] = field(default_factory=list)
    petot_f_workers: int = 1
    gen_vf_fragments: list[float] = field(default_factory=list)
    gen_dens_fragments: list[float] = field(default_factory=list)
    overlap_wait: float = 0.0
    overlap_busy: float = 0.0
    genpot_poisson: float = 0.0
    genpot_xc: float = 0.0
    genpot_mix: float = 0.0
    checkpoint_io: float = 0.0
    band_tasks: list[float] = field(default_factory=list)
    genpot_tasks: list[float] = field(default_factory=list)
    genpot_sharded: bool = False

    @property
    def total(self) -> float:
        """Whole-iteration wall time (the four steps plus checkpoint I/O)."""
        return (
            self.gen_vf + self.petot_f + self.gen_dens + self.genpot
            + self.checkpoint_io
        )

    @property
    def petot_f_cpu(self) -> float:
        """Summed per-fragment solve time (serial-equivalent PEtot_F cost)."""
        return float(sum(self.petot_f_fragments))

    @property
    def petot_f_speedup(self) -> float:
        """Measured PEtot_F speedup: summed fragment time / wall time."""
        if self.petot_f <= 0:
            return 0.0
        return self.petot_f_cpu / self.petot_f

    @property
    def overlap_occupancy(self) -> float:
        """Useful fraction of the streamed Gen_dens reduce's driver loop.

        The driver consumes fragment futures in order while the batch
        tail drains: ``overlap_busy`` seconds went into the chunked
        tree-reduce under still-running workers and ``overlap_wait``
        seconds were spent blocked on the next future.  This is their
        ratio.
        """
        denom = self.overlap_busy + self.overlap_wait
        return self.overlap_busy / denom if denom > 0 else 0.0

    @property
    def serial_time(self) -> float:
        """Driver-side unparallelised time of the iteration.

        The Gen_VF and Gen_dens entries time task building and the
        residue of the chunked tree-reduce; GENPOT runs on the driver.
        Checkpoint I/O, when enabled, is driver-only work and counts
        here too.
        """
        return self.gen_vf + self.gen_dens + self.genpot + self.checkpoint_io

    @property
    def measured_serial_fraction(self) -> float:
        """Measured Amdahl alpha: serial / (serial + parallelisable CPU).

        The parallelisable part is ``petot_f_cpu`` — the
        serial-equivalent cost of the fused fragment tasks, which the
        executor may spread over any number of workers.
        """
        denominator = self.serial_time + self.petot_f_cpu
        if denominator <= 0:
            return 0.0
        return self.serial_time / denominator

    def as_dict(self) -> dict[str, float]:
        return {
            "Gen_VF": self.gen_vf,
            "PEtot_F": self.petot_f,
            "Gen_dens": self.gen_dens,
            "GENPOT": self.genpot,
            "total": self.total,
        }


@dataclass(eq=False)
class LS3DFResult:
    """Outcome of an LS3DF self-consistent calculation.

    Attributes
    ----------
    density:
        Converged global electron density (patched).
    potential:
        Converged global screening potential (V_es + V_xc).
    total_energy:
        Patched total energy E = sum_F alpha_F E_F^quantum + E_es + E_xc
        - E_self (Hartree a.u.).
    quantum_energy:
        The patched fragment quantum-energy part alone.
    converged:
        True when the potential metric dropped below tolerance.
    iterations:
        Number of outer iterations performed.
    convergence_history:
        integral |V_out - V_in| d^3r per iteration (the paper's Fig. 6).
    energy_history:
        Total energy per iteration.
    fragment_results:
        Final-iteration per-fragment solve results, in fragment order.
    timings:
        Per-iteration four-subroutine wall-clock timings.
    nfragments:
        Number of fragments.
    """

    density: np.ndarray
    potential: np.ndarray
    total_energy: float
    quantum_energy: float
    converged: bool
    iterations: int
    convergence_history: list[float] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    fragment_results: list[FragmentTaskResult] = field(default_factory=list)
    timings: list[IterationTimings] = field(default_factory=list)
    nfragments: int = 0


class LS3DFSCF:
    """LS3DF self-consistent field driver.

    GENPOT — Poisson, XC and the mix — runs once per iteration on the
    driver, so the executor only ever sees fragment tasks.  The paper's
    z-slab layout for the global step pays only once a cell is far too
    big for one node; sharded through the executor it lost on every
    input measured (``docs/ARCHITECTURE.md``), and
    :class:`~repro.core.genpot.GlobalPotentialSolver` keeps ``shards=``
    only for the standalone ``genpot_sharded`` benchmark.

    Parameters
    ----------
    structure:
        Global periodic supercell.
    grid_dims:
        Fragment grid ``(m1, m2, m3)``.
    ecut:
        Plane-wave cutoff for the fragment solves (Hartree).
    pseudopotentials:
        Model pseudopotential set.
    buffer_cells:
        Fragment buffer size as a fraction of a cell (see SpatialDivision).
    n_empty:
        Guard bands per fragment: iterated and returned, not gated.
    mixer, mixer_options:
        Global potential mixing scheme (GENPOT step).
    points_per_bohr:
        Global grid density; the grid (divisible by ``grid_dims``) is
        derived from ``ecut`` when omitted.
    executor:
        Where fragments are solved: a backend of the one dispatch engine
        — the serial default or a process pool
        (:mod:`repro.parallel.executor`), or :mod:`repro.parallel.remote`
        workers — or anything else with the
        :class:`~repro.core.fragment_task.FragmentExecutor` shape.  Every
        iteration consumes ``executor.submit_pipeline_batch`` futures,
        so an object without that method is rejected with a
        ``TypeError`` here rather than mid-run.

    Every fragment task carries the iteration's global input potential
    inline, and one worker solves each fragment whole.
    """

    def __init__(
        self,
        structure: Structure,
        grid_dims: Sequence[int],
        ecut: float = 4.0,
        pseudopotentials: PseudopotentialSet | None = None,
        buffer_cells: float = 0.5,
        n_empty: int = 2,
        mixer: str = "kerker",
        mixer_options: dict | None = None,
        points_per_bohr: float | None = None,
        executor: FragmentExecutor | None = None,
    ) -> None:
        self.structure = structure
        self.grid_dims = tuple(int(m) for m in grid_dims)
        self.pseudopotentials = pseudopotentials or default_pseudopotentials()
        self.ecut = float(ecut)
        self.global_grid = FFTGrid.for_structure(structure.cell, grid_density(ecut, points_per_bohr), self.grid_dims)
        self.division = SpatialDivision(
            structure, self.grid_dims, self.global_grid, buffer_cells
        )
        self.fragments: list[Fragment] = enumerate_fragments(self.grid_dims)
        self.fragment_solver = FragmentSolver(
            self.division,
            self.pseudopotentials,
            ecut=self.ecut,
            n_empty=n_empty,
        )
        if executor is None:
            executor = SerialFragmentExecutor()
        if not callable(getattr(executor, "submit_pipeline_batch", None)):
            raise TypeError(
                f"LS3DFSCF needs an executor with submit_pipeline_batch(); "
                f"{type(executor).__name__} does not provide one — use a "
                f"backend from repro.parallel.executor"
            )
        self.genpot = GlobalPotentialSolver(
            structure,
            self.global_grid,
            self.pseudopotentials,
            mixer=mixer,
            mixer_options=mixer_options,
        )
        self.executor = executor
        # Warm-start wavefunctions per fragment label: filled from every
        # iteration's results whichever backend solved them, and the
        # per-fragment half of a full checkpoint.
        self.state_cache: dict[str, np.ndarray] = {}

    @property
    def nfragments(self) -> int:
        return len(self.fragments)

    # ------------------------------------------------------------------
    def _build_pipeline_tasks(
        self,
        v_in: np.ndarray,
        eigensolver_tolerance: float,
        eigensolver_iterations: int,
    ) -> list:
        """One fused pipeline task per fragment (the driver's Gen_VF residue),
        each carrying ``v_in`` inline."""
        return [
            self.fragment_solver.make_pipeline_task(
                f,
                v_in,
                eigensolver_tolerance=eigensolver_tolerance,
                eigensolver_iterations=eigensolver_iterations,
                initial_coefficients=self.state_cache.get(f.label),
            )
            for f in self.fragments
        ]

    def _patch_in_fragment_order(self, results) -> np.ndarray:
        """Gen_dens: the deterministic chunked tree sum over the fragments.

        ``results`` yields one pipeline result per fragment, in fragment
        order — a finished list, or a generator that blocks on each
        fragment's future — and the fixed
        :data:`~repro.core.patching.PATCH_CHUNK_SIZE` chunking makes the
        summation tree, hence every density bit, independent of the
        backend and of the order in which workers finish.  Scatter maps
        come from the division; no index arrays ride on results.
        """
        return patch_contributions(
            self.global_grid.shape,
            (
                (self.division.global_indices(f, interior_only=True), p.contribution)
                for f, p in zip(self.fragments, results)
            ),
            chunk_size=PATCH_CHUNK_SIZE,
        )

    def _run_iteration(
        self,
        v_in: np.ndarray,
        eigensolver_tolerance: float,
        eigensolver_iterations: int,
        t: IterationTimings,
    ) -> tuple[np.ndarray, list[FragmentTaskResult]]:
        """One fused Gen_VF -> PEtot_F -> Gen_dens lap of the iteration.

        The driver builds one
        :class:`~repro.core.fragment_task.FragmentPipelineTask` per
        fragment (timed as ``gen_vf``), obtains each one's
        :class:`~repro.core.fragment_task.FragmentTaskResult`, and
        reduces the contributions with :meth:`_patch_in_fragment_order`.
        One executor submission per fragment, each future consumed by
        the reduce as soon as it resolves instead of idling until the
        whole batch returns.  A fragment's result is a pure function of
        its task and the reduce order is fixed, so every backend gives
        the same bits.
        """
        # --- Gen_VF (driver residue): build one fused task per fragment.
        t0 = time.perf_counter()
        tasks = self._build_pipeline_tasks(
            v_in, eigensolver_tolerance, eigensolver_iterations
        )
        t.gen_vf = time.perf_counter() - t0

        # --- PEtot_F (fused): restrict + solve + contribute per fragment,
        # with the Gen_dens tree-reduce pulling results in fragment order.
        t0 = time.perf_counter()
        stream = (f.result() for f in self.executor.submit_pipeline_batch(tasks))
        # Time not spent reducing: the submission (the serial backend
        # solves at submit) and every blocked pull.
        wait = time.perf_counter() - t0
        results: list[FragmentTaskResult] = []

        def resolved():
            nonlocal wait
            tw = time.perf_counter()
            for pres in stream:
                wait += time.perf_counter() - tw
                results.append(pres)
                yield pres  # suspended here while the reduce works
                tw = time.perf_counter()

        density = self._patch_in_fragment_order(resolved())
        # The consume loop is PEtot_F as the outer loop sees it; its
        # blocked/busy split is the overlap accounting (the busy part ran
        # under still-working workers and leaves the serial residue).
        t.petot_f = time.perf_counter() - t0
        t.overlap_wait = wait
        t.overlap_busy = max(0.0, t.petot_f - wait)
        t.petot_f_workers = int(getattr(self.executor, "n_workers", 1))
        t.petot_f_fragments = [p.wall_time for p in results]
        t.gen_vf_fragments = [p.gen_vf_time for p in results]
        t.gen_dens_fragments = [p.gen_dens_time for p in results]

        # --- Gen_dens residue: only the post-tail work remains serial.
        # The warm-start update is driver work and belongs in this bucket,
        # not in the PEtot_F wall time.
        t0 = time.perf_counter()
        self.state_cache.update((r.label, r.coefficients) for r in results)
        t.gen_dens = time.perf_counter() - t0
        return density, results

    # ------------------------------------------------------------------
    def iterate(
        self,
        max_iterations: int = 30,
        potential_tolerance: float = 1e-3,
        eigensolver_tolerance: float = 1e-5,
        eigensolver_iterations: int = 60,
        initial_potential: np.ndarray | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
    ) -> Iterator[LS3DFResult]:
        """The LS3DF outer loop, yielding the run after every iteration.

        Each call is a fresh SCF by default: the mixing history and the
        warm-start wavefunction cache are cleared up front, so
        back-to-back runs of one solver match runs of freshly built
        solvers bit for bit.  With ``resume=True`` the cross-iteration
        state is instead restored from ``checkpoint_dir`` and the loop
        continues at the saved iteration, producing iterates
        bit-identical to a never-interrupted run (see
        :mod:`repro.io.checkpoint`).  Argument errors surface at the
        first ``next()``.

        Parameters
        ----------
        max_iterations:
            Maximum number of outer (potential) iterations; the paper's
            production runs use ~60.  Counts from iteration 1 even when
            resuming (a run resumed at iteration k performs at most
            ``max_iterations - k`` further iterations).
        potential_tolerance:
            Convergence threshold on integral |V_out - V_in| d^3r (a.u.).
        eigensolver_tolerance, eigensolver_iterations:
            Passed to the fragment eigensolver.
        initial_potential:
            Optional starting input potential (defaults to the neutral-atom
            guess).  Ignored when resuming from a checkpoint.
        checkpoint_dir:
            Directory to write an SCF checkpoint to after every
            non-converged iteration (input potential, mixer state,
            warm-start wavefunctions, histories), before that iteration
            is yielded.  ``None`` (default) disables checkpointing.  The
            write time is recorded as serial work in
            ``IterationTimings.checkpoint_io``.  It is the only restart
            state: a run killed mid-iteration (or a consumer that stops
            iterating) re-solves that iteration on resume.
        resume:
            Restore state from ``checkpoint_dir`` and continue at the
            saved iteration.  The checkpoint's grid shape, fragment-
            division signature and mixer kind are validated — resuming a
            different problem raises
            :class:`repro.io.checkpoint.CheckpointMismatchError`.  When
            the directory holds no checkpoint yet, the run simply starts
            fresh (so a kill-and-rerun workflow can always pass
            ``resume=True``).

        Yields
        ------
        LS3DFResult
            The run so far, once per completed iteration: that
            iteration's density, next input potential (the output
            potential once converged), energies and fragment results,
            with histories and timings lists of its own.  The last yield
            is the converged (or iteration-limited) run.  On a resumed
            run the histories include the checkpointed iterations;
            ``timings`` covers only the iterations this call executed.
        """
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        checkpoint_path = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires checkpoint_dir")
        mixer = self.genpot.mixer
        mixer_kind = getattr(mixer, "kind", type(mixer).__name__)
        division_signature = self.fragment_solver.problem_signature

        restored = None
        if resume and has_checkpoint(checkpoint_path):
            restored = load_checkpoint(
                checkpoint_path,
                grid_shape=self.global_grid.shape,
                division_signature=division_signature,
                mixer_kind=mixer_kind,
            )

        conv_history: list[float] = []
        energy_history: list[float] = []
        start_iteration = 1
        if restored is not None:
            load_mixer_state = getattr(mixer, "load_state_dict", None)
            if callable(load_mixer_state):
                load_mixer_state(restored.mixer_state)
            elif restored.mixer_state:
                raise ValueError(
                    f"checkpoint carries mixer state but {type(mixer).__name__} "
                    f"has no load_state_dict"
                )
            self.state_cache = dict(restored.fragment_coefficients)
            conv_history = list(restored.convergence_history)
            energy_history = list(restored.energy_history)
            v_in = restored.v_in.copy()
            start_iteration = restored.iteration + 1
            if start_iteration > max_iterations:
                raise ValueError(
                    f"checkpoint is already at iteration {restored.iteration}; "
                    f"raise max_iterations (= {max_iterations}) to resume"
                )
        else:
            # A fresh SCF: drop every piece of cross-iteration state so a
            # reused solver behaves exactly like a newly built one — and,
            # when the user explicitly asked for a fresh run, wipe the
            # checkpoint a previous run left in the directory, so a later
            # resume of this run (killed before its first save) does not
            # pick up another run's state.
            self.genpot.reset()
            self.state_cache.clear()
            if checkpoint_path is not None and not resume:
                clear_checkpoint(checkpoint_path)
            v_in = (
                initial_potential.copy()
                if initial_potential is not None
                else self.genpot.initial_potential()
            )
            if v_in.shape != self.global_grid.shape:
                raise ValueError("initial potential shape mismatch")

        # start_iteration <= max_iterations here, so the loop runs at least once.
        timings: list[IterationTimings] = []
        for iteration in range(start_iteration, max_iterations + 1):
            t = IterationTimings()

            density, frag_results = self._run_iteration(
                v_in,
                eigensolver_tolerance,
                eigensolver_iterations,
                t,
            )

            # --- GENPOT: global Poisson + XC + mixing, on the driver.
            t0 = time.perf_counter()
            out = self.genpot.evaluate(density, v_in)
            density = out.density
            t.genpot = time.perf_counter() - t0
            if out.timings is not None:
                t.genpot_poisson = out.timings.poisson
                t.genpot_xc = out.timings.xc
                t.genpot_mix = out.timings.mix
            timings.append(t)

            quantum_energy = float(
                sum(res.weight * res.quantum_energy for res in frag_results)
            )
            total_energy = (
                quantum_energy
                + out.electrostatic_energy
                + out.xc_energy
                - self.genpot.ionic_self_energy
            )
            conv_history.append(out.potential_difference)
            energy_history.append(total_energy)
            converged = bool(out.potential_difference < potential_tolerance)
            v_in = out.output_potential if converged else out.next_input_potential

            # --- Checkpoint: persist the cross-iteration state (the next
            # input potential, mixer history, warm-start wavefunctions,
            # histories) so a killed run resumes at iteration+1 with
            # bit-identical iterates.  Driver-only I/O, counted as serial.
            if checkpoint_path is not None and not converged:
                t0 = time.perf_counter()
                mixer_state_dict = getattr(mixer, "state_dict", None)
                save_checkpoint(
                    checkpoint_path,
                    SCFCheckpoint(
                        iteration=iteration,
                        v_in=v_in,
                        mixer_kind=mixer_kind,
                        division_signature=division_signature,
                        mixer_state=(
                            mixer_state_dict() if callable(mixer_state_dict) else {}
                        ),
                        fragment_coefficients=dict(self.state_cache),
                        convergence_history=conv_history,
                        energy_history=energy_history,
                    ),
                )
                t.checkpoint_io = time.perf_counter() - t0
            yield LS3DFResult(
                density=density,
                potential=v_in,
                total_energy=total_energy,
                quantum_energy=quantum_energy,
                converged=converged,
                iterations=iteration,
                convergence_history=list(conv_history),
                energy_history=list(energy_history),
                fragment_results=frag_results,
                timings=list(timings),
                nfragments=self.nfragments,
            )
            if converged:
                return

    def run(self, **kwargs) -> LS3DFResult:
        """Drain :meth:`iterate` (same keywords) and return its last yield."""
        for result in self.iterate(**kwargs):
            pass
        return result
