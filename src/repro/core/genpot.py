"""GENPOT: global Poisson solve, exchange-correlation and potential mixing.

The final step of every LS3DF self-consistent iteration (Figure 2 of the
paper): take the patched global charge density, solve the global Poisson
equation with FFTs, add the exchange-correlation potential, and produce the
output potential ``V_tot_out(r)``; then mix it with previous iterations to
form the next input potential.  GENPOT is the only step of LS3DF that
touches the whole supercell, and the paper's optimisation reduced it from
22 s to 0.4 s per iteration for a 2,000-atom system.

In the paper GENPOT does not run on the fragment groups' data layout: the
global fields live as **1D slabs along the z-axis** and the Poisson/XC/
mixing work is distributed over those slabs, with explicit layout
conversion charged to the global step.  ``shards=`` reproduces that:
:class:`GlobalPotentialSolver` splits every global field into z-slabs and
streams the per-slab Poisson/XC work (:mod:`repro.parallel.streaming`)
through the same executor backends that run fragment solves
(:meth:`submit_global <repro.parallel.distributed.GlobalStepExecutor>` on
any backend from :mod:`repro.parallel.executor`), with deterministic slab
ordering — the sharded results are **bit-identical** to the serial path
for any shard count.  The mix runs once, on the driver's gathered
potentials, for every mixer and shard count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.atoms.structure import Structure
from repro.pw.density import integrated_charge, normalize_density
from repro.pw.energy import potential_distance, screening_potential
from repro.pw.grid import FFTGrid
from repro.pw.hartree import hartree_potential
from repro.pw.mixing import Mixer, make_mixer
from repro.pw.pseudopotential import PseudopotentialSet
from repro.pw.xc import lda_xc


@dataclass
class GenpotStepTimings:
    """Wall-clock breakdown of one GENPOT evaluation.

    On the serial (unsharded) path ``poisson`` / ``xc`` / ``mix`` time
    the three global steps, ``task_times`` is empty and the whole
    evaluation is driver work.

    A sharded evaluation (:mod:`repro.parallel.streaming`) interleaves
    the Poisson and XC stages, so ``poisson`` / ``xc`` hold summed
    in-worker task walls per category instead of phase walls; ``mix``
    is the driver-side mix either way.  ``task_times``
    holds the in-worker wall time of every per-slab
    :class:`~repro.parallel.distributed.GlobalStepTask` — the work an
    executor may spread over any number of workers — and ``driver`` the
    remaining driver-side residue (layout conversion, scalar reductions,
    task/executor overhead), estimated as the evaluation wall time minus
    the summed task times (clamped at zero, since a real pool overlaps
    tasks).  Three meters describe the driver loop: ``wait`` (blocked on
    task completions), ``busy`` (its complement) and
    ``layout_conversion`` (scatter / incremental-exchange / gather copy
    seconds — the cost the paper's conversion/compute overlap hides).
    """

    poisson: float = 0.0
    xc: float = 0.0
    mix: float = 0.0
    driver: float = 0.0
    sharded: bool = False
    shards: int = 1
    task_times: list[float] = field(default_factory=list)
    layout_conversion: float = 0.0
    wait: float = 0.0
    busy: float = 0.0

    @property
    def task_cpu(self) -> float:
        """Summed in-worker task time (serial-equivalent sharded work)."""
        return float(sum(self.task_times))

    @property
    def occupancy(self) -> float:
        """Fraction of the streaming driver loop spent doing useful work.

        ``busy / (busy + wait)``; 0.0 when the engine did not run (the
        unsharded path leaves both meters at zero).
        """
        denom = self.busy + self.wait
        return self.busy / denom if denom > 0 else 0.0


@dataclass
class GenpotOutput:
    """Result of one GENPOT evaluation.

    Attributes
    ----------
    output_potential:
        The screening potential V_es + V_xc generated by the patched density.
    next_input_potential:
        Mixed potential to use as the next iteration's input.
    potential_difference:
        The paper's convergence metric, integral |V_out - V_in| d^3r.
    electrostatic_energy:
        E_es of the (net) patched charge.
    xc_energy:
        E_xc of the patched electron density.
    timings:
        Wall-clock breakdown of the evaluation (Poisson / XC / mixing,
        plus per-slab task times when sharded).
    """

    output_potential: np.ndarray
    next_input_potential: np.ndarray
    potential_difference: float
    electrostatic_energy: float
    xc_energy: float
    density: np.ndarray | None = None
    timings: GenpotStepTimings | None = None


class GlobalPotentialSolver:
    """Global electrostatics + XC + mixing for the LS3DF outer loop.

    Parameters
    ----------
    structure:
        The full supercell (defines the ionic charge density).
    grid:
        Global FFT grid.
    pseudopotentials:
        Pseudopotential set providing the smeared ionic charges.
    mixer:
        Mixing scheme name (``"kerker"`` default — appropriate for the
        large cells LS3DF targets), or an already-constructed
        :class:`repro.pw.mixing.Mixer`.
    mixer_options:
        Keyword options forwarded to :func:`repro.pw.mixing.make_mixer`.
    shards:
        Number of 1D z-slabs the global fields are split into (the
        paper's slab data layout for the global steps).  The default 1
        keeps the serial single-array path.  With ``shards > 1`` the
        Poisson solve runs as a slab-transpose distributed FFT, XC runs
        slab-wise, and every per-slab unit of work is streamed to
        ``executor`` the moment its inputs exist: slabs stay resident
        through fused Poisson/XC stages and the layout conversion
        overlaps the compute, like the paper's production GENPOT; the
        mix runs on the gathered potentials.  Results are bit-identical
        to the serial path for any shard count (see
        :mod:`repro.parallel.streaming` for the engine,
        :mod:`repro.parallel.distributed` for the task machinery, and
        :class:`repro.core.scf.LS3DFSCF` for the ``genpot_shards=``
        wiring into the outer loop).  Must not exceed the number of z
        planes of ``grid``.
    executor:
        Backend implementing
        :class:`repro.parallel.distributed.GlobalStepExecutor` — the
        ``submit_global`` futures surface (all backends in
        :mod:`repro.parallel.executor` and
        :class:`repro.parallel.remote.RemoteExecutor` do); only used,
        and only checked (``TypeError``), when ``shards > 1``.  Defaults
        to a serial in-process backend.
    """

    def __init__(
        self,
        structure: Structure,
        grid: FFTGrid,
        pseudopotentials: PseudopotentialSet,
        mixer: str | Mixer = "kerker",
        mixer_options: dict | None = None,
        shards: int | None = None,
        executor=None,
    ) -> None:
        self.structure = structure
        self.grid = grid
        self.pseudopotentials = pseudopotentials
        self.ionic_density = pseudopotentials.ionic_density(structure, grid)
        self.ionic_self_energy = pseudopotentials.ionic_self_energy(structure)
        self.nelectrons = structure.total_valence_electrons()
        if isinstance(mixer, str):
            self.mixer = make_mixer(mixer, grid=grid, **(mixer_options or {}))
        else:
            self.mixer = mixer
        self.shards = 1 if shards is None else int(shards)
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.shards > grid.shape[2]:
            raise ValueError(
                f"shards={self.shards} exceeds the {grid.shape[2]} z planes "
                f"of the global grid"
            )
        self.executor = executor
        if self.shards > 1:
            self._check_executor()

    def _check_executor(self):
        """Resolve (and validate) the global-step executor for sharded runs."""
        # Imported lazily: repro.parallel re-exports the executor backends,
        # which depend on repro.core.fragment_task — a module-level import
        # here would be circular (see repro.core.scf for the same pattern).
        from repro.parallel.distributed import GlobalStepExecutor

        if self.executor is None:
            from repro.parallel.executor import SerialFragmentExecutor

            self.executor = SerialFragmentExecutor()
        if not isinstance(self.executor, GlobalStepExecutor):
            raise TypeError(
                f"shards>1 streams per-slab tasks through submit_global(); "
                f"{type(self.executor).__name__} does not provide it — use a "
                f"backend from repro.parallel.executor or set shards=1"
            )
        return self.executor

    # ------------------------------------------------------------------
    def initial_potential(self) -> np.ndarray:
        """Starting input potential from the neutral-pseudo-atom density."""
        rho0 = np.clip(self.ionic_density, 0.0, None)
        if integrated_charge(rho0, self.grid.dvol) <= 0:
            rho0 = np.full(self.grid.shape, self.nelectrons / self.grid.volume)
        else:
            rho0 = normalize_density(rho0, self.nelectrons, self.grid.dvol)
        return screening_potential(rho0, self.grid, self.ionic_density)

    def reset(self) -> None:
        """Clear the mixing history (e.g. before a fresh SCF run)."""
        reset = getattr(self.mixer, "reset", None)
        if callable(reset):
            reset()

    def evaluate(
        self,
        patched_density: np.ndarray,
        input_potential: np.ndarray,
        renormalize: bool = True,
    ) -> GenpotOutput:
        """Run GENPOT for one SCF iteration.

        With ``shards > 1`` the Poisson and XC fields are computed
        slab-wise through the executor; the mix and the scalar o(N)
        reductions (charge renormalisation, energies, the convergence
        metric) stay on the driver, evaluated on the gathered fields
        exactly as the serial path evaluates them — which is what makes
        the sharded results bit-identical.

        Parameters
        ----------
        patched_density:
            The Gen_dens output (global electron density).  Small negative
            regions (possible where the +/- cancellation is imperfect) are
            clipped; optionally the density is renormalised to the exact
            electron count, as production codes do after patching.
        input_potential:
            The V_tot_in used to generate the fragment densities.
        renormalize:
            Renormalise the patched density to the global electron count.
        """
        if patched_density.shape != self.grid.shape:
            raise ValueError("patched density shape mismatch")
        if input_potential.shape != self.grid.shape:
            raise ValueError("input potential shape mismatch")
        t_start = time.perf_counter()
        rho = np.clip(patched_density, 0.0, None)
        if renormalize:
            rho = normalize_density(rho, self.nelectrons, self.grid.dvol)
        net = rho - self.ionic_density
        timings = GenpotStepTimings(sharded=self.shards > 1, shards=self.shards)
        if self.shards > 1:
            v_out, e_es, e_xc = self._evaluate_streaming(rho, net, timings)
        else:
            v_out, e_es, e_xc = self._evaluate_fields_serial(rho, net, timings)
        diff = potential_distance(v_out, input_potential, self.grid)
        t0 = time.perf_counter()
        v_next = self.mixer.mix(input_potential, v_out)
        timings.mix += time.perf_counter() - t0
        total = time.perf_counter() - t_start
        timings.driver = max(total - timings.task_cpu, 0.0)
        return GenpotOutput(
            output_potential=v_out,
            next_input_potential=v_next,
            potential_difference=diff,
            electrostatic_energy=e_es,
            xc_energy=e_xc,
            density=rho,
            timings=timings,
        )

    def _evaluate_fields_serial(
        self, rho: np.ndarray, net: np.ndarray, timings: GenpotStepTimings
    ) -> tuple[np.ndarray, float, float]:
        """V_out and energies on the single-array (unsharded) path.

        The arithmetic is element-for-element the seed's
        ``screening_potential`` + ``electrostatic_energy`` + ``xc_energy``
        sequence, with the Hartree potential of the net charge solved
        once and reused for E_es (a deterministic recomputation removed —
        the returned bits are unchanged).
        """
        t0 = time.perf_counter()
        v_es = hartree_potential(net, self.grid)
        e_es = 0.5 * float(np.sum(net * v_es) * self.grid.dvol)
        timings.poisson = time.perf_counter() - t0
        t0 = time.perf_counter()
        eps_xc, v_xc = lda_xc(rho)
        e_xc = float(np.sum(np.maximum(rho, 0.0) * eps_xc) * self.grid.dvol)
        timings.xc = time.perf_counter() - t0
        return v_es + v_xc, e_es, e_xc

    def _evaluate_streaming(
        self, rho: np.ndarray, net: np.ndarray, timings: GenpotStepTimings
    ) -> tuple[np.ndarray, float, float]:
        """V_out and energies on the sharded path (resident slabs, fused stages).

        Drives :func:`repro.parallel.streaming.stream_genpot`: the
        Poisson/XC dataflow is issued through the executor's futures
        surface with slabs resident across stages, and the scalar o(N)
        reductions run on the gathered driver arrays with the same
        full-array sums as the serial path (summation order is part of
        bit-identity).
        """
        from repro.parallel.streaming import stream_genpot

        v_es, v_out, eps_xc = stream_genpot(
            net, rho, self.grid.g2, self.shards, self.executor, timings=timings
        )
        e_es = 0.5 * float(np.sum(net * v_es) * self.grid.dvol)
        e_xc = float(np.sum(np.maximum(rho, 0.0) * eps_xc) * self.grid.dvol)
        return v_out, e_es, e_xc
