"""Execution model reproducing the paper's performance evaluation.

:class:`LS3DFPerformanceModel` combines the analytic operation counts
(:mod:`repro.parallel.flops`), the group decomposition
(:mod:`repro.parallel.groups`), the LPT fragment schedule
(:mod:`repro.parallel.scheduler`) and the communication model
(:mod:`repro.parallel.comm`) into per-iteration wall-clock times, Tflop/s
figures and %-of-peak numbers for any (machine, system size, core count,
Np) combination — the quantities of Table I and Figures 3-5.

:class:`DirectDFTCostModel` models a conventional O(N^3) plane-wave code
(PARATEC / PEtot / Qbox class) for the Section-VI comparison: the ~600-atom
crossover and the ~400x speedup at 13,824 atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.comm import CommScheme, CommunicationModel
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.groups import GroupDecomposition
from repro.parallel.machine import Machine
from repro.parallel.scheduler import FragmentScheduler


@dataclass
class PerformancePoint:
    """One row of the (modelled) Table I.

    Attributes
    ----------
    machine:
        Machine name.
    system_dims:
        Supercell dimensions ``(m1, m2, m3)``.
    natoms:
        Number of atoms.
    cores:
        Total cores used.
    np_per_group:
        Np (cores per fragment group).
    time_per_iteration:
        Modelled wall-clock seconds of one LS3DF outer iteration.
    tflops:
        Sustained Tflop/s (useful flops / wall-clock time).
    percent_peak:
        Percentage of the theoretical peak of the cores used.
    breakdown:
        Per-subroutine seconds {Gen_VF, PEtot_F, Gen_dens, GENPOT}.
    """

    machine: str
    system_dims: tuple[int, int, int]
    natoms: int
    cores: int
    np_per_group: int
    time_per_iteration: float
    tflops: float
    percent_peak: float
    breakdown: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Table-1-style row (machine, system, cores, Tflop/s, %-peak)."""
        return {
            "machine": self.machine,
            "system": "x".join(str(d) for d in self.system_dims),
            "atoms": self.natoms,
            "cores": self.cores,
            "Np": self.np_per_group,
            "Tflop/s": round(self.tflops, 2),
            "% peak": round(self.percent_peak, 1),
            "t_iter [s]": round(self.time_per_iteration, 2),
        }


class LS3DFPerformanceModel:
    """Performance model of LS3DF on a given machine.

    Parameters
    ----------
    machine:
        Machine description.
    workload:
        Physical problem (supercell size, cutoff, grid).
    comm_scheme:
        Which generation of the Gen_VF / Gen_dens communication to model.
    genpot_cores_cap:
        GENPOT's FFT-based Poisson solve does not scale to the full
        machine; it is modelled as running on at most this many cores
        (the paper keeps its absolute cost around a second).
    """

    def __init__(
        self,
        machine: Machine,
        workload: LS3DFWorkload,
        comm_scheme: CommScheme = CommScheme.POINT_TO_POINT,
        genpot_cores_cap: int = 1024,
        genpot_efficiency: float = 0.05,
        straggler_coefficient: float = 0.006,
    ) -> None:
        self.machine = machine
        self.workload = workload
        self.comm = CommunicationModel(machine, comm_scheme)
        self.scheduler = FragmentScheduler(workload)
        self.genpot_cores_cap = int(genpot_cores_cap)
        self.genpot_efficiency = float(genpot_efficiency)
        self.straggler_coefficient = float(straggler_coefficient)

    # ------------------------------------------------------------------
    def _fragment_costs(self) -> np.ndarray:
        costs: list[float] = []
        for work, count, _ in self.workload.all_fragment_work():
            costs.extend([work.flops_per_iteration] * count)
        return np.asarray(costs)

    def petot_f_time(self, cores: int, np_per_group: int) -> float:
        """Wall-clock seconds of the PEtot_F step (the dominant cost)."""
        decomp = GroupDecomposition(cores, np_per_group)
        ngroups = decomp.ngroups
        costs = self._fragment_costs()
        schedule = self.scheduler.schedule_by_costs(costs, ngroups)
        # Per-group sustained rate: Np cores at the kernel efficiency times
        # the intra-group parallel efficiency for a representative fragment.
        rep = self.workload.fragment_work((2, 2, 2))
        small = self.workload.fragment_work((1, 1, 1))
        intra = decomp.intra_group_efficiency(self.machine.core_peak_gflops)
        # Mix of large/small fragment kernel efficiencies weighted by flops.
        w_small = small.flops_per_iteration
        w_large = rep.flops_per_iteration
        eff = (
            self.machine.kernel_efficiency * w_large
            + self.machine.small_fragment_efficiency * w_small
        ) / (w_large + w_small)
        rate = np_per_group * self.machine.core_peak_gflops * 1e9 * eff * intra
        # Straggler / OS-jitter penalty: with more independent groups, the
        # slowest group increasingly lags the mean (the residual efficiency
        # droop the paper observes at very high concurrency even when the
        # communication steps are already negligible).
        straggler = 1.0 + self.straggler_coefficient * np.sqrt(ngroups)
        return float(schedule.makespan / rate * straggler)

    def gen_vf_time(self, cores: int) -> float:
        """Modelled Gen_VF seconds: shipping the restricted potentials."""
        return self.comm.transfer_time(self.workload.gen_vf_data_bytes(), cores)

    def gen_dens_time(self, cores: int) -> float:
        """Modelled Gen_dens seconds: density transfer plus the reduction."""
        # Gen_dens additionally reduces the patched density across groups.
        base = self.comm.transfer_time(self.workload.gen_dens_data_bytes(), cores)
        reduction = self.comm.allreduce_time(
            8.0 * self.workload.global_grid_points / max(cores, 1), cores
        )
        return base + reduction

    def genpot_time(self, cores: int) -> float:
        """Modelled GENPOT seconds: capped-core compute + allreduce + overhead."""
        active = min(cores, self.genpot_cores_cap)
        rate = active * self.machine.core_peak_gflops * 1e9 * self.genpot_efficiency
        compute = self.workload.genpot_flops() / rate
        broadcast = self.comm.allreduce_time(
            8.0 * self.workload.global_grid_points / max(active, 1), cores
        )
        # Software / data-marshalling overhead of assembling the global
        # density and redistributing the potential (scales with grid size).
        software = 2.5e-8 * self.workload.global_grid_points
        return compute + broadcast + software

    # ------------------------------------------------------------------
    def iteration_breakdown(self, cores: int, np_per_group: int) -> dict[str, float]:
        """Per-subroutine seconds of one LS3DF outer iteration."""
        if cores % np_per_group != 0:
            raise ValueError("cores must be divisible by Np")
        return {
            "Gen_VF": self.gen_vf_time(cores),
            "PEtot_F": self.petot_f_time(cores, np_per_group),
            "Gen_dens": self.gen_dens_time(cores),
            "GENPOT": self.genpot_time(cores),
        }

    def evaluate(self, cores: int, np_per_group: int) -> PerformancePoint:
        """Model one Table-I row."""
        breakdown = self.iteration_breakdown(cores, np_per_group)
        t_total = sum(breakdown.values())
        useful = self.workload.total_flops_per_iteration()
        tflops = useful / t_total / 1e12
        percent = 100.0 * tflops / self.machine.peak_tflops(cores)
        return PerformancePoint(
            machine=self.machine.name,
            system_dims=self.workload.supercell_dims,
            natoms=self.workload.natoms,
            cores=cores,
            np_per_group=np_per_group,
            time_per_iteration=t_total,
            tflops=tflops,
            percent_peak=percent,
            breakdown=breakdown,
        )

    def petot_f_only_tflops(self, cores: int, np_per_group: int) -> float:
        """Sustained Tflop/s counting only PEtot_F (the paper's second curve)."""
        t = self.petot_f_time(cores, np_per_group)
        return self.workload.petot_f_flops() / t / 1e12


class DirectDFTCostModel:
    """Cost model of a conventional O(N^3) plane-wave DFT code.

    Calibrated to the paper's Section VI data: PARATEC takes ~340 s per SCF
    iteration for the 512-atom (4x4x4) ZnTeO cell on 320 cores, the O(N^3)
    regime being already reached at that size, with (generously) perfect
    parallel scaling assumed up to any core count.

    Parameters
    ----------
    reference_seconds, reference_atoms, reference_cores:
        The calibration point (defaults to the PARATEC numbers above).
    exponent:
        Scaling exponent (3.0 for the cubic regime).
    """

    def __init__(
        self,
        reference_seconds: float = 340.0,
        reference_atoms: int = 512,
        reference_cores: int = 320,
        exponent: float = 3.0,
    ) -> None:
        if min(reference_seconds, reference_atoms, reference_cores) <= 0:
            raise ValueError("calibration values must be positive")
        self.reference_seconds = float(reference_seconds)
        self.reference_atoms = int(reference_atoms)
        self.reference_cores = int(reference_cores)
        self.exponent = float(exponent)

    def time_per_iteration(self, natoms: int, cores: int) -> float:
        """Seconds per SCF iteration for ``natoms`` atoms on ``cores`` cores."""
        if natoms <= 0 or cores <= 0:
            raise ValueError("natoms and cores must be positive")
        scale = (natoms / self.reference_atoms) ** self.exponent
        core_scale = self.reference_cores / cores
        return self.reference_seconds * scale * core_scale

    def time_to_converge(self, natoms: int, cores: int, scf_iterations: int = 60) -> float:
        """Seconds for a fully converged calculation (default 60 iterations)."""
        return self.time_per_iteration(natoms, cores) * scf_iterations

    def speedup_of_ls3df(
        self,
        ls3df_model: LS3DFPerformanceModel,
        cores: int,
        np_per_group: int,
    ) -> float:
        """How many times faster LS3DF is than the direct code (same cores)."""
        natoms = ls3df_model.workload.natoms
        t_direct = self.time_per_iteration(natoms, cores)
        t_ls3df = sum(ls3df_model.iteration_breakdown(cores, np_per_group).values())
        return t_direct / t_ls3df

    def crossover_atoms(
        self,
        machine: Machine,
        cores: int,
        np_per_group: int,
        workload_factory=None,
        atom_range: tuple[int, int] = (64, 4096),
    ) -> float:
        """System size (atoms) where LS3DF becomes faster than the direct code.

        The paper deduces ~600 atoms.  The crossover is found by scanning
        cubic supercells between the given bounds and interpolating the
        sign change of ``t_direct - t_ls3df``.
        """
        if workload_factory is None:
            def workload_factory(m: int) -> LS3DFWorkload:
                return LS3DFWorkload((m, m, m))

        sizes = []
        deltas = []
        m = 1
        while True:
            wl = workload_factory(m)
            if wl.natoms > atom_range[1]:
                break
            if wl.natoms >= atom_range[0] or m >= 2:
                model = LS3DFPerformanceModel(machine, wl)
                np_eff = min(np_per_group, cores)
                cores_eff = max(np_eff, (cores // np_eff) * np_eff)
                t_ls3df = sum(
                    model.iteration_breakdown(cores_eff, np_eff).values()
                )
                t_direct = self.time_per_iteration(wl.natoms, cores_eff)
                sizes.append(wl.natoms)
                deltas.append(t_direct - t_ls3df)
            m += 1
        sizes_arr = np.asarray(sizes, dtype=float)
        deltas_arr = np.asarray(deltas, dtype=float)
        sign_change = np.nonzero(np.diff(np.sign(deltas_arr)) > 0)[0]
        if len(sign_change) == 0:
            # No crossover in range: return the boundary closest to one.
            return float(sizes_arr[np.argmin(np.abs(deltas_arr))])
        i = int(sign_change[0])
        x0, x1 = sizes_arr[i], sizes_arr[i + 1]
        y0, y1 = deltas_arr[i], deltas_arr[i + 1]
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))
