"""Assignment of fragments to processor groups (load balancing).

LS3DF distributes the ``8 * m1 * m2 * m3`` fragments over the ``Ng``
processor groups.  Because the fragment classes differ in cost by roughly
a factor of eight (1x1x1 versus 2x2x2 cells), a naive round-robin produces
group loads that can differ substantially; the scheduler here uses the
longest-processing-time (LPT) greedy heuristic, which is what keeps the
load imbalance small enough for the >95% PEtot_F parallel efficiencies the
paper reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.fragments import Fragment
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.groups import GroupDecomposition, choose_group_size


@dataclass
class ScheduleSummary:
    """Outcome of a fragment-to-group assignment.

    Attributes
    ----------
    assignments:
        ``assignments[g]`` is the list of fragment indices given to group g.
    group_loads:
        Total cost (flops) per group.
    imbalance:
        max(load) / mean(load); 1.0 is perfect balance.
    makespan:
        The maximum group load — what actually determines the PEtot_F time.
    cores_per_group:
        Np, the worker count inside each group, when the assignment was
        produced by :meth:`FragmentScheduler.schedule_grouped` (each bin
        is then a *worker group* running band-sliced solves, not a single
        worker); ``None`` for plain per-worker schedules.
    intra_group_efficiency:
        The modelled parallel efficiency of one fragment solve on
        ``cores_per_group`` cores
        (:meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`),
        recorded so reports can print it next to the *measured* value
        (:attr:`repro.core.scf.IterationTimings.measured_intra_group_efficiency`);
        ``None`` for plain schedules.
    """

    assignments: list[list[int]]
    group_loads: np.ndarray
    imbalance: float
    makespan: float
    cores_per_group: int | None = None
    intra_group_efficiency: float | None = None

    @property
    def lpt_speedup(self) -> float:
        """Predicted speedup of this assignment: total load / makespan.

        The load-balancing model's counterpart to the measured
        :attr:`repro.core.scf.IterationTimings.petot_f_speedup`;
        benchmarks and examples print the two side by side.
        """
        if self.makespan <= 0:
            return 0.0
        return float(self.group_loads.sum() / self.makespan)


@dataclass
class GroupExecutionRecord:
    """A *measured* concurrent band-group execution (plan + what happened).

    :meth:`FragmentScheduler.schedule_grouped` produces the modelled
    two-level decomposition; this record wraps that plan together with
    the wall-clock reality of actually running it — one measured wall
    time and root count per group bin, plus whether the groups genuinely
    overlapped (per-group worker sub-pools driven by concurrent driver
    threads) or time-shared one pool sequentially.  It is what
    :attr:`repro.core.scf.IterationTimings.band_schedule` carries; the
    plan's modelled Np and efficiency stay reachable as properties.

    Attributes
    ----------
    plan:
        The LPT :class:`ScheduleSummary` over group-sized bins that the
        execution realised (``plan.assignments[g]`` is group ``g``'s
        task queue, in dispatch order).
    group_walls:
        Measured wall-clock seconds each group spent on its queue.
    group_roots:
        Group-root threads that drained each group's queue (see
        :data:`repro.core.scf.GROUP_ROOTS`; 1 on a one-worker executor).
    wall_time:
        Measured wall-clock of the whole PEtot_F step (all groups).
    concurrent:
        True when the groups ran on disjoint worker sub-pools in
        parallel; False for the sequential fallback (single pool, one
        group's queue at a time).
    """

    plan: ScheduleSummary
    group_walls: list[float]
    group_roots: list[int]
    wall_time: float
    concurrent: bool

    # -- modelled quantities (delegated to the plan) -------------------
    @property
    def assignments(self) -> list[list[int]]:
        """``plan.assignments`` — the per-group task queues."""
        return self.plan.assignments

    @property
    def cores_per_group(self) -> int | None:
        """Np of the plan (workers per group)."""
        return self.plan.cores_per_group

    @property
    def intra_group_efficiency(self) -> float | None:
        """The plan's *modelled* intra-group efficiency."""
        return self.plan.intra_group_efficiency

    # -- measured quantities -------------------------------------------
    @property
    def measured_makespan(self) -> float:
        """Longest measured group wall — what actually bounds PEtot_F."""
        return float(max(self.group_walls, default=0.0))

    @property
    def measured_imbalance(self) -> float:
        """max / mean of the measured group walls (1.0 is perfect)."""
        walls = [w for w in self.group_walls]
        if not walls:
            return 1.0
        mean = float(np.mean(walls))
        if mean <= 0:
            return 1.0
        return self.measured_makespan / mean

    @property
    def concurrency_efficiency(self) -> float:
        """Measured group overlap: sum(group walls) / (Ng x step wall).

        1.0 means the Ng groups kept the step wall fully busy in
        parallel; ~1/Ng is what sequential execution yields.  0.0 when
        nothing was measured.
        """
        if self.wall_time <= 0 or not self.group_walls:
            return 0.0
        return float(
            sum(self.group_walls) / (len(self.group_walls) * self.wall_time)
        )


class FragmentScheduler:
    """Greedy LPT scheduler for fragments onto processor groups.

    Used both by the performance model (fragment size classes on the
    paper's machines) and by the real pool backends in
    :mod:`repro.parallel.executor`, which submit each batch
    heaviest-first so the workers realise exactly this assignment.

    Parameters
    ----------
    workload:
        Optional :class:`repro.parallel.flops.LS3DFWorkload` providing
        per-size flop counts; without one, fragment cost is the cell
        count (the linear-scaling proxy).
    """

    def __init__(self, workload: LS3DFWorkload | None = None) -> None:
        self.workload = workload

    # ------------------------------------------------------------------
    def fragment_costs(self, fragments: Sequence[Fragment]) -> np.ndarray:
        """Relative cost of every fragment (flops per iteration)."""
        if self.workload is not None:
            return np.array(
                [
                    self.workload.fragment_work(f.size).flops_per_iteration
                    for f in fragments
                ]
            )
        # Without a workload model, cost ~ number of cells (linear scaling).
        return np.array([float(f.ncells) for f in fragments])

    def schedule(
        self, fragments: Sequence[Fragment], ngroups: int
    ) -> ScheduleSummary:
        """Assign fragments to ``ngroups`` groups with the LPT heuristic.

        Parameters
        ----------
        fragments:
            The fragments to place (costs from :meth:`fragment_costs`).
        ngroups:
            Number of processor groups (workers).

        Returns
        -------
        ScheduleSummary
            Assignments, per-group loads, imbalance and makespan.
        """
        return self.schedule_by_costs(self.fragment_costs(fragments), ngroups)

    def schedule_tasks(self, tasks: Sequence, ngroups: int) -> ScheduleSummary:
        """Assign a batch of fragment tasks to groups.

        Uses each task's own relative-cost estimate (``task.cost()``), so
        it accepts plain :class:`repro.core.fragment_task.FragmentTask`
        batches and fused
        :class:`repro.core.fragment_task.FragmentPipelineTask` batches
        alike (a pipeline task's cost is its solve task's cost — the
        restriction and interior extraction are negligible next to the
        eigensolve).  This is the entry point the pool executors use to
        balance one PEtot_F batch over their workers.
        """
        return self.schedule_by_costs([t.cost() for t in tasks], ngroups)

    def schedule_grouped(
        self,
        tasks: Sequence,
        total_cores: int,
        cores_per_group: int | None = None,
        core_peak_gflops: float = 10.4,
        min_efficiency: float = 0.85,
    ) -> ScheduleSummary:
        """Assign tasks to *worker groups* of Np cores (two-level hierarchy).

        The band-parallel PEtot_F path hands every fragment a whole group
        of ``cores_per_group`` workers (the paper's Np cores per group)
        instead of a single worker; the bins of this schedule are
        therefore groups, and LPT balances fragments over
        ``total_cores // cores_per_group`` of them.  The returned summary
        carries ``cores_per_group`` and the modelled
        ``intra_group_efficiency`` so callers (e.g.
        ``examples/scaling_study.py``) can print the model next to the
        measured value.

        Parameters
        ----------
        tasks:
            Fragment (or pipeline) tasks with a ``cost()`` method.
        total_cores:
            Workers available to PEtot_F in total.
        cores_per_group:
            Np.  When ``None``,
            :func:`repro.parallel.groups.choose_group_size` picks the
            largest Np whose modelled intra-group efficiency stays above
            ``min_efficiency`` — the paper's empirical Np = 40 sweet-spot
            logic.
        core_peak_gflops:
            Per-core peak feeding the efficiency model (default: the
            Franklin Opteron's 10.4 Gflop/s).
        min_efficiency:
            Efficiency floor for the automatic Np choice.

        Returns
        -------
        ScheduleSummary
            LPT assignment over the group-sized bins, annotated with
            ``cores_per_group`` and the modelled intra-group efficiency.
        """
        if total_cores < 1:
            raise ValueError("total_cores must be positive")
        if cores_per_group is None:
            cores_per_group = choose_group_size(
                core_peak_gflops,
                max(1, len(tasks)),
                total_cores,
                min_efficiency=min_efficiency,
            )
        if cores_per_group < 1:
            raise ValueError("cores_per_group must be positive")
        ngroups = max(1, total_cores // cores_per_group)
        summary = self.schedule_tasks(tasks, ngroups)
        decomp = GroupDecomposition(
            total_cores=ngroups * cores_per_group, cores_per_group=cores_per_group
        )
        summary.cores_per_group = int(cores_per_group)
        summary.intra_group_efficiency = decomp.intra_group_efficiency(
            core_peak_gflops
        )
        return summary

    def schedule_by_costs(self, costs: Sequence[float], ngroups: int) -> ScheduleSummary:
        """Core LPT assignment for explicit cost values.

        Also used by the performance model, which works with fragment
        size classes rather than concrete Fragment objects.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        costs_arr = np.asarray(costs, dtype=float)
        if np.any(costs_arr < 0):
            raise ValueError("costs must be non-negative")
        order = np.argsort(costs_arr)[::-1]
        heap: list[tuple[float, int]] = [(0.0, g) for g in range(ngroups)]
        heapq.heapify(heap)
        assignments: list[list[int]] = [[] for _ in range(ngroups)]
        loads = np.zeros(ngroups)
        for idx in order:
            load, group = heapq.heappop(heap)
            assignments[group].append(int(idx))
            load += float(costs_arr[idx])
            loads[group] = load
            heapq.heappush(heap, (load, group))
        mean_load = float(np.mean(loads)) if ngroups else 0.0
        makespan = float(np.max(loads)) if ngroups else 0.0
        imbalance = makespan / mean_load if mean_load > 0 else 1.0
        return ScheduleSummary(
            assignments=assignments,
            group_loads=loads,
            imbalance=imbalance,
            makespan=makespan,
        )
