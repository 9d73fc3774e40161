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
    """

    assignments: list[list[int]]
    group_loads: np.ndarray
    imbalance: float
    makespan: float

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
