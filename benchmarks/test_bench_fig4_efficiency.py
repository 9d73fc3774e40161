"""E3 — Figure 4: computational efficiency versus concurrency on Franklin.

The paper plots % of peak against core count for all Franklin runs (216 to
13,824 atoms) and observes that (i) efficiency is almost independent of the
physical system size at fixed concurrency and (ii) it drops mildly at very
high concurrency, mostly due to Gen_VF / Gen_dens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.comm import CommScheme
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.machine import FRANKLIN
from repro.parallel.perfmodel import LS3DFPerformanceModel

FRANKLIN_RUNS = [
    ((3, 3, 3), 270, 10), ((3, 3, 3), 540, 20), ((3, 3, 3), 1080, 40),
    ((4, 4, 4), 1280, 20), ((5, 5, 5), 2500, 20), ((6, 6, 6), 4320, 20),
    ((8, 6, 9), 1080, 40), ((8, 6, 9), 2160, 40), ((8, 6, 9), 4320, 40),
    ((8, 6, 9), 8640, 40), ((8, 6, 9), 17280, 40),
    ((8, 8, 8), 2560, 20), ((8, 8, 8), 10240, 20),
    ((10, 10, 8), 2000, 20), ((10, 10, 8), 16000, 20),
    ((12, 12, 12), 17280, 10),
]


def _efficiencies():
    rows = []
    for dims, cores, npg in FRANKLIN_RUNS:
        wl = LS3DFWorkload(dims, grid_per_cell=40, ecut_ry=50)
        p = LS3DFPerformanceModel(FRANKLIN, wl, CommScheme.COLLECTIVE).evaluate(cores, npg)
        rows.append(
            {
                "atoms": wl.natoms,
                "cores": cores,
                "Np": npg,
                "efficiency %": round(p.percent_peak, 1),
            }
        )
    return rows


@pytest.mark.paper_experiment
def test_fig4_measured_parallel_efficiency(results_dir):
    """Real (not modelled) PEtot_F parallel efficiency on local cores.

    Complements the modelled % -of-peak table with a measured number: one
    real fragment batch through the process-pool backend, its parallel
    efficiency from per-fragment wall times, and the LPT scheduler's
    predicted load imbalance for the same batch.
    """
    from _real_tasks import make_real_tasks
    from repro.parallel.executor import ProcessPoolFragmentExecutor

    tasks = make_real_tasks((2, 2, 1))
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        report = executor.run(tasks)

    print("\nFigure 4 companion (measured PEtot_F efficiency, local processes x2):")
    print(f"  wall {report.wall_time:.2f}s  task-sum {report.total_cpu_time:.2f}s"
          f"  efficiency {report.parallel_efficiency:.2f}"
          f"  LPT imbalance {report.schedule.imbalance:.3f}")
    save_records(
        [ResultRecord("fig4_measured", {
            "wall_time": report.wall_time,
            "total_task_time": report.total_cpu_time,
            "parallel_efficiency": report.parallel_efficiency,
            "lpt_imbalance": report.schedule.imbalance,
        })],
        results_dir / "fig4_measured_efficiency.json",
    )

    assert len(report.results) == len(tasks)
    assert report.parallel_efficiency > 0
    # The LPT heuristic keeps the predicted imbalance of the mixed 1..8-cell
    # fragment classes small — the property behind the paper's >95% PEtot_F
    # efficiencies.
    assert report.schedule is not None
    assert report.schedule.imbalance < 1.25


@pytest.mark.paper_experiment
def test_bench_fig4_efficiency(benchmark, results_dir):
    rows = benchmark.pedantic(_efficiencies, rounds=1, iterations=1)
    print("\nFigure 4 (computational efficiency on Franklin):")
    print(format_table(rows))
    save_records([ResultRecord("fig4", {"rows": rows})], results_dir / "fig4_efficiency.json")

    eff = np.array([r["efficiency %"] for r in rows])
    cores = np.array([r["cores"] for r in rows])
    atoms = np.array([r["atoms"] for r in rows])

    # All efficiencies fall in the paper's 30-45% band.
    assert np.all(eff > 28.0) and np.all(eff < 46.0)

    # (i) At comparable concurrency the efficiency is nearly independent of
    # the system size: compare the ~1,000-2,600 core runs across systems.
    mid = (cores >= 1000) & (cores <= 2600)
    assert np.ptp(eff[mid]) < 4.0
    assert len(set(atoms[mid])) >= 4  # genuinely different systems compared

    # (ii) Efficiency decreases with concurrency for the 3,456-atom series.
    series = [(c, e) for (d, c, n), e in zip(FRANKLIN_RUNS, eff) if d == (8, 6, 9)]
    series.sort()
    effs_sorted = [e for _, e in series]
    assert effs_sorted[0] > effs_sorted[-1]
    assert effs_sorted[0] - effs_sorted[-1] > 2.0
