"""E9 — Section IV optimisation history of the four LS3DF subroutines.

The paper reports, for a 2,000-atom CdSe quantum-rod problem on 8,000
cores, the per-iteration times before and after the optimisation campaign:

    Gen_VF   22 s -> 2.5 s     (file I/O -> in-memory collectives)
    PEtot_F 170 s -> 60 s      (band-by-band BLAS-2 -> all-band BLAS-3)
    Gen_dens 19 s -> 2.2 s
    GENPOT   22 s -> 0.4 s

and, for the final point-to-point version on Intrepid (131,072 cores),
Gen_VF 0.37 s / PEtot_F 54.84 s / Gen_dens 0.56 s / GENPOT 1.23 s, i.e.
Gen_VF + Gen_dens below 2% of the iteration.
"""

from __future__ import annotations

import pytest

from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.comm import CommScheme, CommunicationModel
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.machine import FRANKLIN, INTREPID
from repro.parallel.perfmodel import LS3DFPerformanceModel


def _optimization_history():
    # 2,000-atom quantum-rod-like workload (250 cells) on 8,000 cores.
    wl = LS3DFWorkload((10, 5, 5), grid_per_cell=40, ecut_ry=50)
    cores, npg = 8000, 40

    def breakdown(scheme, kernel_slowdown=1.0, genpot_file_io=False):
        model = LS3DFPerformanceModel(FRANKLIN, wl, scheme)
        b = model.iteration_breakdown(cores, npg)
        b = dict(b)
        b["PEtot_F"] *= kernel_slowdown
        if genpot_file_io:
            # The pre-optimisation GENPOT passed the global density and
            # potential through the filesystem and repeated its setup every
            # call; model that as a file-I/O transfer of the two global
            # grid arrays on top of the compute time.
            io = CommunicationModel(FRANKLIN, CommScheme.FILE_IO)
            b["GENPOT"] += io.transfer_time(2 * 8.0 * wl.global_grid_points, cores)
        return b

    # Early version: file-I/O communication and the band-by-band (BLAS-2)
    # eigensolver running at ~15% of peak instead of ~42% (paper Section IV).
    before = breakdown(CommScheme.FILE_IO, kernel_slowdown=0.42 / 0.15, genpot_file_io=True)
    after = breakdown(CommScheme.COLLECTIVE, kernel_slowdown=1.0)

    # Final generation on Intrepid at 131,072 cores.
    wl_big = LS3DFWorkload((16, 16, 8), grid_per_cell=32, ecut_ry=40)
    final = LS3DFPerformanceModel(
        INTREPID, wl_big, CommScheme.POINT_TO_POINT
    ).iteration_breakdown(131072, 64)
    return before, after, final


@pytest.mark.paper_experiment
def test_bench_subroutine_optimizations(benchmark, results_dir):
    before, after, final = benchmark.pedantic(_optimization_history, rounds=1, iterations=1)
    rows = []
    paper_before = {"Gen_VF": 22.0, "PEtot_F": 170.0, "Gen_dens": 19.0, "GENPOT": 22.0}
    paper_after = {"Gen_VF": 2.5, "PEtot_F": 60.0, "Gen_dens": 2.2, "GENPOT": 0.4}
    for key in ("Gen_VF", "PEtot_F", "Gen_dens", "GENPOT"):
        rows.append(
            {
                "subroutine": key,
                "before [s]": round(before[key], 2),
                "after [s]": round(after[key], 2),
                "speedup": round(before[key] / after[key], 1),
                "paper before [s]": paper_before[key],
                "paper after [s]": paper_after[key],
                "paper speedup": round(paper_before[key] / paper_after[key], 1),
            }
        )
    print("\nSection IV optimisation history (2,000-atom problem, 8,000 cores):")
    print(format_table(rows))
    total_final = sum(final.values())
    frac_comm = (final["Gen_VF"] + final["Gen_dens"]) / total_final
    print(
        "Final Intrepid breakdown (131,072 cores): "
        + ", ".join(f"{k} {v:.2f}s" for k, v in final.items())
        + f"  (Gen_VF+Gen_dens = {100*frac_comm:.1f}% of iteration; paper <2%)"
    )
    save_records(
        [ResultRecord("optimizations", {"rows": rows, "final_breakdown": final})],
        results_dir / "optimizations.json",
    )

    # Shape: every subroutine got faster; the communication steps improved
    # by an order of magnitude; PEtot_F by a factor of a few.
    for row in rows:
        assert row["after [s]"] < row["before [s]"]
    speedups = {r["subroutine"]: r["speedup"] for r in rows}
    assert speedups["Gen_VF"] > 4.0
    assert speedups["Gen_dens"] > 4.0
    assert speedups["GENPOT"] > 3.0
    assert 1.5 < speedups["PEtot_F"] < 5.0
    # PEtot_F dominates the optimised iteration, as in the paper.
    assert after["PEtot_F"] > 5 * (after["Gen_VF"] + after["Gen_dens"])
    # Final generation: Gen_VF + Gen_dens below a few % of the iteration.
    assert frac_comm < 0.05
