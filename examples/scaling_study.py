"""Parallel scaling study: the paper's performance evaluation end to end.

Part A reproduces the modelled evaluation (Table I, Figures 3-5) for any of
the three machines; Part B runs a *real* laptop-scale strong-scaling
measurement: a full LS3DF self-consistent calculation is repeated with the
serial and process-pool fragment-execution backends (every
fragment one fused Gen_VF->solve->Gen_dens task per iteration) and the
*measured* PEtot_F speedup (from the per-fragment wall times the SCF loop
records) is printed next to the speedup the LPT load-balancing model
predicts for the same fragment batch, together with the measured Amdahl
serial fraction of a warm iteration.  The paper's second parallel level
(Np cores sharing one fragment's solve) appears only in Part A's model:
every real backend solves a fragment on one worker.

Usage:  python examples/scaling_study.py [--machine franklin|jaguar|intrepid]
                                         [--workers N]
"""

from __future__ import annotations

import argparse

from repro.atoms import cscl_binary
from repro.core import LS3DFSCF
from repro.io import format_table
from repro.parallel import (
    DirectDFTCostModel,
    FragmentScheduler,
    LS3DFPerformanceModel,
    LS3DFWorkload,
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    machine_by_name,
)
from repro.parallel.comm import CommScheme


def modelled_evaluation(machine_name: str) -> None:
    machine = machine_by_name(machine_name)
    scheme = CommScheme.POINT_TO_POINT if machine.name == "Intrepid" else CommScheme.COLLECTIVE
    grid, ecut = (32, 40) if machine.name == "Intrepid" else (40, 50)
    print(f"\n=== Modelled LS3DF performance on {machine.name} ===")
    rows = []
    runs = [((4, 4, 4), 2560, 20), ((8, 6, 9), 8640, 40), ((8, 6, 9), 17280, 40)]
    if machine.name == "Intrepid":
        runs = [((4, 4, 4), 4096, 64), ((8, 8, 8), 32768, 64), ((16, 16, 8), 131072, 64)]
    for dims, cores, npg in runs:
        wl = LS3DFWorkload(dims, grid_per_cell=grid, ecut_ry=ecut)
        point = LS3DFPerformanceModel(machine, wl, scheme).evaluate(cores, npg)
        rows.append(point.as_row())
    print(format_table(rows))
    direct = DirectDFTCostModel()
    wl = LS3DFWorkload((12, 12, 12))
    model = LS3DFPerformanceModel(machine_by_name("franklin"), wl, CommScheme.COLLECTIVE)
    print(f"LS3DF vs O(N^3) speedup at 13,824 atoms: "
          f"{direct.speedup_of_ls3df(model, 17280, 10):.0f}x  "
          f"(crossover ~{direct.crossover_atoms(machine_by_name('franklin'), 320, 20):.0f} atoms)")


def real_strong_scaling(max_workers: int) -> None:
    print("\n=== Real LS3DF strong scaling (pluggable fragment backends) ===")
    structure = cscl_binary((2, 2, 1), "Zn", "Se", 6.5)

    def run_with(executor):
        scf = LS3DFSCF(
            structure,
            grid_dims=(2, 2, 1),
            ecut=2.2,
            buffer_cells=0.5,
            n_empty=2,
            mixer="kerker",
            executor=executor,
        )
        result = scf.run(
            max_iterations=3,
            potential_tolerance=1e-6,  # fixed work: never converges early
            eigensolver_tolerance=1e-4,
            eigensolver_iterations=40,
        )
        return scf, result

    backends = [("serial", 1, SerialFragmentExecutor())]
    for workers in sorted({2, max_workers} if max_workers > 1 else set()):
        backends.append((f"processes x{workers}", workers,
                         ProcessPoolFragmentExecutor(n_workers=workers)))

    scheduler = FragmentScheduler()
    rows = []
    baseline_wall = None
    for name, workers, executor in backends:
        scf, result = run_with(executor)
        if hasattr(executor, "close"):
            executor.close()
        petot_wall = sum(t.petot_f for t in result.timings)
        petot_cpu = sum(t.petot_f_cpu for t in result.timings)
        # Measured Amdahl alpha of the last (warm) iteration: driver-side
        # serial time (task building, reduce residue, GENPOT) vs. summed
        # per-fragment time.
        alpha = result.timings[-1].measured_serial_fraction
        if baseline_wall is None:
            baseline_wall = petot_wall
        # Modelled speedup: perfect LPT load balancing of this fragment
        # batch over the workers (sum of costs / heaviest group).
        schedule = scheduler.schedule(scf.fragments, workers)
        rows.append({
            "backend": name,
            "PEtot_F wall [s]": round(petot_wall, 2),
            "measured speedup": round(baseline_wall / petot_wall, 2),
            "modeled speedup (LPT)": round(schedule.lpt_speedup, 2),
            "in-step speedup": round(petot_cpu / petot_wall, 2),
            "imbalance": round(schedule.imbalance, 2),
            # The paper quotes alpha as 1/N (e.g. 1/101,000).
            "serial fraction": f"1/{1.0 / alpha:,.0f}" if alpha > 0 else "0",
        })
    print(f"{scf.nfragments} fragments, 3 SCF iterations per backend")
    print(format_table(rows))
    print("(measured = serial PEtot_F wall / backend PEtot_F wall;"
          " modeled = LPT-balanced ideal for the same fragment costs;"
          " serial fraction = measured Amdahl alpha of the last iteration)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machine", default="franklin",
                        choices=["franklin", "jaguar", "intrepid"])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--skip-real", action="store_true",
                        help="only run the modelled evaluation")
    args = parser.parse_args()
    modelled_evaluation(args.machine)
    if not args.skip_real:
        real_strong_scaling(args.workers)


if __name__ == "__main__":
    main()
