"""Parallel scaling study: the paper's performance evaluation end to end.

Part A reproduces the modelled evaluation (Table I, Figures 3-5) for any of
the three machines; Part B runs a *real* laptop-scale strong-scaling
measurement: a full LS3DF self-consistent calculation is repeated with the
serial and process-pool fragment-execution backends (every
fragment one fused Gen_VF->solve->Gen_dens task per iteration) and the
*measured* PEtot_F speedup (from the per-fragment wall times the SCF loop
records) is printed next to the speedup the LPT load-balancing model
predicts for the same fragment batch, together with the measured Amdahl
serial fraction of a warm iteration.  Part C exercises the two-level
hierarchy: the band-parallel eigensolver (``band_groups=``, the paper's
Np cores per fragment group) at a few slice counts, printing which side
each run took — band slices only when the workers outnumber the
fragments, whole fragments otherwise — and the *modelled* intra-group
efficiency (``GroupDecomposition``) next to the *measured* one from the
recorded band-task times of the sliced runs.

Usage:  python examples/scaling_study.py [--machine franklin|jaguar|intrepid]
                                         [--workers N]
"""

from __future__ import annotations

import argparse

from repro.atoms import cscl_binary
from repro.core import LS3DFSCF
from repro.io import format_table
from repro.parallel import (
    FRANKLIN,
    DirectDFTCostModel,
    FragmentScheduler,
    GroupDecomposition,
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


def band_group_study(max_workers: int) -> None:
    """Part C: the two-level hierarchy, modelled vs measured.

    Runs the same small LS3DF system with the band-parallel eigensolver
    at a few slice counts and prints, per configuration, which side the
    warm iteration took (``IterationTimings.band_sliced``: band slices
    only with more workers than fragments, so the 16 fragments of this
    2×2×1 division run whole on up to 16 workers), the largest
    fragment's wall time and two intra-group efficiencies: the modelled
    one (``GroupDecomposition.intra_group_efficiency`` of Np Franklin
    cores) and, for sliced runs only, the measured one
    (``IterationTimings.measured_intra_group_efficiency``, from the
    recorded per-slice band-task times).
    """
    print("\n=== Band-parallel eigensolver (two-level hierarchy) ===")
    structure = cscl_binary((2, 2, 1), "Zn", "Se", 6.5)
    rows = []
    configs: list[tuple[str, object, int | None]] = [
        ("serial (no groups)", SerialFragmentExecutor, None)
    ]
    for nslices in sorted({2, max(2, min(max_workers, 4))}):
        configs.append((f"processes, band_groups={nslices}",
                        lambda: ProcessPoolFragmentExecutor(
                            n_workers=max(2, max_workers)),
                        nslices))
    for name, make_executor, band_groups in configs:
        executor = make_executor()
        scf = LS3DFSCF(
            structure,
            grid_dims=(2, 2, 1),
            ecut=2.2,
            buffer_cells=0.5,
            n_empty=2,
            mixer="kerker",
            executor=executor,
            band_groups=band_groups,
        )
        result = scf.run(
            max_iterations=2,
            potential_tolerance=1e-6,
            eigensolver_tolerance=1e-4,
            eigensolver_iterations=40,
        )
        if hasattr(executor, "close"):
            executor.close()
        warm = result.timings[-1]  # warm iteration: the representative one
        largest = max(warm.petot_f_fragments)
        modeled = measured = "-"
        if band_groups is not None:
            decomp = GroupDecomposition(band_groups, band_groups)
            modeled = f"{decomp.intra_group_efficiency(FRANKLIN.core_peak_gflops):.2f}"
        if warm.band_sliced:
            measured = f"{warm.measured_intra_group_efficiency:.2f}"
        rows.append({
            "configuration": name,
            "side": "band slices" if warm.band_sliced else "whole fragments",
            "largest-fragment wall [s]": round(largest, 3),
            "PEtot_F wall [s]": round(warm.petot_f, 2),
            "modeled intra-group eff": modeled,
            "measured intra-group eff": measured,
        })
    print(format_table(rows))
    print("(side = band slices only when the workers outnumber the"
          f" {scf.nfragments} fragments; modeled ="
          " GroupDecomposition.intra_group_efficiency of Np Franklin"
          " cores; measured = band-task CPU / (Np x G x PEtot_F wall) of a"
          " sliced warm iteration, G = band groups the workers hold — 1-core"
          " boxes keep the measured value below the model, the gap is the"
          " group root's cross-band algebra)")


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
        band_group_study(args.workers)


if __name__ == "__main__":
    main()
