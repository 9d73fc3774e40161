"""ZnTe(1-x)O(x)-style alloy workflow: the paper's science application.

Reproduces the paper's Section V-VII pipeline at model scale:

1. build a zinc-blende ZnTe supercell and substitute ~3% of the Te sites
   by oxygen (random, reproducible seed);
2. relax the alloy geometry with the Keating valence force field (the paper
   relaxes its alloys with VFF rather than DFT forces);
3. run LS3DF on the relaxed structure;
4. extract band-edge states with the folded spectrum method and analyse
   the oxygen-induced gap states (localisation, band width).

NOTE: with the pure-Python plane-wave substrate a zinc-blende supercell is
substantially more expensive than the toy systems; the default below uses a
2x1x1 supercell (16 atoms) so the example completes in tens of minutes.
Pass ``--dims 2 2 2`` (or larger) for a more faithful, slower run.

Usage:  python examples/znteo_alloy.py [--dims M1 M2 M3] [--ecut E]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis import localization_report
from repro.atoms import build_znteo_alloy, relax_structure
from repro.core import LS3DF
from repro.io import write_grid_npz


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs=3, default=[2, 1, 1],
                        help="supercell size in 8-atom cells")
    parser.add_argument("--ecut", type=float, default=2.5,
                        help="plane-wave cutoff (Hartree)")
    parser.add_argument("--oxygen", type=float, default=0.10,
                        help="O fraction on the Te sublattice (paper: 0.03)")
    parser.add_argument("--iterations", type=int, default=12)
    args = parser.parse_args()

    # 1. Alloy supercell (the fraction is higher than the paper's 3% so a
    #    small supercell still contains at least one O atom).
    alloy = build_znteo_alloy(args.dims, oxygen_fraction=args.oxygen, rng=0)
    print(f"Alloy: {alloy.formula()}  ({alloy.natoms} atoms)")

    # 2. VFF relaxation (Zn-O bonds are shorter than Zn-Te -> local distortion).
    relaxed, info = relax_structure(alloy)
    print(f"VFF relaxation: E {info['initial_energy']:.4f} -> {info['final_energy']:.4f} "
          f"(model units), max force {info['max_force']:.2e}, {info['nsteps']} steps")

    # 3. LS3DF on the relaxed structure; the fragment grid is the cell grid.
    ls3df = LS3DF(relaxed, grid_dims=tuple(args.dims), ecut=args.ecut,
                  buffer_cells=0.5, n_empty=3)
    print(f"{ls3df.nfragments} fragments, global grid {ls3df.global_grid.shape}")
    for result in ls3df.iterate(max_iterations=args.iterations, potential_tolerance=2e-3,
                                eigensolver_tolerance=1e-4):
        print(f"LS3DF {result.iterations:3d}: |Vout-Vin| = "
              f"{result.convergence_history[-1]:.3e}  E = {result.total_energy:.6f} Ha")
    print(f"LS3DF energy {result.total_energy:.4f} Ha, "
          f"|Vout-Vin| history: {[round(v, 2) for v in result.convergence_history]}")

    # 4. Band-edge states + oxygen localisation analysis (paper Fig. 7).
    states = ls3df.band_edge_states(result, n_states=4)
    densities = states.densities_on_grid()
    report = localization_report(states.energies, densities, ls3df.global_grid, relaxed)
    print("\nBand-edge states (folded spectrum method):")
    for e, ipr, species, ow in zip(report.energies_ev, report.ipr,
                                   report.dominant_species, report.oxygen_weight):
        print(f"  E = {e:8.3f} eV   IPR = {ipr:.4f}   dominant atom = {species:9s} "
              f"  O weight = {ow:.2f}")

    # Export the most oxygen-like state for visualisation (npz grid data).
    o_state = int(np.argmax(report.oxygen_weight))
    path = write_grid_npz("band_edge_state.npz", ls3df.global_grid, relaxed,
                          state_density=densities[o_state])
    print(f"\nWrote |psi|^2 of the most O-localised state to {path}")


if __name__ == "__main__":
    main()
