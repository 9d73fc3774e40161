"""Quickstart: solve a small periodic system with LS3DF and compare to direct DFT.

This is the smallest end-to-end use of the public API:

1. build a toy periodic crystal (2 atoms per cubic cell);
2. run the LS3DF divide-and-conquer self-consistent loop;
3. run the conventional (O(N^3)) plane-wave SCF on the same system;
4. compare total energies, band gaps and densities.

Run time: a few minutes on a laptop.

Usage:  python examples/quickstart.py

Checkpoint/restart (the paper's production runs restart from saved SCF
state after preemption) is demonstrated by the ``--checkpoint-dir`` and
``--resume`` flags: run with a checkpoint directory, kill the process
mid-SCF (Ctrl-C), then rerun the same command with ``--resume`` — the
loop continues at the saved iteration and the remaining iterates are
bit-identical to an uninterrupted run:

    python examples/quickstart.py --checkpoint-dir /tmp/ls3df-ckpt
    # ... kill it after a few "LS3DF   n:" lines ...
    python examples/quickstart.py --checkpoint-dir /tmp/ls3df-ckpt --resume
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.atoms import cscl_binary
from repro.constants import HARTREE_TO_EV
from repro.core import LS3DF
from repro.io import has_checkpoint, load_checkpoint
from repro.pw import DirectSCF


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save SCF checkpoints to DIR after every iteration",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint in --checkpoint-dir (fresh run if none)",
    )
    parser.add_argument(
        "--max-iterations", type=int, default=12,
        help="LS3DF outer iteration cap (default 12)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    # 1. A small Zn-Se toy crystal: 2x1x1 cubic cells, 4 atoms, 16 electrons.
    structure = cscl_binary((2, 1, 1), "Zn", "Se", lattice_constant=6.5)
    print(f"System: {structure.formula()}  ({structure.natoms} atoms, "
          f"{structure.total_valence_electrons()} electrons)")

    # 2. LS3DF: fragment grid = the cell grid (2 x 1 x 1), four fragments.
    ls3df = LS3DF(structure, grid_dims=(2, 1, 1), ecut=2.4, buffer_cells=0.5, n_empty=3)
    print(f"LS3DF fragments: {ls3df.nfragments}, global grid {ls3df.global_grid.shape}")
    if args.resume and has_checkpoint(args.checkpoint_dir):
        saved_iteration = load_checkpoint(args.checkpoint_dir).iteration
        if saved_iteration >= args.max_iterations:
            parser.exit(
                message=f"Checkpoint in {args.checkpoint_dir} already covers "
                f"iteration {saved_iteration}; the SCF finished.  Rerun with a "
                f"higher --max-iterations to continue it, or delete the "
                f"directory to start over.\n"
            )
        print(f"Resuming from {args.checkpoint_dir} at iteration {saved_iteration + 1}")
    for ls_result in ls3df.iterate(max_iterations=args.max_iterations, potential_tolerance=2e-3,
                                   eigensolver_tolerance=1e-5,
                                   checkpoint_dir=args.checkpoint_dir, resume=args.resume):
        print(f"LS3DF {ls_result.iterations:3d}: |Vout-Vin| = "
              f"{ls_result.convergence_history[-1]:.3e}  E = {ls_result.total_energy:.6f} Ha")
    print(f"LS3DF total energy:  {ls_result.total_energy:.6f} Ha "
          f"(converged={ls_result.converged}, {ls_result.iterations} iterations)")

    # 3. Direct DFT reference on the same grid.
    direct = DirectSCF(structure, ecut=2.4, grid=ls3df.global_grid, n_empty=4)
    d_result = direct.run(max_scf_iterations=30, potential_tolerance=2e-3,
                          eigensolver_tolerance=1e-5)
    print(f"Direct total energy: {d_result.total_energy:.6f} Ha "
          f"(converged={d_result.converged}, {d_result.iterations} iterations)")

    # 4. Compare.
    nelec = structure.total_valence_electrons()
    de = (ls_result.total_energy - d_result.total_energy) / structure.natoms
    drho = np.sum(np.abs(ls_result.density - d_result.density)) * ls3df.global_grid.dvol
    print(f"\nEnergy difference:   {de * 1000:.2f} mHa/atom")
    print(f"Density L1 error:    {drho:.3f} electrons (of {nelec})")
    print(f"Direct band gap:     {d_result.band_gap(nelec) * HARTREE_TO_EV:.2f} eV")

    # Band-edge states from the converged LS3DF potential (folded spectrum).
    states = ls3df.band_edge_states(ls_result, n_states=2)
    print("Band-edge states from LS3DF potential (FSM):",
          np.round(states.energies * HARTREE_TO_EV, 3), "eV")


if __name__ == "__main__":
    main()
