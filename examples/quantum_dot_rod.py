"""CdSe quantum-rod-style workload: dipole moments from LS3DF densities.

The paper's Section IV optimisation benchmark is a 2,000-atom CdSe quantum
rod, and its earlier validation work compares LS3DF dipole moments of
thousand-atom quantum rods against direct LDA (<1% deviation).  This
example runs the same analysis at model scale on an elongated CdSe-like
supercell: the LS3DF density is compared to the direct-DFT density through
the electronic dipole moment.

Usage:  python examples/quantum_dot_rod.py
"""

from __future__ import annotations

import numpy as np

from repro.atoms import cscl_binary
from repro.core import LS3DF
from repro.core.compare import dipole_moment
from repro.pw import DirectSCF


def main() -> None:
    # An elongated ("rod-like") Cd-Se toy cell: 3 cells along x.
    structure = cscl_binary((3, 1, 1), "Cd", "Se", 6.8)
    print(f"Rod-like system: {structure.formula()} ({structure.natoms} atoms)")

    ls3df = LS3DF(structure, grid_dims=(3, 1, 1), ecut=2.2, buffer_cells=0.5, n_empty=2)
    for ls_result in ls3df.iterate(max_iterations=10, potential_tolerance=3e-3,
                                   eigensolver_tolerance=1e-4):
        print(f"LS3DF {ls_result.iterations:3d}: |Vout-Vin| = "
              f"{ls_result.convergence_history[-1]:.3e}  E = {ls_result.total_energy:.6f} Ha")

    direct = DirectSCF(structure, ecut=2.2, grid=ls3df.global_grid, n_empty=3)
    d_result = direct.run(max_scf_iterations=25, potential_tolerance=3e-3,
                          eigensolver_tolerance=1e-4)

    dip_ls = dipole_moment(ls_result.density, ls3df.global_grid)
    dip_d = dipole_moment(d_result.density, ls3df.global_grid)
    print("\nElectronic dipole moments (a.u.):")
    print(f"  LS3DF : {np.round(dip_ls, 4)}")
    print(f"  direct: {np.round(dip_d, 4)}")
    denom = max(np.linalg.norm(dip_d), 1e-6)
    print(f"  relative deviation: {np.linalg.norm(dip_ls - dip_d) / denom * 100:.1f}% "
          f"(paper: <1% at production settings)")
    print(f"\nTotal energies: LS3DF {ls_result.total_energy:.4f} Ha, "
          f"direct {d_result.total_energy:.4f} Ha")


if __name__ == "__main__":
    main()
