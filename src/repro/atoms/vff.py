"""Keating valence force field (VFF) for zinc-blende semiconductors.

The paper relaxes the ZnTeO alloy geometries with the classical valence
force field (VFF) rather than with DFT forces, because for these alloys the
VFF relaxation is accurate enough and vastly cheaper.  This module
implements the standard Keating form

    E = sum_bonds  3*alpha/(16 d0^2) * (|r_ij|^2 - d0^2)^2
      + sum_angles 3*beta /(8 d0_ij d0_ik) * (r_ij . r_ik + d0_ij d0_ik / 3)^2

with per-bond equilibrium lengths ``d0`` taken from the sum of covalent
radii (or a per-pair table), analytic forces, and an L-BFGS relaxer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.structure import Structure, get_species
from repro.atoms.neighbors import build_neighbor_list, tetrahedral_bond_cutoff

# Keating parameters (N/m in the literature; here in model units of
# Hartree/Bohr^2 scaled to give realistic relative stiffness).  Only ratios
# matter for the relaxed geometry shape; the default values are typical
# II-VI semiconductor magnitudes.
DEFAULT_ALPHA = 0.0150
DEFAULT_BETA = 0.0035

# Equilibrium bond lengths (Bohr) for the pairs appearing in the paper's
# systems.  Values are ideal zinc-blende bond lengths a*sqrt(3)/4 from the
# tabulated lattice constants; Zn-O is shorter, which is what drives the
# local lattice distortion around oxygen substitutions.
DEFAULT_BOND_LENGTHS = {
    frozenset(("Zn", "Te")): 4.9963,
    frozenset(("Zn", "O")): 3.7823,
    frozenset(("Zn", "S")): 4.4287,
    frozenset(("Cd", "Se")): 4.9543,
    frozenset(("Ga", "As")): 4.6280,
    frozenset(("Si", "Si")): 4.4462,
}


def _equilibrium_length(sym_i: str, sym_j: str, table: dict) -> float:
    key = frozenset((sym_i, sym_j))
    if key in table:
        return table[key]
    # Fall back to the sum of covalent radii.
    return get_species(sym_i).covalent_radius + get_species(sym_j).covalent_radius


@dataclass
class KeatingVFF:
    """Keating valence force field bound to a specific structure topology.

    The neighbour topology (who is bonded to whom) is fixed at construction
    from the *input* geometry; the energy/forces are then smooth functions
    of the atomic positions, which is what a relaxation needs.

    Parameters
    ----------
    structure:
        Structure defining the cell, species and the bonding topology.
    alpha, beta:
        Keating bond-stretch and angle-bend force constants.
    bond_lengths:
        Optional per-pair equilibrium bond length table (Bohr), keyed by
        ``frozenset((sym_i, sym_j))``.
    cutoff:
        Neighbour cutoff (Bohr); default picks up first neighbours only.
    """

    structure: Structure
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    bond_lengths: dict = field(default_factory=lambda: dict(DEFAULT_BOND_LENGTHS))
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("force constants must be non-negative")
        cutoff = self.cutoff or tetrahedral_bond_cutoff(self.structure)
        nl = build_neighbor_list(self.structure, cutoff)
        self._pairs = nl.pairs
        symbols = self.structure.symbols
        self._d0 = np.array(
            [
                _equilibrium_length(symbols[i], symbols[j], self.bond_lengths)
                for i, j in self._pairs
            ]
        )
        # Angle triples (j, i, k): center atom i with two distinct bonded
        # neighbours j < k.
        adj: list[list[int]] = [[] for _ in range(self.structure.natoms)]
        pair_index: dict[tuple[int, int], int] = {}
        for p, (a, b) in enumerate(self._pairs):
            adj[int(a)].append(int(b))
            adj[int(b)].append(int(a))
            pair_index[(int(a), int(b))] = p
            pair_index[(int(b), int(a))] = p
        triples: list[tuple[int, int, int]] = []
        d0_products: list[float] = []
        for i, neigh in enumerate(adj):
            for a_idx in range(len(neigh)):
                for b_idx in range(a_idx + 1, len(neigh)):
                    j, k = neigh[a_idx], neigh[b_idx]
                    triples.append((j, i, k))
                    d0_ij = self._d0[pair_index[(i, j)]]
                    d0_ik = self._d0[pair_index[(i, k)]]
                    d0_products.append(d0_ij * d0_ik)
        self._triples = np.asarray(triples, dtype=int).reshape(-1, 3)
        self._d0prod = np.asarray(d0_products)
        self._ref_positions = self.structure.positions

    # ------------------------------------------------------------------
    @property
    def nbonds(self) -> int:
        return len(self._pairs)

    @property
    def nangles(self) -> int:
        return len(self._triples)

    def _min_image(self, vec: np.ndarray) -> np.ndarray:
        cell = self.structure.cell
        return vec - cell * np.round(vec / cell)

    def _bond_vectors(self, positions: np.ndarray) -> np.ndarray:
        i, j = self._pairs[:, 0], self._pairs[:, 1]
        d = positions[j] - positions[i]
        return self._min_image(d)

    def energy(self, positions: np.ndarray | None = None) -> float:
        """Total VFF energy (model Hartree) for the given positions."""
        pos = self.structure.positions if positions is None else np.asarray(positions)
        e_bond = 0.0
        e_angle = 0.0
        if self.nbonds:
            d = self._bond_vectors(pos)
            r2 = np.einsum("ij,ij->i", d, d)
            e_bond = float(
                np.sum(3.0 * self.alpha / (16.0 * self._d0**2) * (r2 - self._d0**2) ** 2)
            )
        if self.nangles:
            j, i, k = self._triples[:, 0], self._triples[:, 1], self._triples[:, 2]
            dij = self._min_image(pos[j] - pos[i])
            dik = self._min_image(pos[k] - pos[i])
            dot = np.einsum("ij,ij->i", dij, dik)
            e_angle = float(
                np.sum(
                    3.0 * self.beta / (8.0 * self._d0prod) * (dot + self._d0prod / 3.0) ** 2
                )
            )
        return e_bond + e_angle

    def forces(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Analytic forces ``-dE/dr`` (model Hartree/Bohr), shape (natoms, 3)."""
        pos = self.structure.positions if positions is None else np.asarray(positions)
        grad = np.zeros_like(pos)
        if self.nbonds:
            i, j = self._pairs[:, 0], self._pairs[:, 1]
            d = self._bond_vectors(pos)
            r2 = np.einsum("ij,ij->i", d, d)
            pref = 3.0 * self.alpha / (16.0 * self._d0**2) * 2.0 * (r2 - self._d0**2)
            # dE/dr_j = pref * 2 d ;  dE/dr_i = -pref * 2 d
            contrib = (pref[:, None] * 2.0) * d
            np.add.at(grad, j, contrib)
            np.add.at(grad, i, -contrib)
        if self.nangles:
            j, i, k = self._triples[:, 0], self._triples[:, 1], self._triples[:, 2]
            dij = self._min_image(pos[j] - pos[i])
            dik = self._min_image(pos[k] - pos[i])
            dot = np.einsum("ij,ij->i", dij, dik)
            pref = 3.0 * self.beta / (8.0 * self._d0prod) * 2.0 * (dot + self._d0prod / 3.0)
            # d(dot)/dr_j = dik ; d(dot)/dr_k = dij ; d(dot)/dr_i = -(dij + dik)
            np.add.at(grad, j, pref[:, None] * dik)
            np.add.at(grad, k, pref[:, None] * dij)
            np.add.at(grad, i, -pref[:, None] * (dij + dik))
        return -grad

    # ------------------------------------------------------------------
    def relax(
        self,
        max_steps: int = 200,
        force_tolerance: float = 1e-4,
    ) -> tuple[Structure, dict]:
        """Relax atomic positions at fixed cell with L-BFGS.

        Returns the relaxed structure and an info dict with the initial and
        final energies, the maximum residual force and the step count.
        """
        x0 = self.structure.positions.ravel().copy()
        natoms = self.structure.natoms

        def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
            pos = x.reshape(natoms, 3)
            e = self.energy(pos)
            g = -self.forces(pos)
            return e, g.ravel()

        # Imported on use: scipy.optimize costs ~0.45 s and ~40 MB, and every
        # driver, pool worker and daemon imports this package.
        from scipy.optimize import minimize

        e0 = self.energy()
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_steps, "gtol": force_tolerance},
        )
        final_pos = res.x.reshape(natoms, 3)
        relaxed = Structure(self.structure.cell, self.structure.symbols, final_pos)
        fmax = float(np.max(np.abs(self.forces(final_pos)))) if natoms else 0.0
        info = {
            "initial_energy": e0,
            "final_energy": float(res.fun),
            "max_force": fmax,
            "nsteps": int(res.nit),
            "converged": bool(res.success or fmax < 10 * force_tolerance),
        }
        return relaxed, info


def relax_structure(
    structure: Structure,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    max_steps: int = 200,
    force_tolerance: float = 1e-4,
) -> tuple[Structure, dict]:
    """Convenience wrapper: build a :class:`KeatingVFF` and relax.

    This mirrors the paper's workflow where every alloy supercell is
    VFF-relaxed before the LS3DF electronic-structure calculation.
    """
    vff = KeatingVFF(structure, alpha=alpha, beta=beta)
    return vff.relax(max_steps=max_steps, force_tolerance=force_tolerance)
