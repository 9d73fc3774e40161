"""Direct (conventional, O(N^3)) self-consistent field driver.

This is the "direct DFT" the paper compares LS3DF against: a single
Kohn-Sham problem over the whole supercell, solved self-consistently with
potential mixing.  It is used three ways in this repository:

* as the reference for the LS3DF-vs-direct accuracy experiments (E7);
* as the per-fragment solver inside LS3DF (fragments are just small
  periodic cells);
* as the cost model anchor for the O(N^3) crossover analysis (E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.structure import Structure
from repro.pw.basis import PlaneWaveBasis
from repro.pw.density import compute_density, occupations_for_insulator
from repro.pw.eigensolver import all_band_cg
from repro.pw.energy import (
    EnergyBreakdown,
    potential_distance,
    screening_potential,
    total_energy_from_orbitals,
)
from repro.pw.density import normalize_density
from repro.pw.grid import FFTGrid, grid_density
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.mixing import make_mixer
from repro.pw.pseudopotential import PseudopotentialSet, default_pseudopotentials


@dataclass(eq=False)
class SCFResult:
    """Outcome of a self-consistent field calculation.

    Attributes
    ----------
    eigenvalues:
        Final band energies (Hartree).
    coefficients:
        Final orbital coefficients ``(nbands, npw)``.
    density:
        Final real-space density.
    potential:
        Final screening (Hartree + XC) potential.
    energy:
        Total-energy breakdown at the final density.
    converged:
        True when the potential-difference metric fell below the tolerance.
    iterations:
        Number of SCF iterations performed.
    convergence_history:
        Per-iteration value of integral |V_out - V_in| d^3r (the paper's
        Fig. 6 metric).
    energy_history:
        Per-iteration total energy.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    density: np.ndarray
    potential: np.ndarray
    energy: EnergyBreakdown
    converged: bool
    iterations: int
    convergence_history: list[float] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)

    @property
    def total_energy(self) -> float:
        return self.energy.total

    def band_gap(self, nelectrons: int) -> float:
        """Kohn-Sham gap between the highest occupied and lowest empty band."""
        homo = nelectrons // 2 - 1 + (nelectrons % 2)
        lumo = homo + 1
        if lumo >= len(self.eigenvalues):
            raise ValueError("not enough bands to evaluate the gap; add empty bands")
        return float(self.eigenvalues[lumo] - self.eigenvalues[homo])


class DirectSCF:
    """Self-consistent Kohn-Sham solver for one periodic cell.

    Parameters
    ----------
    structure:
        Periodic structure (Bohr).
    ecut:
        Plane-wave cutoff (Hartree).
    grid:
        Optional explicit FFT grid; by default one resolving the
        cutoff's density (:func:`~repro.pw.grid.grid_density`).
    pseudopotentials:
        Model pseudopotential set; defaults to the paper's species set.
    nbands:
        Number of bands; defaults to enough for the electrons plus ~20%
        empty bands (needed for gap evaluation and for FSM references).
    n_empty:
        Guard bands above the occupied ones when ``nbands`` is not given:
        iterated and returned, not gated (``all_band_cg(nconverge=)``).
    mixer:
        ``"anderson"`` (default), ``"kerker"`` or ``"linear"``.
    """

    def __init__(
        self,
        structure: Structure,
        ecut: float = 4.0,
        grid: FFTGrid | None = None,
        pseudopotentials: PseudopotentialSet | None = None,
        nbands: int | None = None,
        n_empty: int = 4,
        mixer: str = "anderson",
        mixer_options: dict | None = None,
        points_per_bohr: float | None = None,
    ) -> None:
        self.structure = structure
        self.pseudopotentials = pseudopotentials or default_pseudopotentials()
        for sym in set(structure.symbols):
            if sym not in self.pseudopotentials:
                raise KeyError(f"missing pseudopotential for {sym!r}")
        if grid is None:
            grid = FFTGrid.for_structure(structure.cell, grid_density(ecut, points_per_bohr))
        self.grid = grid
        self.basis = PlaneWaveBasis(grid, ecut)
        self.nelectrons = structure.total_valence_electrons()
        if nbands is None:
            nbands = (self.nelectrons + 1) // 2 + n_empty
        if nbands < (self.nelectrons + 1) // 2:
            raise ValueError("nbands too small to hold all electrons")
        self.nbands = int(nbands)
        self.occupations = occupations_for_insulator(self.nelectrons, self.nbands)
        self.hamiltonian = Hamiltonian.from_structure(
            structure, self.basis, self.pseudopotentials
        )
        self.ionic_density = self.pseudopotentials.ionic_density(structure, grid)
        self.ionic_self_energy = self.pseudopotentials.ionic_self_energy(structure)
        self.mixer = make_mixer(mixer, grid=grid, **(mixer_options or {}))

    # ------------------------------------------------------------------
    def initial_density(self) -> np.ndarray:
        """Starting electron density guess.

        A superposition of the smeared ionic charges (clipped to be
        non-negative and renormalised to the electron count) — i.e. a
        neutral-pseudo-atom guess, the standard starting point of
        production plane-wave codes.  Falls back to a uniform density when
        the model carries no ionic charge.
        """
        if np.any(self.ionic_density > 0):
            rho = np.clip(self.ionic_density, 0.0, None)
            return normalize_density(rho, self.nelectrons, self.grid.dvol)
        return np.full(self.grid.shape, self.nelectrons / self.grid.volume)

    def run(
        self,
        max_scf_iterations: int = 40,
        potential_tolerance: float = 1e-4,
        eigensolver_tolerance: float = 1e-6,
        eigensolver_iterations: int = 40,
        initial_potential: np.ndarray | None = None,
    ) -> SCFResult:
        """Run the SCF loop to convergence (or the iteration cap).

        The convergence metric is the paper's integral |V_out - V_in| d^3r.
        """
        if max_scf_iterations < 1:
            raise ValueError("max_scf_iterations must be at least 1")
        grid = self.grid
        if initial_potential is None:
            rho0 = self.initial_density()
            v_in = screening_potential(rho0, grid, self.ionic_density)
        else:
            if initial_potential.shape != grid.shape:
                raise ValueError("initial potential shape mismatch")
            v_in = initial_potential.copy()
        self.mixer.reset()
        # The same rule as the fragment solves: wait for the occupied bands.
        noccupied = max(1, int(np.count_nonzero(self.occupations)))

        coeffs: np.ndarray | None = None
        conv_history: list[float] = []
        energy_history: list[float] = []
        converged = False
        for iteration in range(1, max_scf_iterations + 1):
            self.hamiltonian.set_effective_potential(v_in)
            band_result = all_band_cg(
                self.hamiltonian,
                self.nbands,
                initial=coeffs,
                max_iterations=eigensolver_iterations,
                tolerance=eigensolver_tolerance,
                nconverge=noccupied,
            )
            coeffs = band_result.coefficients
            eigenvalues = band_result.eigenvalues
            density = compute_density(self.basis, coeffs, self.occupations)
            v_out = screening_potential(density, grid, self.ionic_density)
            diff = potential_distance(v_out, v_in, grid)
            conv_history.append(diff)
            energy = total_energy_from_orbitals(
                self.hamiltonian,
                coeffs,
                self.occupations,
                density,
                self.ionic_density,
                self.ionic_self_energy,
            )
            energy_history.append(energy.total)
            if diff < potential_tolerance:
                converged = True
                v_in = v_out
                break
            v_in = self.mixer.mix(v_in, v_out)

        return SCFResult(
            eigenvalues=eigenvalues,
            coefficients=coeffs,
            density=density,
            potential=v_in,
            energy=energy,
            converged=converged,
            iterations=iteration,
            convergence_history=conv_history,
            energy_history=energy_history,
        )
