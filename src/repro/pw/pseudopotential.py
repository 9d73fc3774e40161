"""Model pseudopotentials: analytic local parts + Kleinman-Bylander projectors.

The paper uses tabulated norm-conserving pseudopotentials with reciprocal
space (q-space) Kleinman-Bylander nonlocal projectors.  Those data files are
not available offline, so this module substitutes *analytic* model
pseudopotentials with the same mathematical structure:

* the local part of species ``s`` is a short-ranged attractive Gaussian well
  whose reciprocal-space form factor is
  ``f_s(|G|) = -V0 * (2*pi*sigma^2)^{3/2} * exp(-sigma^2 |G|^2 / 2)``;
* the nonlocal part is a single separable Kleinman-Bylander projector per
  atom with a Gaussian radial shape and species-dependent strength.

The total local potential is assembled in reciprocal space through the
structure factor ``S_s(G) = sum_{a in s} exp(-i G . tau_a)`` — exactly the
operation a production plane-wave code performs — and the nonlocal part is
applied with BLAS-3 projector matrices, which is the operation the paper's
all-band optimisation accelerates.

Species parameters are chosen so that the qualitative physics of the
paper's systems survives: the O well is much deeper than the Te well, so a
dilute ZnTe(O) alloy develops oxygen-induced states split off below the
host conduction states (the paper's mid-band-gap states).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.atoms.structure import Structure
from repro.pw.basis import PlaneWaveBasis
from repro.pw.grid import FFTGrid


@dataclass(frozen=True)
class SpeciesPseudopotential:
    """Analytic model pseudopotential parameters for one species.

    The ionic part of the pseudo-atom is a *Gaussian-smeared positive point
    charge* of magnitude ``zion`` (the number of valence electrons the
    species contributes) and width ``core_width``; its long-range -Z/r tail
    enters the Kohn-Sham potential through the global Poisson solve of the
    net charge density (electrons minus ions), exactly the way LS3DF's
    GENPOT step treats electrostatics.  On top of that sit a short-range
    Gaussian correction well (``v0``, ``sigma``) and a separable
    Kleinman-Bylander projector.

    Parameters
    ----------
    symbol:
        Species symbol.
    v0:
        Depth of the short-range local Gaussian correction (Hartree; a
        positive number means an attractive well
        ``-v0 * exp(-r^2 / (2 sigma^2))``, a negative number a repulsive
        core bump).
    sigma:
        Width of the local correction well (Bohr).
    zion:
        Ionic (valence) charge carried by the smeared Gaussian ion.
    core_width:
        Width of the Gaussian ionic charge (Bohr).  Smaller widths make the
        near-nucleus potential deeper (how the model differentiates the
        compact O ion from the larger Te ion).
    nonlocal_strength:
        Kleinman-Bylander energy ``E_KB`` (Hartree); may be positive
        (repulsive) or negative (attractive) or zero (purely local).
    nonlocal_radius:
        Radial width of the Gaussian KB projector (Bohr).
    """

    symbol: str
    v0: float
    sigma: float
    zion: float = 0.0
    core_width: float = 0.8
    nonlocal_strength: float = 0.0
    nonlocal_radius: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.core_width <= 0 or self.nonlocal_radius <= 0:
            raise ValueError(
                f"widths for {self.symbol!r} must be positive "
                f"(sigma={self.sigma}, core_width={self.core_width}, "
                f"nonlocal_radius={self.nonlocal_radius})"
            )

    def local_form_factor(self, gnorm2: np.ndarray) -> np.ndarray:
        """Reciprocal-space form factor of the short-range local part.

        Defined such that the contribution of one atom at tau to V_loc(G)
        is ``f(|G|^2) * exp(-i G tau) / Omega``.
        """
        s2 = self.sigma * self.sigma
        return -self.v0 * (2.0 * np.pi * s2) ** 1.5 * np.exp(-0.5 * s2 * gnorm2)

    def ionic_charge_form_factor(self, gnorm2: np.ndarray) -> np.ndarray:
        """Form factor of the Gaussian ionic charge density (positive charge).

        One atom at tau contributes ``zion * exp(-core_width^2 |G|^2 / 2)
        * exp(-i G tau) / Omega`` to the ionic charge density in reciprocal
        space, so the real-space ionic density integrates to ``zion``.
        """
        c2 = self.core_width * self.core_width
        return self.zion * np.exp(-0.5 * c2 * gnorm2)

    def gaussian_self_energy(self) -> float:
        """Electrostatic self-energy of the smeared ionic charge.

        The grid electrostatic energy of the net density includes the
        spurious self-interaction of each Gaussian ion,
        ``Z^2 / (2 sqrt(pi) * core_width)``; the total-energy functional
        subtracts this constant.
        """
        return self.zion * self.zion / (2.0 * np.sqrt(np.pi) * self.core_width)

    def projector_form_factor(self, gnorm2: np.ndarray) -> np.ndarray:
        """Reciprocal-space form factor of the KB projector (un-normalised).

        The projector in real space is a normalised Gaussian
        ``p(r) = (pi r_nl^2)^{-3/4} exp(-r^2/(2 r_nl^2))`` whose Fourier
        transform is again a Gaussian.
        """
        r2 = self.nonlocal_radius * self.nonlocal_radius
        norm = (4.0 * np.pi * r2) ** 0.75
        return norm * np.exp(-0.5 * r2 * gnorm2)


# Default parameter set for the species used in the paper's test systems.
# The numbers are model values (not fitted to experiment); the important
# qualitative relations are:
#   * anions carry Z=6 ionic charges, cations Z=2        -> ionic insulator,
#   * O is more compact (smaller core_width) than Te     -> gap states in ZnTe:O,
#   * cations get a repulsive short-range core           -> keeps the
#     conduction (cation-derived) states above the anion valence band,
#   * H passivation is a compact Z=1 pseudo-atom         -> removes dangling bonds.
_DEFAULT_PARAMS: dict[str, SpeciesPseudopotential] = {
    "Zn": SpeciesPseudopotential("Zn", v0=-1.0, sigma=0.90, zion=2.0, core_width=1.10, nonlocal_strength=0.30, nonlocal_radius=1.0),
    "Cd": SpeciesPseudopotential("Cd", v0=-1.0, sigma=1.00, zion=2.0, core_width=1.20, nonlocal_strength=0.30, nonlocal_radius=1.1),
    "Te": SpeciesPseudopotential("Te", v0=2.0, sigma=1.10, zion=6.0, core_width=0.85, nonlocal_strength=-0.10, nonlocal_radius=1.2),
    "Se": SpeciesPseudopotential("Se", v0=2.0, sigma=1.00, zion=6.0, core_width=0.80, nonlocal_strength=-0.10, nonlocal_radius=1.1),
    "S": SpeciesPseudopotential("S", v0=2.1, sigma=0.95, zion=6.0, core_width=0.78, nonlocal_strength=-0.10, nonlocal_radius=1.0),
    "O": SpeciesPseudopotential("O", v0=2.8, sigma=0.80, zion=6.0, core_width=0.72, nonlocal_strength=-0.20, nonlocal_radius=0.8),
    "Si": SpeciesPseudopotential("Si", v0=0.5, sigma=1.05, zion=4.0, core_width=0.95, nonlocal_strength=0.10, nonlocal_radius=1.1),
    "Ga": SpeciesPseudopotential("Ga", v0=-0.7, sigma=0.95, zion=3.0, core_width=1.05, nonlocal_strength=0.20, nonlocal_radius=1.1),
    "As": SpeciesPseudopotential("As", v0=1.5, sigma=1.10, zion=5.0, core_width=0.95, nonlocal_strength=-0.05, nonlocal_radius=1.2),
    "H": SpeciesPseudopotential("H", v0=0.4, sigma=0.60, zion=1.0, core_width=0.60, nonlocal_strength=0.0, nonlocal_radius=0.7),
    "H_cation": SpeciesPseudopotential("H_cation", v0=0.3, sigma=0.60, zion=1.0, core_width=0.60, nonlocal_strength=0.0, nonlocal_radius=0.7),
    "H_anion": SpeciesPseudopotential("H_anion", v0=0.5, sigma=0.60, zion=1.0, core_width=0.60, nonlocal_strength=0.0, nonlocal_radius=0.7),
}


def default_pseudopotentials() -> "PseudopotentialSet":
    """The default model pseudopotential set for the paper's species."""
    return PseudopotentialSet(dict(_DEFAULT_PARAMS))


class PseudopotentialSet:
    """A collection of species pseudopotentials bound by symbol."""

    def __init__(self, params: Mapping[str, SpeciesPseudopotential]) -> None:
        self._params = dict(params)
        for sym, pp in self._params.items():
            if pp.symbol != sym:
                raise ValueError(f"key {sym!r} does not match symbol {pp.symbol!r}")
        params = repr([self._params[sym] for sym in sorted(self._params)])  # every field, exact floats
        self.fingerprint = hashlib.sha256(params.encode()).hexdigest()  # computed once: the set is immutable

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._params

    def __getitem__(self, symbol: str) -> SpeciesPseudopotential:
        try:
            return self._params[symbol]
        except KeyError as exc:
            raise KeyError(f"no pseudopotential for species {symbol!r}") from exc

    # ------------------------------------------------------------------
    def _lattice_sum(self, structure: Structure, grid: FFTGrid, form_factor) -> np.ndarray:
        """Real-space field ``(1/Omega) sum_s f_s(|G|) S_s(G)``, transformed back.

        Assembled in reciprocal space, so periodic images are summed exactly
        (no minimum-image truncation).  ``form_factor(pp, |G|^2)`` is
        evaluated once per species.
        """
        g = grid.g_vectors
        axes = g[:, 0, 0, 0], g[0, :, 0, 1], g[0, 0, :, 2]
        fg = np.zeros(grid.shape, dtype=complex)
        symbols = np.asarray(structure.symbols)
        for sym in np.unique(symbols):
            pp = self[sym]
            # Structure factor S(G) = sum_a exp(-i G . tau_a): the grid is
            # orthorhombic, so each atom's phase is a product of three 1-D ones.
            tau = structure.positions[symbols == sym]
            px, py, pz = (np.exp(-1j * np.outer(t, ax)) for t, ax in zip(tau.T, axes))
            sfac = np.einsum("ax,ay,az->xyz", px, py, pz)
            fg += sfac * form_factor(pp, grid.g2)
        return np.real(np.fft.ifftn(fg / grid.volume) * grid.npoints)

    def local_potential(self, structure: Structure, grid: FFTGrid) -> np.ndarray:
        """Total local pseudopotential on the real-space grid (Hartree)."""
        return self._lattice_sum(
            structure, grid, SpeciesPseudopotential.local_form_factor
        )

    def ionic_density(self, structure: Structure, grid: FFTGrid) -> np.ndarray:
        """Smeared (Gaussian) ionic charge density on the real-space grid.

        The returned array is a *positive* charge density integrating to
        the total ionic charge (= total valence electron count for neutral
        systems).  The net charge handed to the Poisson solver is
        ``rho_electrons - rho_ions``.
        """
        return self._lattice_sum(
            structure, grid, SpeciesPseudopotential.ionic_charge_form_factor
        )

    def total_ionic_charge(self, structure: Structure) -> float:
        """Sum of the ionic charges of all atoms in the structure."""
        return float(sum(self[s].zion for s in structure.symbols))

    def ionic_self_energy(self, structure: Structure) -> float:
        """Total Gaussian self-energy of the smeared ions (to be subtracted)."""
        return float(sum(self[s].gaussian_self_energy() for s in structure.symbols))

    def nonlocal_projectors(
        self, structure: Structure, basis: PlaneWaveBasis
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kleinman-Bylander projectors and strengths in the plane-wave basis.

        Returns
        -------
        projectors:
            Complex array of shape ``(nproj, npw)``; row ``a`` is the
            reciprocal-space projector of atom ``a`` (atoms whose species
            has zero nonlocal strength are skipped).
        strengths:
            Real array ``(nproj,)`` of KB energies ``E_KB``.

        The nonlocal operator is ``V_NL = sum_a |p_a> E_KB,a <p_a|`` and is
        applied to a band block as two matrix-matrix products — the BLAS-3
        structure the paper's PEtot_F optimisation exploits.
        """
        gvec = basis.g_vectors
        rows: list[np.ndarray] = []
        strengths: list[float] = []
        radial: dict[str, np.ndarray] = {}  # per species: the loop runs per atom
        for atom in structure:
            pp = self[atom.symbol]
            if pp.nonlocal_strength == 0.0:
                continue
            if atom.symbol not in radial:
                radial[atom.symbol] = pp.projector_form_factor(basis.g2)
            phase = np.exp(-1j * gvec @ atom.position)
            proj = radial[atom.symbol] * phase / np.sqrt(basis.grid.volume)
            rows.append(proj)
            strengths.append(pp.nonlocal_strength)
        projectors = np.array(rows, dtype=complex).reshape(-1, basis.npw)
        return projectors, np.asarray(strengths)

    # ------------------------------------------------------------------
    def with_override(
        self, overrides: Mapping[str, SpeciesPseudopotential]
    ) -> "PseudopotentialSet":
        """Return a new set with some species parameters replaced."""
        params = dict(self._params)
        params.update(overrides)
        return PseudopotentialSet(params)
