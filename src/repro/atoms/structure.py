"""Periodic atomic structures.

A :class:`Structure` is an orthorhombic periodic supercell holding atom
positions (in Bohr) and per-atom species.  The LS3DF code only needs
orthorhombic cells (the paper's supercells are m1 x m2 x m3 repetitions of
the cubic eight-atom zinc-blende cell), which keeps the FFT grids and the
fragment division axis-aligned and simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Species:
    """A chemical species with the parameters the model Hamiltonian needs.

    Parameters
    ----------
    symbol:
        Chemical symbol, e.g. ``"Zn"``.
    valence:
        Number of valence electrons contributed to the calculation.  The
        paper's ZnTeO runs exclude the Zn d states, giving an average of
        four valence electrons per atom.
    covalent_radius:
        Covalent radius in Bohr, used for passivation bond lengths.
    mass:
        Atomic mass (amu), used by the VFF relaxer's (fictitious) dynamics.
    """

    symbol: str
    valence: int
    covalent_radius: float
    mass: float = 1.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.symbol


# Registry of the species used in the paper's test systems.  Valence counts
# follow the paper (no Zn d electrons -> Zn contributes 2 s electrons, the
# anions contribute 6, H passivation contributes 1).
SPECIES_REGISTRY: dict[str, Species] = {
    "Zn": Species("Zn", valence=2, covalent_radius=2.31, mass=65.38),
    "Cd": Species("Cd", valence=2, covalent_radius=2.59, mass=112.41),
    "Te": Species("Te", valence=6, covalent_radius=2.57, mass=127.60),
    "Se": Species("Se", valence=6, covalent_radius=2.27, mass=78.97),
    "S": Species("S", valence=6, covalent_radius=1.98, mass=32.06),
    "O": Species("O", valence=6, covalent_radius=1.25, mass=16.00),
    "Si": Species("Si", valence=4, covalent_radius=2.10, mass=28.09),
    "Ga": Species("Ga", valence=3, covalent_radius=2.31, mass=69.72),
    "As": Species("As", valence=5, covalent_radius=2.25, mass=74.92),
    "H": Species("H", valence=1, covalent_radius=0.59, mass=1.008),
    # Partially charged pseudo-hydrogens used to passivate polar surfaces
    # (see Wang & Li, PRB 69, 153302 (2004)).  The fractional valence is
    # rounded to the nearest integer electron for the model solver; the
    # distinction matters only for the passivation potential strength.
    "H_cation": Species("H_cation", valence=1, covalent_radius=0.59, mass=1.008),
    "H_anion": Species("H_anion", valence=1, covalent_radius=0.59, mass=1.008),
}


def get_species(symbol: str) -> Species:
    """Look up a species by symbol, raising a clear error when unknown."""
    try:
        return SPECIES_REGISTRY[symbol]
    except KeyError as exc:
        raise KeyError(
            f"Unknown species {symbol!r}; known: {sorted(SPECIES_REGISTRY)}"
        ) from exc


@dataclass
class Atom:
    """A single atom: a species symbol and a Cartesian position in Bohr."""

    symbol: str
    position: np.ndarray
    tag: int = -1

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (3,):
            raise ValueError("Atom position must be a 3-vector")

    @property
    def species(self) -> Species:
        return get_species(self.symbol)


class Structure:
    """An orthorhombic periodic supercell of atoms.

    Parameters
    ----------
    cell:
        Length-3 sequence of orthorhombic cell edge lengths in Bohr.
    symbols:
        Sequence of chemical symbols, one per atom.
    positions:
        ``(natoms, 3)`` Cartesian positions in Bohr.  Positions are wrapped
        into the home cell on construction.
    """

    def __init__(
        self,
        cell: Sequence[float],
        symbols: Sequence[str],
        positions: np.ndarray | Sequence[Sequence[float]],
    ) -> None:
        cell_arr = np.asarray(cell, dtype=float)
        if cell_arr.shape != (3,):
            raise ValueError("cell must be a length-3 sequence (orthorhombic)")
        if np.any(cell_arr <= 0):
            raise ValueError("cell lengths must be positive")
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (natoms, 3)")
        if len(symbols) != pos.shape[0]:
            raise ValueError(
                f"got {len(symbols)} symbols but {pos.shape[0]} positions"
            )
        for s in symbols:
            get_species(s)  # validate
        self._cell = cell_arr
        self._symbols = list(symbols)
        self._positions = np.mod(pos, cell_arr[None, :])

    # -- basic accessors --------------------------------------------------
    @property
    def cell(self) -> np.ndarray:
        """Orthorhombic cell edge lengths (Bohr), shape ``(3,)``."""
        return self._cell.copy()

    @property
    def volume(self) -> float:
        """Cell volume in Bohr^3."""
        return float(np.prod(self._cell))

    @property
    def natoms(self) -> int:
        return len(self._symbols)

    @property
    def symbols(self) -> list[str]:
        return list(self._symbols)

    @property
    def positions(self) -> np.ndarray:
        """Cartesian positions (Bohr), shape ``(natoms, 3)``."""
        return self._positions.copy()

    @property
    def fractional_positions(self) -> np.ndarray:
        """Positions in fractional (reduced) coordinates, in [0, 1)."""
        return self._positions / self._cell[None, :]

    def species_counts(self) -> dict[str, int]:
        """Histogram of species symbols present in the cell."""
        counts: dict[str, int] = {}
        for s in self._symbols:
            counts[s] = counts.get(s, 0) + 1
        return counts

    def total_valence_electrons(self) -> int:
        """Total number of valence electrons in the cell."""
        return sum(get_species(s).valence for s in self._symbols)

    def formula(self) -> str:
        """Hill-ish chemical formula string, e.g. ``'O54 Te1674 Zn1728'``."""
        counts = self.species_counts()
        return " ".join(f"{sym}{counts[sym]}" for sym in sorted(counts))

    # -- mutation-ish helpers (return new arrays, keep Structure simple) ---
    def displaced(self, displacements: np.ndarray) -> "Structure":
        """Return a copy with atoms displaced by ``displacements`` (Bohr)."""
        disp = np.asarray(displacements, dtype=float)
        if disp.shape != self._positions.shape:
            raise ValueError("displacements shape mismatch")
        return Structure(self._cell, self._symbols, self._positions + disp)

    def copy(self) -> "Structure":
        return Structure(self._cell, self._symbols, self._positions)

    # -- periodic geometry -------------------------------------------------
    def minimum_image_vector(self, i: int, j: int) -> np.ndarray:
        """Minimum-image vector from atom ``i`` to atom ``j`` (Bohr)."""
        d = self._positions[j] - self._positions[i]
        return d - self._cell * np.round(d / self._cell)

    def minimum_image_distance(self, i: int, j: int) -> float:
        """Minimum-image distance between atoms ``i`` and ``j`` (Bohr)."""
        return float(np.linalg.norm(self.minimum_image_vector(i, j)))

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return self.natoms

    def __iter__(self) -> Iterator[Atom]:
        for idx, (sym, pos) in enumerate(zip(self._symbols, self._positions)):
            yield Atom(sym, pos.copy(), tag=idx)

    def __getitem__(self, idx: int) -> Atom:
        return Atom(self._symbols[idx], self._positions[idx].copy(), tag=idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Structure({self.formula()}, natoms={self.natoms}, "
            f"cell={np.round(self._cell, 3).tolist()} Bohr)"
        )
