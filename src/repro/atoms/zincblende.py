"""Zinc-blende crystal builders.

The paper's test systems are ``m1 x m2 x m3`` supercells of the cubic
eight-atom zinc-blende unit cell (so the total atom count is
``8 * m1 * m2 * m3``).  These builders generate exactly that geometry; the
alloy module then substitutes a fraction of anions by oxygen.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import ANGSTROM_TO_BOHR, ZINCBLENDE_LATTICE_CONSTANTS_ANG
from repro.atoms.structure import Structure

# Fractional coordinates of the eight atoms of the conventional cubic
# zinc-blende cell: four cations on the FCC lattice, four anions displaced
# by (1/4, 1/4, 1/4).
_CATION_FRAC = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.00, 0.50, 0.50],
        [0.50, 0.00, 0.50],
        [0.50, 0.50, 0.00],
    ]
)
_ANION_FRAC = _CATION_FRAC + 0.25


def zincblende_unit_cell(
    cation: str = "Zn",
    anion: str = "Te",
    lattice_constant: float | None = None,
) -> Structure:
    """Build the conventional eight-atom cubic zinc-blende cell.

    Parameters
    ----------
    cation, anion:
        Species symbols for the two sublattices.
    lattice_constant:
        Cubic lattice constant in Bohr.  When ``None``, the value is looked
        up from :data:`repro.constants.ZINCBLENDE_LATTICE_CONSTANTS_ANG`
        using the compound name ``cation + anion`` (e.g. ``"ZnTe"``).

    Returns
    -------
    Structure
        Eight-atom cell; cations occupy even indices 0-3, anions 4-7.
    """
    if lattice_constant is None:
        compound = f"{cation}{anion}"
        try:
            a_ang = ZINCBLENDE_LATTICE_CONSTANTS_ANG[compound]
        except KeyError as exc:
            raise KeyError(
                f"No tabulated lattice constant for {compound}; pass one explicitly"
            ) from exc
        lattice_constant = a_ang * ANGSTROM_TO_BOHR
    if lattice_constant <= 0:
        raise ValueError("lattice_constant must be positive")
    a = float(lattice_constant)
    cell = np.array([a, a, a])
    frac = np.vstack([_CATION_FRAC, _ANION_FRAC])
    symbols = [cation] * 4 + [anion] * 4
    return Structure(cell, symbols, frac * a)


def zincblende_supercell(
    dims: Sequence[int],
    cation: str = "Zn",
    anion: str = "Te",
    lattice_constant: float | None = None,
) -> Structure:
    """Build an ``m1 x m2 x m3`` supercell of eight-atom zinc-blende cells.

    This is the geometry used throughout the paper: the supercell dimension
    ``dims = (m1, m2, m3)`` is reported in units of the cubic eight-atom
    cell, and the LS3DF fragment grid coincides with this cell grid (the
    smallest fragment is one eight-atom cell).

    Parameters
    ----------
    dims:
        Number of cubic cells along each axis, each >= 1.
    cation, anion, lattice_constant:
        As for :func:`zincblende_unit_cell`.

    Returns
    -------
    Structure
        Supercell with ``8 * m1 * m2 * m3`` atoms.  Atoms are ordered cell
        by cell (z fastest), cations before anions within each cell, which
        makes the fragment assignment of atoms to cells deterministic.
    """
    dims_arr = np.asarray(dims, dtype=int)
    if dims_arr.shape != (3,) or np.any(dims_arr < 1):
        raise ValueError("dims must be three positive integers")
    unit = zincblende_unit_cell(cation, anion, lattice_constant)
    a = unit.cell[0]
    cell = dims_arr * a
    unit_pos = unit.positions
    unit_sym = unit.symbols
    symbols: list[str] = []
    positions: list[np.ndarray] = []
    for i in range(dims_arr[0]):
        for j in range(dims_arr[1]):
            for k in range(dims_arr[2]):
                shift = np.array([i, j, k], dtype=float) * a
                positions.append(unit_pos + shift[None, :])
                symbols.extend(unit_sym)
    return Structure(cell, symbols, np.vstack(positions))
