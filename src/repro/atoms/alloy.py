"""Substitutional alloy builders.

The paper's science target is the ZnTe(1-x)O(x) alloy with x ~ 3%: a small
fraction of Te anions substituted by oxygen at random, which produces
oxygen-induced states inside the ZnTe band gap.  Because the oxygen
fraction is small, large supercells are needed to represent the random
distribution — exactly the regime where LS3DF beats O(N^3) DFT.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.atoms.zincblende import zincblende_supercell


def substitute_anions(
    structure: Structure,
    host_anion: str,
    substituent: str,
    fraction: float,
    rng: np.random.Generator | int | None = None,
) -> Structure:
    """Randomly replace a fraction of ``host_anion`` atoms by ``substituent``.

    Parameters
    ----------
    structure:
        Host structure (modified copy returned; the input is untouched).
    host_anion:
        Symbol of the species being substituted (e.g. ``"Te"``).
    substituent:
        Symbol of the replacement species (e.g. ``"O"``).
    fraction:
        Fraction of host anions to replace, in ``[0, 1]``.  The number of
        substitutions is ``round(fraction * n_host)``, matching the paper's
        convention (3% of Te -> 54 O atoms in the 8x6x9 / 3,456-atom cell).
    rng:
        ``numpy`` random generator or integer seed for reproducibility.

    Returns
    -------
    Structure
        New structure with substitutions applied.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    symbols = structure.symbols
    host_indices = [i for i, s in enumerate(symbols) if s == host_anion]
    if not host_indices and fraction > 0:
        raise ValueError(f"structure contains no {host_anion!r} atoms")
    n_sub = int(round(fraction * len(host_indices)))
    chosen = rng.choice(host_indices, size=n_sub, replace=False) if n_sub else []
    new_symbols = list(symbols)
    for idx in chosen:
        new_symbols[int(idx)] = substituent
    return Structure(structure.cell, new_symbols, structure.positions)


def build_znteo_alloy(
    dims: Sequence[int],
    oxygen_fraction: float = 0.03,
    rng: np.random.Generator | int | None = 0,
    lattice_constant: float | None = None,
) -> Structure:
    """Build a ZnTe(1-x)O(x) alloy supercell as used in the paper.

    Parameters
    ----------
    dims:
        Supercell dimensions ``(m1, m2, m3)`` in eight-atom cells; the
        paper's systems range from 3x3x3 (216 atoms) to 16x16x8
        (16,384 atoms).
    oxygen_fraction:
        Fraction of Te sites replaced by O; the paper uses ~3%.
    rng:
        Random generator or seed controlling which Te sites are replaced.
    lattice_constant:
        Optional override of the ZnTe lattice constant (Bohr).

    Returns
    -------
    Structure
        The alloy supercell (unrelaxed; pass through
        :func:`repro.atoms.vff.relax_structure` for the VFF-relaxed
        geometry, as done in the paper).
    """
    host = zincblende_supercell(dims, "Zn", "Te", lattice_constant)
    return substitute_anions(host, "Te", "O", oxygen_fraction, rng)
