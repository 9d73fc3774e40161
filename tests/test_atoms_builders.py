"""Tests for the zinc-blende / alloy / toy crystal builders."""

import numpy as np
import pytest

from repro.atoms.alloy import build_znteo_alloy, substitute_anions
from repro.atoms.toy import cscl_binary, simple_cubic
from repro.atoms.zincblende import zincblende_supercell, zincblende_unit_cell


def test_unit_cell_has_eight_atoms_and_correct_bond_length():
    cell = zincblende_unit_cell("Zn", "Te")
    assert cell.natoms == 8
    a = cell.cell[0]
    # Nearest-neighbour (cation-anion) distance is a * sqrt(3) / 4.
    d = cell.minimum_image_distance(0, 4)
    assert d == pytest.approx(a * np.sqrt(3.0) / 4.0, rel=1e-10)


def test_unit_cell_unknown_compound_requires_lattice_constant():
    with pytest.raises(KeyError):
        zincblende_unit_cell("Zn", "As")
    cell = zincblende_unit_cell("Zn", "As", lattice_constant=10.0)
    assert cell.cell[0] == pytest.approx(10.0)


def test_supercell_atom_count_follows_paper_convention():
    # The paper: total atoms = 8 * m1 * m2 * m3.
    for dims in [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1)]:
        sc = zincblende_supercell(dims, "Zn", "Te")
        assert sc.natoms == 8 * np.prod(dims)


def test_substitute_anions_counts_and_reproducibility():
    host = zincblende_supercell((2, 2, 2), "Zn", "Te")
    alloy1 = substitute_anions(host, "Te", "O", 0.25, rng=42)
    alloy2 = substitute_anions(host, "Te", "O", 0.25, rng=42)
    assert alloy1.symbols == alloy2.symbols
    n_te_host = host.species_counts()["Te"]
    counts = alloy1.species_counts()
    assert counts["O"] == round(0.25 * n_te_host)
    assert counts["Te"] + counts["O"] == n_te_host
    # Host untouched.
    assert "O" not in host.species_counts()


def test_substitute_anions_validation():
    host = zincblende_supercell((1, 1, 1), "Zn", "Te")
    with pytest.raises(ValueError):
        substitute_anions(host, "Te", "O", 1.5)
    with pytest.raises(ValueError):
        substitute_anions(host, "As", "O", 0.1)


def test_build_znteo_alloy_three_percent():
    alloy = build_znteo_alloy((3, 3, 3), oxygen_fraction=0.03, rng=0)
    assert alloy.natoms == 216
    counts = alloy.species_counts()
    # 3% of 108 Te sites -> 3 oxygen atoms.
    assert counts["O"] == 3
    assert counts["Zn"] == 108


def test_cscl_and_simple_cubic_builders():
    toy = cscl_binary((2, 2, 1), "Zn", "O", 6.0)
    assert toy.natoms == 8
    assert toy.cell[0] == pytest.approx(12.0)
    assert toy.cell[2] == pytest.approx(6.0)
    sc = simple_cubic((2, 1, 1), "Si", 5.0)
    assert sc.natoms == 2
    assert sc.total_valence_electrons() == 8
    with pytest.raises(ValueError):
        cscl_binary((0, 1, 1))
    with pytest.raises(ValueError):
        simple_cubic((1, 1, 1), lattice_constant=-2.0)
