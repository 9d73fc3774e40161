"""Unit tests for repro.atoms.structure."""

import numpy as np
import pytest

from repro.atoms.structure import Atom, Structure, get_species


def test_species_lookup_known_and_unknown():
    assert get_species("Zn").valence == 2
    assert get_species("Te").valence == 6
    with pytest.raises(KeyError):
        get_species("Unobtainium")


def test_atom_position_validation():
    atom = Atom("Zn", [1.0, 2.0, 3.0])
    assert atom.species.symbol == "Zn"
    with pytest.raises(ValueError):
        Atom("Zn", [1.0, 2.0])


def test_structure_basic_properties():
    s = Structure([10.0, 10.0, 10.0], ["Zn", "Te"], [[1, 1, 1], [5, 5, 5]])
    assert s.natoms == 2
    assert s.volume == pytest.approx(1000.0)
    assert s.total_valence_electrons() == 8
    assert s.species_counts() == {"Zn": 1, "Te": 1}
    assert "Te1" in s.formula() and "Zn1" in s.formula()


def test_structure_wraps_positions_into_cell():
    s = Structure([10.0, 10.0, 10.0], ["Zn"], [[12.0, -3.0, 25.0]])
    pos = s.positions[0]
    assert np.all(pos >= 0) and np.all(pos < 10.0)
    assert pos[0] == pytest.approx(2.0)
    assert pos[1] == pytest.approx(7.0)
    assert pos[2] == pytest.approx(5.0)


def test_structure_validation_errors():
    with pytest.raises(ValueError):
        Structure([10.0, 10.0], ["Zn"], [[0, 0, 0]])
    with pytest.raises(ValueError):
        Structure([10.0, 10.0, -1.0], ["Zn"], [[0, 0, 0]])
    with pytest.raises(ValueError):
        Structure([10.0, 10.0, 10.0], ["Zn", "Te"], [[0, 0, 0]])
    with pytest.raises(KeyError):
        Structure([10.0, 10.0, 10.0], ["Xx"], [[0, 0, 0]])


def test_minimum_image_distance():
    s = Structure([10.0, 10.0, 10.0], ["Zn", "Te"], [[0.5, 0, 0], [9.5, 0, 0]])
    assert s.minimum_image_distance(0, 1) == pytest.approx(1.0)
    vec = s.minimum_image_vector(0, 1)
    assert vec[0] == pytest.approx(-1.0)


def test_fractional_positions():
    s = Structure([2.0, 4.0, 6.0], ["H"], [[1.0, 2.0, 3.0]])
    frac = s.fractional_positions
    assert np.allclose(frac, 0.5)


def test_displaced_and_copy_are_independent():
    s = Structure([10.0, 10.0, 10.0], ["Zn"], [[1, 1, 1]])
    moved = s.displaced(np.array([[1.0, 0.0, 0.0]]))
    assert moved.positions[0][0] == pytest.approx(2.0)
    assert s.positions[0][0] == pytest.approx(1.0)
    c = s.copy()
    assert c is not s and c.symbols == s.symbols
    np.testing.assert_array_equal(c.positions, s.positions)


def test_iteration_and_indexing():
    s = Structure([10.0, 10.0, 10.0], ["Zn", "Te"], [[1, 1, 1], [2, 2, 2]])
    atoms = list(s)
    assert len(atoms) == 2
    assert atoms[1].symbol == "Te"
    assert s[0].tag == 0
    assert len(s) == 2
