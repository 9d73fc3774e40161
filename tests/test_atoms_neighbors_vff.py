"""Tests for neighbour lists and the Keating valence force field."""

import numpy as np
import pytest

from repro.atoms.neighbors import (
    build_neighbor_list,
    tetrahedral_bond_cutoff,
)
from repro.atoms.vff import KeatingVFF, relax_structure
from repro.atoms.zincblende import zincblende_supercell, zincblende_unit_cell


def test_neighbor_list_zincblende_coordination():
    sc = zincblende_supercell((2, 2, 2), "Zn", "Te")
    cutoff = tetrahedral_bond_cutoff(sc)
    nl = build_neighbor_list(sc, cutoff)
    coord = np.bincount(nl.pairs.ravel(), minlength=sc.natoms)
    # Every atom in zinc-blende is four-fold coordinated.
    assert np.all(coord == 4)
    # Total bonds = 4 * natoms / 2.
    assert nl.npairs == 2 * sc.natoms


def test_neighbor_list_brute_force_agrees_with_linked_cells():
    sc = zincblende_supercell((3, 3, 3), "Zn", "Te")
    cutoff = tetrahedral_bond_cutoff(sc)
    nl_fast = build_neighbor_list(sc, cutoff)
    # Force the brute-force path via the private helper on a subset check:
    from repro.atoms.neighbors import _brute_force_neighbors

    nl_slow = _brute_force_neighbors(sc, cutoff)
    pairs_fast = {tuple(sorted(p)) for p in nl_fast.pairs.tolist()}
    pairs_slow = {tuple(sorted(p)) for p in nl_slow.pairs.tolist()}
    assert pairs_fast == pairs_slow


def test_neighbor_list_vectors_and_distances_consistent():
    sc = zincblende_unit_cell("Zn", "Te")
    nl = build_neighbor_list(sc, tetrahedral_bond_cutoff(sc))
    assert np.allclose(np.linalg.norm(nl.vectors, axis=1), nl.distances)
    assert np.any(nl.pairs == 0)  # the first cation has neighbours


def test_neighbor_list_invalid_cutoff():
    sc = zincblende_unit_cell("Zn", "Te")
    with pytest.raises(ValueError):
        build_neighbor_list(sc, -1.0)


def test_vff_ideal_zincblende_is_stationary():
    sc = zincblende_supercell((1, 1, 1), "Zn", "Te")
    vff = KeatingVFF(sc)
    f = vff.forces()
    assert np.max(np.abs(f)) < 1e-8
    assert vff.nbonds == 2 * sc.natoms
    # Each atom contributes C(4,2) = 6 angle triples.
    assert vff.nangles == 6 * sc.natoms


def test_vff_forces_match_finite_differences():
    sc = zincblende_supercell((1, 1, 1), "Zn", "Te")
    rng = np.random.default_rng(3)
    pos = sc.positions + 0.05 * rng.standard_normal((sc.natoms, 3))
    vff = KeatingVFF(sc)
    analytic = vff.forces(pos)
    eps = 1e-5
    for atom, axis in [(0, 0), (3, 1), (5, 2)]:
        dp = pos.copy()
        dm = pos.copy()
        dp[atom, axis] += eps
        dm[atom, axis] -= eps
        numeric = -(vff.energy(dp) - vff.energy(dm)) / (2 * eps)
        assert analytic[atom, axis] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_vff_relaxation_never_increases_energy():
    sc = zincblende_supercell((1, 1, 1), "Zn", "Te")
    rng = np.random.default_rng(1)
    distorted = sc.displaced(0.2 * rng.standard_normal((sc.natoms, 3)))
    vff = KeatingVFF(distorted)
    e0 = vff.energy()
    relaxed, info = vff.relax(max_steps=100)
    assert info["final_energy"] <= e0 + 1e-12
    assert info["final_energy"] < 1e-3  # close to the ideal minimum
    assert relaxed.natoms == sc.natoms


def test_relax_structure_distorts_around_oxygen():
    # Substituting one Te by the smaller O should pull its Zn neighbours in.
    from repro.atoms.alloy import substitute_anions

    host = zincblende_supercell((2, 1, 1), "Zn", "Te")
    alloy = substitute_anions(host, "Te", "O", fraction=1.0 / host.species_counts()["Te"], rng=0)
    relaxed, info = relax_structure(alloy, max_steps=150)
    assert info["final_energy"] <= info["initial_energy"]
    o_idx = [i for i, s in enumerate(alloy.symbols) if s == "O"][0]
    cutoff = tetrahedral_bond_cutoff(host)
    nl = build_neighbor_list(relaxed, cutoff)
    o_bonds = [d for (i, j), d in zip(nl.pairs, nl.distances) if o_idx in (i, j)]
    te_bond = host.minimum_image_distance(0, 4)
    assert len(o_bonds) > 0
    assert np.mean(o_bonds) < te_bond  # Zn-O shorter than Zn-Te


def test_vff_invalid_parameters():
    sc = zincblende_unit_cell("Zn", "Te")
    with pytest.raises(ValueError):
        KeatingVFF(sc, alpha=-1.0)
