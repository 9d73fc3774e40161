"""Atomistic substrate: structures, crystal builders, neighbours and VFF.

This subpackage provides everything the LS3DF driver needs to describe the
physical systems of the paper: periodic supercells of zinc-blende
semiconductors, random-substitution alloys such as ZnTe(1-x)O(x), periodic
neighbour lists, and the Keating valence force field (VFF) used by the
authors to relax the alloy geometries before the electronic-structure
calculation.
"""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "structure": "Atom Species Structure",
    "zincblende": "zincblende_unit_cell zincblende_supercell",
    "alloy": "substitute_anions build_znteo_alloy",
    "neighbors": "NeighborList build_neighbor_list",
    "vff": "KeatingVFF relax_structure",
    "toy": "cscl_binary simple_cubic",
})
