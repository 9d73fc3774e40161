"""Periodic neighbour lists via spatial binning (linked cells).

The Keating VFF and the passivation logic both need the four tetrahedral
neighbours of every atom in a periodic zinc-blende supercell.  A naive
all-pairs search is O(N^2); the linked-cell construction here is O(N) and
follows the standard HPC idiom of binning atoms into cells no smaller than
the cutoff and searching only the 27 surrounding bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atoms.structure import Structure


@dataclass
class NeighborList:
    """Neighbour list for a periodic structure.

    Attributes
    ----------
    pairs:
        ``(npairs, 2)`` integer array of atom index pairs ``(i, j)`` with
        ``i < j`` and minimum-image distance below the cutoff.
    vectors:
        ``(npairs, 3)`` minimum-image displacement vectors from ``i`` to
        ``j`` in Bohr.
    distances:
        ``(npairs,)`` pair distances in Bohr.
    cutoff:
        Cutoff radius used to build the list (Bohr).
    """

    pairs: np.ndarray
    vectors: np.ndarray
    distances: np.ndarray
    cutoff: float

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    def adjacency(self, natoms: int) -> list[list[tuple[int, np.ndarray]]]:
        """Per-atom adjacency: list of ``(j, vector_i_to_j)`` for each atom."""
        adj: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(natoms)]
        for (a, b), vec in zip(self.pairs, self.vectors):
            adj[int(a)].append((int(b), vec))
            adj[int(b)].append((int(a), -vec))
        return adj


def build_neighbor_list(structure: Structure, cutoff: float) -> NeighborList:
    """Build a minimum-image neighbour list with a linked-cell search.

    Parameters
    ----------
    structure:
        Periodic orthorhombic structure.
    cutoff:
        Pair cutoff in Bohr.  Must be positive and no larger than half the
        smallest cell edge *unless* the cell is so small that a brute-force
        minimum-image search is used instead (handled automatically).

    Returns
    -------
    NeighborList
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    cell = structure.cell
    pos = structure.positions
    n = structure.natoms
    if n == 0:
        empty = np.zeros((0, 2), dtype=int)
        return NeighborList(empty, np.zeros((0, 3)), np.zeros(0), cutoff)

    # For tiny cells (fewer than 3 bins along any axis) fall back to the
    # O(N^2) minimum-image search: the linked-cell bookkeeping would have to
    # consider multiple periodic images per bin and is not worth it.
    nbins = np.maximum(1, np.floor(cell / cutoff).astype(int))
    if np.any(nbins < 3) or n < 64:
        return _brute_force_neighbors(structure, cutoff)

    bin_size = cell / nbins
    bin_index = np.floor(pos / bin_size).astype(int) % nbins

    # Map from bin -> atom indices
    flat = (bin_index[:, 0] * nbins[1] + bin_index[:, 1]) * nbins[2] + bin_index[:, 2]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    boundaries = np.searchsorted(sorted_flat, np.arange(np.prod(nbins) + 1))

    def atoms_in_bin(bx: int, by: int, bz: int) -> np.ndarray:
        f = (bx * nbins[1] + by) * nbins[2] + bz
        return order[boundaries[f] : boundaries[f + 1]]

    pairs: list[tuple[int, int]] = []
    vectors: list[np.ndarray] = []
    distances: list[float] = []
    cutoff2 = cutoff * cutoff
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
    for bx in range(nbins[0]):
        for by in range(nbins[1]):
            for bz in range(nbins[2]):
                center_atoms = atoms_in_bin(bx, by, bz)
                if len(center_atoms) == 0:
                    continue
                for (dx, dy, dz) in offsets:
                    ox = (bx + dx) % nbins[0]
                    oy = (by + dy) % nbins[1]
                    oz = (bz + dz) % nbins[2]
                    other_atoms = atoms_in_bin(ox, oy, oz)
                    if len(other_atoms) == 0:
                        continue
                    d = pos[other_atoms][None, :, :] - pos[center_atoms][:, None, :]
                    d -= cell[None, None, :] * np.round(d / cell[None, None, :])
                    dist2 = np.einsum("ijk,ijk->ij", d, d)
                    ii, jj = np.nonzero(dist2 < cutoff2)
                    for a_loc, b_loc in zip(ii, jj):
                        a = int(center_atoms[a_loc])
                        b = int(other_atoms[b_loc])
                        if a < b:
                            pairs.append((a, b))
                            vectors.append(d[a_loc, b_loc])
                            distances.append(float(np.sqrt(dist2[a_loc, b_loc])))
    if pairs:
        pairs_arr = np.asarray(pairs, dtype=int)
        vec_arr = np.asarray(vectors)
        dist_arr = np.asarray(distances)
    else:  # pragma: no cover - degenerate
        pairs_arr = np.zeros((0, 2), dtype=int)
        vec_arr = np.zeros((0, 3))
        dist_arr = np.zeros(0)
    return NeighborList(pairs_arr, vec_arr, dist_arr, cutoff)


def _brute_force_neighbors(structure: Structure, cutoff: float) -> NeighborList:
    """O(N^2) minimum-image neighbour search for small systems."""
    pos = structure.positions
    cell = structure.cell
    n = structure.natoms
    d = pos[None, :, :] - pos[:, None, :]
    d -= cell[None, None, :] * np.round(d / cell[None, None, :])
    dist = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] < cutoff
    pairs = np.stack([iu[mask], ju[mask]], axis=1)
    vectors = d[iu[mask], ju[mask]]
    distances = dist[iu[mask], ju[mask]]
    return NeighborList(pairs, vectors, distances, cutoff)


def tetrahedral_bond_cutoff(structure: Structure, scale: float = 1.20) -> float:
    """Estimate a bond cutoff capturing first-neighbour (tetrahedral) bonds.

    Uses the smallest interatomic distance in the structure times ``scale``.
    For zinc-blende this captures the four nearest neighbours and excludes
    the twelve second neighbours (which sit at sqrt(8/3) ~ 1.63x the bond
    length).
    """
    if structure.natoms < 2:
        raise ValueError("need at least two atoms")
    # Sample a few atoms and find their nearest minimum-image neighbour;
    # in a homogeneous crystal this equals the global minimum bond length
    # and avoids building a full O(N^2) distance matrix.
    pos = structure.positions
    cell = structure.cell
    n = structure.natoms
    samples = sorted({0, n // 2, n - 1})
    dmin = np.inf
    for i in samples:
        d = pos - pos[i]
        d -= cell[None, :] * np.round(d / cell[None, :])
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        dist[i] = np.inf
        dmin = min(dmin, float(np.min(dist)))
    if not np.isfinite(dmin) or dmin <= 0:
        raise ValueError("could not determine a bond length; structure too sparse")
    return scale * dmin
