"""Spatial division of the supercell into the LS3DF fragment grid.

The supercell is divided into ``m1 x m2 x m3`` equal cells; atoms are
assigned to cells by position (the paper: "The atoms are assigned to
fragments depending on their spatial locations").  The division also owns
the relationship between the global FFT grid and the fragment boxes: the
fragment grids reuse the *same grid spacing* as the global grid, so that
the Gen_VF restriction and the Gen_dens patching are exact array
operations with no interpolation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.atoms.structure import Structure
from repro.core.fragments import Fragment
from repro.pw.grid import FFTGrid


@dataclass(frozen=True)
class FragmentBox:
    """Geometry of one fragment's periodic calculation box.

    Attributes
    ----------
    start:
        Global-grid index (per axis) of the box origin (may be negative
        before periodic wrapping).
    npoints:
        Number of global-grid points per axis covered by the box
        (fragment region plus buffer on both sides).
    buffer_points:
        Buffer thickness in grid points per axis.
    origin:
        Cartesian coordinate (Bohr) of the box origin in the supercell
        frame (unwrapped).
    cell:
        Box edge lengths (Bohr).
    """

    start: tuple[int, int, int]
    npoints: tuple[int, int, int]
    buffer_points: tuple[int, int, int]
    origin: tuple[float, float, float]
    cell: tuple[float, float, float]

    @property
    def interior_slice(self) -> tuple[slice, slice, slice]:
        """Slice selecting the fragment region (without buffer) inside the box."""
        return tuple(
            slice(b, n - b) for b, n in zip(self.buffer_points, self.npoints)
        )


class SpatialDivision:
    """Division of a periodic supercell into an LS3DF fragment grid.

    Parameters
    ----------
    structure:
        The global supercell.
    grid_dims:
        Fragment-grid dimensions ``(m1, m2, m3)``.
    global_grid:
        The global FFT grid.  Each axis size must be divisible by the
        corresponding ``m`` so fragment cells contain an integer number of
        grid points.
    buffer_cells:
        Buffer thickness around the fragment region, expressed as a
        *fraction of one cell* per axis (default 0.5).  Internally rounded
        to whole grid points.
    """

    def __init__(
        self,
        structure: Structure,
        grid_dims: tuple[int, int, int] | list[int],
        global_grid: FFTGrid,
        buffer_cells: float | tuple[float, float, float] = 0.5,
    ) -> None:
        dims = tuple(int(m) for m in grid_dims)
        if len(dims) != 3 or any(m < 1 for m in dims):
            raise ValueError("grid_dims must be three positive integers")
        if not np.allclose(structure.cell, global_grid.cell):
            raise ValueError("structure and global grid must share the same cell")
        shape = global_grid.shape
        for n, m in zip(shape, dims):
            if n % m != 0:
                raise ValueError(
                    f"global grid axis of {n} points not divisible by {m} fragment cells"
                )
        self.structure = structure
        self.grid_dims = dims
        self.global_grid = global_grid
        self.points_per_cell = tuple(n // m for n, m in zip(shape, dims))
        if np.isscalar(buffer_cells):
            buffer_cells = (float(buffer_cells),) * 3
        self.buffer_points = tuple(
            int(round(b * p)) for b, p in zip(buffer_cells, self.points_per_cell)
        )
        if any(b < 0 for b in self.buffer_points):
            raise ValueError("buffer must be non-negative")
        self.cell_lengths = tuple(
            c / m for c, m in zip(structure.cell, dims)
        )
        self._assignments = self._assign_atoms()

    # ------------------------------------------------------------------
    def _assign_atoms(self) -> np.ndarray:
        """Cell index (per axis) of every atom, shape ``(natoms, 3)``."""
        frac = self.structure.fractional_positions
        idx = np.floor(frac * np.asarray(self.grid_dims)).astype(int)
        # Guard against atoms sitting exactly on the upper boundary.
        return np.minimum(idx, np.asarray(self.grid_dims) - 1)

    def atoms_in_cell(self, cell: tuple[int, int, int]) -> np.ndarray:
        """Indices of the atoms assigned to one grid cell."""
        mask = np.all(self._assignments == np.asarray(cell, dtype=int), axis=1)
        return np.nonzero(mask)[0]

    def atoms_in_fragment(self, fragment: Fragment) -> np.ndarray:
        """Indices of the atoms assigned to any of the fragment's cells."""
        if fragment.grid_dims != self.grid_dims:
            raise ValueError("fragment grid dims do not match this division")
        cells = fragment.covered_cells()
        indices = [self.atoms_in_cell(c) for c in cells]
        if not indices:
            return np.zeros(0, dtype=int)
        return np.concatenate(indices)

    # ------------------------------------------------------------------
    def fragment_box(self, fragment: Fragment) -> FragmentBox:
        """Geometry of the fragment's periodic calculation box Omega_F."""
        if fragment.grid_dims != self.grid_dims:
            raise ValueError("fragment grid dims do not match this division")
        start = tuple(
            c * p - b
            for c, p, b in zip(fragment.corner, self.points_per_cell, self.buffer_points)
        )
        npoints = tuple(
            s * p + 2 * b
            for s, p, b in zip(fragment.size, self.points_per_cell, self.buffer_points)
        )
        spacing = self.global_grid.spacing
        origin = tuple(float(st * sp) for st, sp in zip(start, spacing))
        cell = tuple(float(n * sp) for n, sp in zip(npoints, spacing))
        return FragmentBox(
            start=start,
            npoints=npoints,
            buffer_points=self.buffer_points,
            origin=origin,
            cell=cell,
        )

    def fragment_grid(self, fragment: Fragment) -> FFTGrid:
        """FFT grid of the fragment box (same spacing as the global grid)."""
        box = self.fragment_box(fragment)
        return FFTGrid(box.cell, box.npoints)

    def fragment_structure(self, fragment: Fragment) -> Structure:
        """The fragment's atoms, in the fragment-box coordinate frame.

        Atom positions are mapped with the minimum-image convention
        relative to the box so that atoms of a fragment that wraps around
        the supercell boundary end up contiguous inside the box.
        Passivation atoms are added separately by
        :func:`repro.core.passivation.passivate_fragment`.
        """
        box = self.fragment_box(fragment)
        atom_idx = self.atoms_in_fragment(fragment)
        global_cell = np.asarray(self.structure.cell)
        origin = np.asarray(box.origin)
        # Centre of the fragment *region* in the supercell frame.
        region_lengths = np.asarray(
            [s * c for s, c in zip(fragment.size, self.cell_lengths)]
        )
        buffer_lengths = np.asarray(box.cell) - region_lengths
        region_center = origin + 0.5 * buffer_lengths + 0.5 * region_lengths
        positions = self.structure.positions[atom_idx]
        # Minimum image relative to the region centre, then shift into box frame.
        rel = positions - region_center
        rel -= global_cell * np.round(rel / global_cell)
        box_positions = rel + (region_center - origin)
        symbols = [self.structure.symbols[i] for i in atom_idx]
        return Structure(box.cell, symbols, box_positions)

    # ------------------------------------------------------------------
    def global_indices(self, fragment: Fragment, interior_only: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global-grid index arrays addressed by the fragment box.

        Returns per-axis integer index arrays (with periodic wrap) such
        that ``global_field[np.ix_(ix, iy, iz)]`` is the restriction of a
        global field to the fragment box (``interior_only=False``) or to
        the fragment region only (``interior_only=True``).
        """
        box = self.fragment_box(fragment)
        shape = self.global_grid.shape
        axes = []
        for axis in range(3):
            start = box.start[axis]
            n = box.npoints[axis]
            b = box.buffer_points[axis]
            if interior_only:
                idx = np.arange(start + b, start + n - b)
            else:
                idx = np.arange(start, start + n)
            axes.append(np.mod(idx, shape[axis]))
        return axes[0], axes[1], axes[2]

    def signature(self) -> str:
        """Digest identifying this division (checkpoint compatibility key).

        Hashes the geometry the fragment problems are built from — the
        supercell (cell vectors, atom symbols and positions), the
        fragment grid dimensions, the global FFT grid shape and the
        buffer thickness.  Solver parameters that also shape persisted
        state (plane-wave cutoff, empty-band count) live outside the
        division; :attr:`repro.core.fragment_solver.FragmentSolver.problem_signature`
        salts this digest with them before it is stored in a checkpoint,
        and resuming refuses to load when the combined signature
        differs.

        Returns
        -------
        str
            Hex SHA-256 digest.
        """
        h = hashlib.sha256()
        h.update(np.asarray(self.structure.cell, dtype=float).tobytes())
        h.update(",".join(self.structure.symbols).encode())
        h.update(np.ascontiguousarray(self.structure.positions, dtype=float).tobytes())
        h.update(np.asarray(self.grid_dims, dtype=np.int64).tobytes())
        h.update(np.asarray(self.global_grid.shape, dtype=np.int64).tobytes())
        h.update(np.asarray(self.buffer_points, dtype=np.int64).tobytes())
        return h.hexdigest()
