"""Real-space / reciprocal-space FFT grids for orthorhombic cells.

The plane-wave method represents periodic fields (density, potentials) on a
regular real-space grid and applies kinetic/Poisson operators in reciprocal
space; the two representations are connected by FFTs.  The paper's runs use
a 40x40x40 (Franklin) or 32x32x32 (Intrepid) grid per eight-atom cell; this
reproduction uses smaller grids but the machinery is identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.pw import fftcache

# -- cross-instance memo -------------------------------------------------------
# LS3DF instantiates one FFTGrid per fragment, but fragments of the same
# class share (cell, shape) — and everything derived from ``g2`` (Poisson
# masks, Kerker filters, pseudopotential form factors) is then identical
# across those instances.  The memo below shares such arrays across *equal*
# grids so repeated fragment instantiation stops recomputing them.  Memoized
# ndarrays are frozen read-only because they are shared.
_MEMO_LOCK = threading.Lock()
_MEMO: "OrderedDict[tuple, object]" = OrderedDict()
_MEMO_MAX = 512
_MEMO_STATS = {"hits": 0, "misses": 0}


def grid_memo_stats() -> dict:
    """Snapshot of the grid-memo hit/miss counters."""
    with _MEMO_LOCK:
        return dict(_MEMO_STATS, entries=len(_MEMO))


def clear_grid_memo() -> None:
    """Drop all memoized grid-derived arrays and zero the counters."""
    with _MEMO_LOCK:
        _MEMO.clear()
        _MEMO_STATS["hits"] = 0
        _MEMO_STATS["misses"] = 0


@dataclass(frozen=True)
class FFTGrid:
    """A regular FFT grid on an orthorhombic periodic cell.

    Parameters
    ----------
    cell:
        Orthorhombic cell edge lengths in Bohr, shape ``(3,)``.
    shape:
        Number of grid points along each axis, shape ``(3,)``.
    """

    cell: tuple[float, float, float]
    shape: tuple[int, int, int]

    def __init__(self, cell: Sequence[float], shape: Sequence[int]) -> None:
        cell_arr = tuple(float(c) for c in cell)
        shape_arr = tuple(int(s) for s in shape)
        if len(cell_arr) != 3 or any(c <= 0 for c in cell_arr):
            raise ValueError("cell must be three positive lengths")
        if len(shape_arr) != 3 or any(s < 2 for s in shape_arr):
            raise ValueError("shape must be three integers >= 2")
        object.__setattr__(self, "cell", cell_arr)
        object.__setattr__(self, "shape", shape_arr)

    # -- sizes -------------------------------------------------------------
    @cached_property
    def npoints(self) -> int:
        """Total number of real-space grid points."""
        return int(np.prod(self.shape))

    @cached_property
    def volume(self) -> float:
        """Cell volume (Bohr^3)."""
        return float(np.prod(self.cell))

    @cached_property
    def dvol(self) -> float:
        """Volume element associated with one grid point (Bohr^3)."""
        return self.volume / self.npoints

    @property
    def spacing(self) -> np.ndarray:
        """Grid spacing along each axis (Bohr)."""
        return np.asarray(self.cell) / np.asarray(self.shape)

    # -- coordinates ---------------------------------------------------------
    @cached_property
    def real_coordinates(self) -> np.ndarray:
        """Cartesian coordinates of every grid point, shape ``(*shape, 3)``."""
        axes = [
            np.arange(n) * c / n for n, c in zip(self.shape, self.cell)
        ]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)

    @cached_property
    def g_vectors(self) -> np.ndarray:
        """Reciprocal lattice vectors G on the FFT grid, shape ``(*shape, 3)``.

        Ordering matches ``numpy.fft.fftn`` frequencies.
        """
        axes = [
            2.0 * np.pi * np.fft.fftfreq(n, d=c / n)
            for n, c in zip(self.shape, self.cell)
        ]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    @cached_property
    def g2(self) -> np.ndarray:
        """|G|^2 for every FFT-grid reciprocal vector, shape ``shape``."""
        g = self.g_vectors
        return np.einsum("...i,...i->...", g, g)

    @cached_property
    def gmax2(self) -> float:
        """Largest representable |G|^2 before aliasing (Nyquist sphere)."""
        gnyq = np.pi * np.asarray(self.shape) / np.asarray(self.cell)
        return float(np.min(gnyq) ** 2)

    # -- derived-array memo -----------------------------------------------------
    def memo(self, key, factory: Callable[[], object]):
        """Memoize a grid-derived value across *equal* grids.

        ``key`` must uniquely describe the derivation (include every extra
        parameter, e.g. an ``ecut``); the value is shared by every
        ``FFTGrid`` with the same ``(cell, shape)``, so returned ndarrays
        are frozen read-only.  Hot-path users: the Poisson nonzero mask,
        the Kerker filter and the pseudopotential form factors.
        """
        full = (self.cell, self.shape, key)
        with _MEMO_LOCK:
            if full in _MEMO:
                _MEMO.move_to_end(full)
                _MEMO_STATS["hits"] += 1
                return _MEMO[full]
        value = factory()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        with _MEMO_LOCK:
            if full in _MEMO:
                _MEMO_STATS["hits"] += 1
            else:
                _MEMO[full] = value
                _MEMO_STATS["misses"] += 1
                while len(_MEMO) > _MEMO_MAX:
                    _MEMO.popitem(last=False)
            return _MEMO[full]

    # -- transforms -----------------------------------------------------------
    def to_reciprocal(self, field_r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward FFT of a real-space field (convention: plain ``fftn``).

        ``out`` may be a workspace buffer from :mod:`repro.pw.fftcache`;
        results are bit-identical with or without it.
        """
        if field_r.shape != self.shape:
            raise ValueError(f"field shape {field_r.shape} != grid shape {self.shape}")
        return fftcache.fftn(field_r, out=out)

    def to_real(self, field_g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse FFT back to real space."""
        if field_g.shape != self.shape:
            raise ValueError(f"field shape {field_g.shape} != grid shape {self.shape}")
        return fftcache.ifftn(field_g, out=out)

    # -- reductions -----------------------------------------------------------
    def integrate(self, field_r: np.ndarray) -> float | complex:
        """Integrate a real-space field over the cell (trapezoid-free: the
        grid is uniform and periodic, so the sum times ``dvol`` is spectrally
        accurate for band-limited fields)."""
        if field_r.shape != self.shape:
            raise ValueError("field shape mismatch")
        total = np.sum(field_r) * self.dvol
        if np.iscomplexobj(field_r):
            return complex(total)
        return float(total)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def for_structure(
        cls,
        cell: Sequence[float],
        points_per_bohr: float = 2.0,
        grid_dims: Sequence[int] = (1, 1, 1),
    ) -> "FFTGrid":
        """Choose a grid shape from a target real-space resolution.

        Parameters
        ----------
        cell:
            Orthorhombic cell (Bohr).
        points_per_bohr:
            Grid density.  The paper's 40-point grid on an ~11.5 Bohr cell
            corresponds to ~3.5 points/Bohr; model runs use ~1.5-2.
        grid_dims:
            Fragment cells per axis: each axis gets the same even number of
            points (at least 4) in every cell, so fragment grids divide evenly.
        """
        shape = []
        for c, m in zip(cell, grid_dims):
            n = max(4, int(np.ceil(c / m * points_per_bohr)))
            if n % 2:
                n += 1
            shape.append(n * m)
        return cls(cell, shape)

    def compatible_with(self, other: "FFTGrid") -> bool:
        """True when both grids share the same spacing (fragment/global check)."""
        return bool(np.allclose(self.spacing, other.spacing, rtol=1e-10, atol=1e-12))


def grid_density(ecut: float, points_per_bohr: float | None = None) -> float:
    """``points_per_bohr`` if given, else the density resolving the density
    cutoff ``2 sqrt(2 ecut)`` (Nyquist, +5 %, at least 1.2 points/Bohr)."""
    if points_per_bohr is not None:
        return points_per_bohr
    return max(1.2, 2.0 * np.sqrt(2.0 * ecut) / np.pi * 1.05)
