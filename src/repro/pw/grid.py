"""Real-space / reciprocal-space FFT grids for orthorhombic cells.

The plane-wave method represents periodic fields (density, potentials) on a
regular real-space grid and applies kinetic/Poisson operators in reciprocal
space; the two representations are connected by FFTs.  The paper's runs use
a 40x40x40 (Franklin) or 32x32x32 (Intrepid) grid per eight-atom cell; this
reproduction uses smaller grids but the machinery is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.pw import fftcache


class lazy:
    """A per-instance value computed on first read and stored in the
    instance's ``__dict__``, where it shadows this non-data descriptor.

    It takes no lock.  The standard library's cached property does on
    Python 3.11: one lock per attribute, shared by every instance, held
    while any of them computes, so a child forked meanwhile inherits it held
    for good.  Two threads that race here compute equal values twice.
    """

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
        #: Total number of real-space grid points.
        object.__setattr__(self, "npoints", int(np.prod(shape_arr)))
        #: Cell volume (Bohr^3).
        object.__setattr__(self, "volume", float(np.prod(cell_arr)))
        #: Volume element associated with one grid point (Bohr^3).
        object.__setattr__(self, "dvol", self.volume / self.npoints)
        #: Largest representable |G|^2 before aliasing (Nyquist sphere).
        gnyq = np.pi * np.asarray(shape_arr) / np.asarray(cell_arr)
        object.__setattr__(self, "gmax2", float(np.min(gnyq) ** 2))

    # -- sizes -------------------------------------------------------------
    @property
    def spacing(self) -> np.ndarray:
        """Grid spacing along each axis (Bohr)."""
        return np.asarray(self.cell) / np.asarray(self.shape)

    # -- coordinates ---------------------------------------------------------
    @lazy
    def real_coordinates(self) -> np.ndarray:
        """Cartesian coordinates of every grid point, shape ``(*shape, 3)``."""
        axes = [
            np.arange(n) * c / n for n, c in zip(self.shape, self.cell)
        ]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)

    @lazy
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

    @lazy
    def g2(self) -> np.ndarray:
        """|G|^2 for every FFT-grid reciprocal vector, shape ``shape``."""
        g = self.g_vectors
        return np.einsum("...i,...i->...", g, g)

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
