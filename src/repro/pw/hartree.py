"""Hartree potential / global Poisson solver via FFT.

This is the GENPOT kernel of the paper: given the (patched, global) charge
density, solve the periodic Poisson equation

    nabla^2 V_H(r) = -4 pi rho(r)      =>      V_H(G) = 4 pi rho(G) / |G|^2

with the G = 0 component set to zero (charge neutrality against a uniform
compensating background, the standard convention for periodic supercells).
"""

from __future__ import annotations

import numpy as np

from repro.constants import FOUR_PI
from repro.pw import fftcache
from repro.pw.grid import FFTGrid


def hartree_potential(density: np.ndarray, grid: FFTGrid) -> np.ndarray:
    """Hartree potential (Hartree a.u.) of a periodic density on ``grid``.

    Parameters
    ----------
    density:
        Real-space electron density (electrons / Bohr^3), shape ``grid.shape``.
    grid:
        The FFT grid.

    Returns
    -------
    numpy.ndarray
        Real-space Hartree potential, same shape.
    """
    if density.shape != grid.shape:
        raise ValueError("density shape does not match grid")
    g2 = grid.g2
    nonzero = g2 > 1e-12
    # Workspace-pooled transforms: identical operations on reused buffers,
    # bit-identical to the allocating path (fftcache module docstring).
    with fftcache.scratch(grid.shape) as w1, fftcache.scratch(grid.shape) as w2:
        rho_g = fftcache.fftn(density, out=w1)
        vg = w2
        vg.fill(0)
        vg[nonzero] = FOUR_PI * rho_g[nonzero] / g2[nonzero]
        v = fftcache.ifftn(vg, out=w1)
        return v.real.copy()


def hartree_energy(density: np.ndarray, grid: FFTGrid) -> float:
    """Hartree energy  E_H = (1/2) integral rho(r) V_H(r) dr."""
    v = hartree_potential(density, grid)
    return 0.5 * float(np.sum(density * v) * grid.dvol)


def poisson_residual(potential: np.ndarray, density: np.ndarray, grid: FFTGrid) -> float:
    """L2 residual of nabla^2 V + 4 pi (rho - rho_avg) evaluated spectrally.

    Used by tests to verify the solver: the residual of the exact solution
    is zero to round-off for any band-limited density.
    """
    if potential.shape != grid.shape or density.shape != grid.shape:
        raise ValueError("shape mismatch")
    # Pooled-workspace transforms like the solver path above; the raw
    # np.fft calls here used to bypass the PR 6 workspace pool.
    with fftcache.scratch(grid.shape) as w1, fftcache.scratch(grid.shape) as w2:
        vg = fftcache.fftn(potential, out=w1)
        np.multiply(-grid.g2, vg, out=w2)
        lap = fftcache.ifftn(w2, out=w1).copy()
    rho_avg = np.mean(density)
    resid = np.real(lap) + FOUR_PI * (density - rho_avg)
    return float(np.sqrt(np.sum(np.abs(resid) ** 2) * grid.dvol))
