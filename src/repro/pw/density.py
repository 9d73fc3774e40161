"""Charge density construction from plane-wave orbitals.

rho(r) = sum_i occ_i |psi_i(r)|^2, evaluated by inverse FFT of each band's
coefficients onto the real-space grid.  This is the per-fragment ``rho_F``
of the LS3DF flow chart, later patched into the global density by
Gen_dens.
"""

from __future__ import annotations

import numpy as np

from repro.pw.basis import PlaneWaveBasis


def occupations_for_insulator(nelectrons: int, nbands: int) -> np.ndarray:
    """Fixed (insulating, spin-paired) occupations for ``nelectrons``.

    The lowest ``nelectrons // 2`` bands get occupation 2; an odd electron
    (only possible for passivated fragments with an odd electron count)
    puts a single electron in the next band.
    """
    if nelectrons < 0:
        raise ValueError("nelectrons must be non-negative")
    if nbands * 2 < nelectrons:
        raise ValueError(
            f"{nbands} bands cannot hold {nelectrons} electrons (need >= {(nelectrons + 1) // 2})"
        )
    occ = np.zeros(nbands)
    nfull = nelectrons // 2
    occ[:nfull] = 2.0
    if nelectrons % 2:
        occ[nfull] = 1.0
    return occ


def compute_density(
    basis: PlaneWaveBasis,
    coefficients: np.ndarray,
    occupations: np.ndarray,
) -> np.ndarray:
    """Real-space density from a block of orbital coefficients.

    Parameters
    ----------
    basis:
        Plane-wave basis the coefficients live in.
    coefficients:
        ``(nbands, npw)`` complex coefficients, rows orthonormal.
    occupations:
        ``(nbands,)`` occupation numbers.

    Returns
    -------
    numpy.ndarray
        Density on ``basis.grid``; integrates to ``sum(occupations)``.
    """
    coefficients = np.asarray(coefficients)
    occupations = np.asarray(occupations, dtype=float)
    if coefficients.ndim != 2 or coefficients.shape[1] != basis.npw:
        raise ValueError("coefficients must have shape (nbands, npw)")
    if occupations.shape != (coefficients.shape[0],):
        raise ValueError("occupations length must equal number of bands")
    density = np.zeros(basis.grid.shape, dtype=float)
    # One batched transform of the occupied bands; the accumulation stays a
    # per-band loop in band order, which fixes the floating-point sum.
    occupied = occupations != 0.0
    for occ, psi_r in zip(occupations[occupied], basis.to_real_space(coefficients[occupied])):
        density += occ * np.real(psi_r * np.conj(psi_r))
    return density


def integrated_charge(density: np.ndarray, dvol: float) -> float:
    """Number of electrons represented by a real-space density."""
    return float(np.sum(density) * dvol)


def normalize_density(density: np.ndarray, nelectrons: float, dvol: float) -> np.ndarray:
    """Rescale a density so it integrates to exactly ``nelectrons``.

    Production codes renormalise after mixing to protect against drift from
    the linear mixing of densities/potentials; the LS3DF driver uses this
    after patching.
    """
    total = integrated_charge(density, dvol)
    if total <= 0:
        raise ValueError("density must have positive total charge")
    return density * (nelectrons / total)
