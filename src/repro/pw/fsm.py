"""Folded spectrum method (FSM) for interior (band-edge) eigenstates.

After the LS3DF potential is converged, the paper solves the Schroedinger
equation of the *whole* system for only the band-edge states with the
folded spectrum method (Wang & Zunger, J. Chem. Phys. 100, 2394 (1994)):
the lowest eigenstates of the folded operator

    (H - eps_ref)^2

are the eigenstates of H closest to the reference energy ``eps_ref``.
Because only a handful of states around the gap are needed, this step is
O(N) and is a fast post-process of the LS3DF calculation (the conduction-
band minimum and the oxygen-induced band of Figure 7 are obtained this
way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pw.eigensolver import all_band_cg
from repro.pw.hamiltonian import Hamiltonian


class FoldedHamiltonian:
    """Wrapper applying (H - eps_ref)^2; plugs into the block eigensolver.

    Exposes the same ``apply`` / ``basis`` / ``preconditioner`` surface that
    :func:`repro.pw.eigensolver.all_band_cg` needs, so the existing BLAS-3
    solver is reused unchanged.
    """

    def __init__(self, hamiltonian: Hamiltonian, reference_energy: float) -> None:
        self.inner = hamiltonian
        self.reference_energy = float(reference_energy)
        self.basis = hamiltonian.basis

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        h_minus = self.inner.apply(coefficients) - self.reference_energy * np.asarray(
            coefficients, dtype=complex
        )
        return self.inner.apply(h_minus) - self.reference_energy * h_minus

    def preconditioner(self, reference_kinetic) -> np.ndarray:
        p = self.inner.preconditioner(reference_kinetic)
        return p * p


@dataclass(eq=False)
class FoldedSpectrumResult:
    """Band-edge states found by the folded spectrum method.

    Attributes
    ----------
    eigenvalues:
        Energies of the found states (Hartree), sorted by distance from the
        reference energy (the folded ordering), then re-sorted ascending.
    coefficients:
        Orthonormal state coefficients ``(nstates, npw)``.
    folded_values:
        Eigenvalues of the folded operator (distance-squared to reference).
    reference_energy:
        The fold point used.
    residual_norms:
        Residuals ``|| H psi - eps psi ||`` with respect to the *original*
        Hamiltonian, the physically meaningful accuracy measure.
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    folded_values: np.ndarray
    reference_energy: float
    residual_norms: np.ndarray


def folded_spectrum(
    hamiltonian: Hamiltonian,
    reference_energy: float,
    nstates: int,
    initial: np.ndarray | None = None,
    max_iterations: int = 120,
    tolerance: float = 1e-8,
    rng: np.random.Generator | int | None = 0,
) -> FoldedSpectrumResult:
    """Find the ``nstates`` eigenstates of ``hamiltonian`` nearest ``reference_energy``.

    Parameters
    ----------
    hamiltonian:
        The converged-potential Hamiltonian of the full system.
    reference_energy:
        Fold point (Hartree); place it inside the gap near the band edge of
        interest (e.g. just below the CBM for conduction states, inside the
        gap near the oxygen level for the O-induced band).
    nstates:
        Number of band-edge states to extract.
    initial, max_iterations, tolerance, rng:
        Passed through to the block eigensolver operating on the folded
        operator (note the tolerance applies to the *folded* residual).

    Returns
    -------
    FoldedSpectrumResult
    """
    folded = FoldedHamiltonian(hamiltonian, reference_energy)
    block = all_band_cg(
        folded,  # type: ignore[arg-type]  (duck-typed operator)
        nstates,
        initial=initial,
        max_iterations=max_iterations,
        tolerance=tolerance,
        rng=rng,
    )
    coeffs = block.coefficients
    # Rayleigh-Ritz with the *original* H inside the found subspace to get
    # clean unfolded eigenvalues and states.
    hsub = coeffs.conj() @ hamiltonian.apply(coeffs).T
    hsub = 0.5 * (hsub + hsub.conj().T)
    evals, u = np.linalg.eigh(hsub)
    states = u.T @ coeffs
    residual = hamiltonian.apply(states) - evals[:, None] * states
    rnorm = np.linalg.norm(residual, axis=1)
    folded_values = (evals - reference_energy) ** 2
    return FoldedSpectrumResult(
        eigenvalues=evals,
        coefficients=states,
        folded_values=folded_values,
        reference_energy=reference_energy,
        residual_norms=rnorm,
    )
