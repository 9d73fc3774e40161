"""High-level LS3DF public API.

:class:`LS3DF` is the solver (:class:`repro.core.scf.LS3DFSCF`) together
with the whole-system steps that follow a converged run:

>>> from repro.atoms import build_znteo_alloy
>>> from repro.core import LS3DF
>>> alloy = build_znteo_alloy((2, 2, 2), oxygen_fraction=0.03, rng=0)
>>> ls3df = LS3DF(alloy, grid_dims=(2, 2, 2), ecut=3.0)
>>> result = ls3df.run(max_iterations=20)
>>> states = ls3df.band_edge_states(result, n_states=4)

The post-processing (full-system Hamiltonian in the converged potential +
folded spectrum method) mirrors the paper's Section VII, where the
converged LS3DF potential is used to compute only the band-edge states of
the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scf import LS3DFResult, LS3DFSCF
from repro.pw.basis import PlaneWaveBasis
from repro.pw.eigensolver import EigensolverResult, all_band_cg
from repro.pw.fsm import FoldedSpectrumResult, folded_spectrum
from repro.pw.hamiltonian import Hamiltonian


@dataclass
class BandEdgeStates:
    """Band-edge states of the full system from the converged LS3DF potential."""

    energies: np.ndarray
    coefficients: np.ndarray
    reference_energy: float
    basis: PlaneWaveBasis
    residual_norms: np.ndarray

    def wavefunctions_on_grid(self) -> np.ndarray:
        """Real-space wavefunctions, shape ``(nstates, *grid.shape)``."""
        return self.basis.to_real_space(self.coefficients)

    def densities_on_grid(self) -> np.ndarray:
        """|psi|^2 of each state on the real-space grid."""
        psi = self.wavefunctions_on_grid()
        return np.real(psi * np.conj(psi))


class LS3DF(LS3DFSCF):
    """The LS3DF solver plus the paper's Section VII post-processing.

    ``LS3DF(structure, grid_dims, ...)`` takes the parameters of
    :class:`repro.core.scf.LS3DFSCF` unchanged and *is* that solver:
    :meth:`~repro.core.scf.LS3DFSCF.run` (checkpoint/restart included),
    ``executor``, ``global_grid``, ``fragments`` and every other attribute
    are inherited.  What it adds are the full-system methods that use a
    converged result: :meth:`full_system_hamiltonian`,
    :meth:`band_edge_states`, :meth:`lowest_states` and
    :meth:`estimate_gap_center`.

    Parameters
    ----------
    pipeline:
        Vestige kept for the benchmark harness (ROADMAP flagship 3):
        the fused task is the one iteration path, so anything but True
        raises ``ValueError`` and the value is not forwarded.
    genpot_shards:
        Vestige kept for the benchmark harness, like ``pipeline``: the
        loop's GENPOT always runs unsharded on the driver, so a positive
        int or None is accepted and not forwarded, and anything else
        raises ``ValueError``.
    install_potentials:
        Vestige kept for the benchmark harness, like ``pipeline``: every
        fragment task carries the iteration's potential inline, so a bool
        is accepted and not forwarded, and anything else raises
        ``ValueError``.
    band_groups:
        Vestige kept for the benchmark harness, like ``pipeline``: one
        worker solves each fragment whole, so a positive int or None is
        accepted and not forwarded, and anything else raises
        ``ValueError``.
    args, kwargs:
        Forwarded to :class:`repro.core.scf.LS3DFSCF`.
    """

    def __init__(
        self,
        *args,
        pipeline: bool = True,
        genpot_shards: int | None = None,
        install_potentials: bool = False,
        band_groups: int | None = None,
        **kwargs,
    ) -> None:
        if pipeline is not True:
            raise ValueError(
                f"pipeline={pipeline!r}: PR 18 removed the unfused per-fragment "
                f"driver loop; the fused task is the only path, drop the argument"
            )
        if genpot_shards is not None and (type(genpot_shards) is not int or genpot_shards < 1):
            raise ValueError(
                f"genpot_shards={genpot_shards!r}: the SCF loop's GENPOT runs "
                f"unsharded on the driver; the argument is ignored but must be "
                f"a positive int or None"
            )
        if type(install_potentials) is not bool:
            raise ValueError(
                f"install_potentials={install_potentials!r}: fragment tasks always "
                f"carry the potential inline; the argument is ignored but must be "
                f"a bool"
            )
        if band_groups is not None and (type(band_groups) is not int or band_groups < 1):
            raise ValueError(
                f"band_groups={band_groups!r}: one worker solves each fragment "
                f"whole; the argument is ignored but must be a positive int or None"
            )
        super().__init__(*args, **kwargs)

    def full_system_hamiltonian(
        self, result: LS3DFResult, ecut: float | None = None
    ) -> tuple[Hamiltonian, PlaneWaveBasis]:
        """Hamiltonian of the *whole* supercell in the converged LS3DF potential.

        Used for post-processing (folded-spectrum band-edge states, direct
        eigenvalue comparisons against a conventional DFT run) — exactly
        what the paper does after convergence.
        """
        basis = PlaneWaveBasis(self.global_grid, ecut or self.ecut)
        hamiltonian = Hamiltonian.from_structure(
            self.structure, basis, self.pseudopotentials
        )
        hamiltonian.set_effective_potential(result.potential)
        return hamiltonian, basis

    def band_edge_states(
        self,
        result: LS3DFResult,
        n_states: int = 4,
        reference_energy: float | None = None,
        tolerance: float = 1e-7,
        max_iterations: int = 150,
    ) -> BandEdgeStates:
        """Folded-spectrum band-edge states in the converged potential.

        Parameters
        ----------
        result:
            Converged LS3DF result.
        n_states:
            Number of states around the reference energy.
        reference_energy:
            Fold point; when omitted, an estimate of the mid-gap energy is
            used (from the highest occupied fragment eigenvalues).
        """
        hamiltonian, basis = self.full_system_hamiltonian(result)
        if reference_energy is None:
            reference_energy = self.estimate_gap_center(result)
        fsm: FoldedSpectrumResult = folded_spectrum(
            hamiltonian,
            reference_energy,
            n_states,
            tolerance=tolerance,
            max_iterations=max_iterations,
        )
        return BandEdgeStates(
            energies=fsm.eigenvalues,
            coefficients=fsm.coefficients,
            reference_energy=reference_energy,
            basis=basis,
            residual_norms=fsm.residual_norms,
        )

    def lowest_states(
        self, result: LS3DFResult, n_states: int, tolerance: float = 1e-6
    ) -> EigensolverResult:
        """Lowest eigenstates of the full system in the converged potential."""
        hamiltonian, _ = self.full_system_hamiltonian(result)
        return all_band_cg(
            hamiltonian, n_states, tolerance=tolerance, max_iterations=200
        )

    # -- helpers -------------------------------------------------------------
    def estimate_gap_center(self, result: LS3DFResult) -> float:
        """Estimate the gap-centre energy from the fragment spectra.

        Takes the patched-weighted mean of each fragment's HOMO and LUMO
        (positive-weight fragments only, which are the physically meaningful
        large pieces) and returns their midpoint.  The LUMO read here is the
        first guard band — a Ritz value the solve did not wait for; the
        estimate sits within 1e-4 Ha of an all-bands-converged one.
        """
        homos = []
        lumos = []
        for fragment, res in zip(self.fragments, result.fragment_results):
            if res.weight < 0:
                continue
            problem = self.fragment_solver.build_problem(fragment)
            nocc = int(np.count_nonzero(problem.occupations))
            if nocc == 0 or nocc >= len(res.eigenvalues):
                continue
            homos.append(res.eigenvalues[nocc - 1])
            lumos.append(res.eigenvalues[nocc])
        if not homos:
            raise RuntimeError("cannot estimate gap centre: no fragment spectra")
        return 0.5 * (float(np.max(homos)) + float(np.min(lumos)))
