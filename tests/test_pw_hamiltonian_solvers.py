"""Tests for the Hamiltonian, the eigensolvers, energies and the FSM."""

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.pw.basis import PlaneWaveBasis
from repro.pw.density import compute_density, integrated_charge, occupations_for_insulator
from repro.pw.eigensolver import all_band_cg, band_by_band_cg, exact_diagonalization
from repro.pw.energy import (
    electrostatic_energy,
    potential_distance,
    screening_potential,
    total_energy_from_orbitals,
)
from repro.pw.fsm import FoldedHamiltonian, folded_spectrum
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian
from repro.pw.pseudopotential import (
    SpeciesPseudopotential,
    default_pseudopotentials,
)


@pytest.fixture(scope="module")
def small_problem():
    """A 2-atom toy crystal Hamiltonian with a modest basis (module-scoped)."""
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.5)
    pps = default_pseudopotentials()
    grid = FFTGrid.for_structure(structure.cell, points_per_bohr=1.8)
    basis = PlaneWaveBasis(grid, ecut=2.5)
    h = Hamiltonian.from_structure(structure, basis, pps)
    rho_ion = pps.ionic_density(structure, grid)
    rho0 = np.clip(rho_ion, 0, None)
    rho0 *= structure.total_valence_electrons() / (np.sum(rho0) * grid.dvol)
    h.set_effective_potential(screening_potential(rho0, grid, rho_ion))
    return structure, pps, grid, basis, h, rho_ion


# --- pseudopotentials ----------------------------------------------------------

def test_ionic_density_integrates_to_total_charge(small_problem):
    structure, pps, grid, *_ , rho_ion = small_problem
    total = integrated_charge(rho_ion, grid.dvol)
    assert total == pytest.approx(pps.total_ionic_charge(structure), rel=1e-6)


def test_local_potential_is_real_and_attractive_near_anion(small_problem):
    structure, pps, grid, *_ = small_problem
    v = pps.local_potential(structure, grid)
    assert v.shape == grid.shape
    assert np.isrealobj(v)
    # The short-range part must average to the sum of form factors / volume.
    assert np.abs(np.mean(v)) < 10.0


def test_pseudopotential_set_lookup_errors():
    pps = default_pseudopotentials()
    with pytest.raises(KeyError):
        pps["NotASpecies"]
    with pytest.raises(ValueError):
        SpeciesPseudopotential("X", v0=1.0, sigma=-1.0)
    with pytest.raises(ValueError):
        SpeciesPseudopotential("X", v0=1.0, sigma=1.0, core_width=-0.5)
    assert "Zn" in pps and "Te" in pps


def test_with_override_replaces_parameters():
    pps = default_pseudopotentials()
    new = pps.with_override(
        {"O": SpeciesPseudopotential("O", v0=9.9, sigma=0.8, zion=6.0)}
    )
    assert new["O"].v0 == pytest.approx(9.9)
    assert pps["O"].v0 != pytest.approx(9.9)


# --- Hamiltonian -----------------------------------------------------------------

def test_hamiltonian_is_hermitian(small_problem):
    *_, basis, h, _ = small_problem[2:], small_problem[3], small_problem[4], small_problem[5]
    basis = small_problem[3]
    h = small_problem[4]
    rng = np.random.default_rng(0)
    a = basis.random_coefficients(1, rng)[0]
    b = basis.random_coefficients(1, rng)[0]
    lhs = np.vdot(a, h.apply(b))
    rhs = np.vdot(h.apply(a), b)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dense_matrix_matches_apply(small_problem):
    basis, h = small_problem[3], small_problem[4]
    mat = h.dense_matrix()
    rng = np.random.default_rng(1)
    c = basis.random_coefficients(1, rng)[0]
    assert np.allclose(mat @ c, h.apply(c), atol=1e-10)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_local_potential_follows_every_way_of_setting_its_parts():
    """The cached ionic + screening sum is what ``apply_local`` multiplies by;
    it must track direct attribute writes (energy.py zeroes ``v_screening``
    that way) as well as the two setter methods."""
    basis = PlaneWaveBasis(FFTGrid((7.0, 7.0, 7.0), (8, 8, 8)), ecut=1.5)
    rng = np.random.default_rng(3)
    v_ion, v_scr, v_tot = (rng.standard_normal(basis.grid.shape) for _ in range(3))
    c = basis.random_coefficients(2, rng)
    h = Hamiltonian(basis, v_ion)
    assert np.array_equal(h.local_potential, v_ion + np.zeros_like(v_ion))
    h.set_effective_potential(v_scr)
    assert np.array_equal(h.local_potential, v_ion + v_scr)
    screened = h.apply_local(c)
    h.v_screening = np.zeros_like(v_scr)
    assert np.array_equal(h.apply_local(c), Hamiltonian(basis, v_ion).apply_local(c))
    h.v_screening = v_scr
    assert np.array_equal(h.apply_local(c), screened)
    h.set_total_local_potential(v_tot)
    assert np.array_equal(h.local_potential, v_tot) and not h.v_screening.any()
    with pytest.raises(ValueError):
        h.local_potential[0, 0, 0] = 1.0


def test_expectation_values_are_real_and_above_ground_state(small_problem):
    basis, h = small_problem[3], small_problem[4]
    exact = exact_diagonalization(h, 4)
    rng = np.random.default_rng(2)
    c = basis.random_coefficients(3, rng)
    expect = h.expectation(c)
    assert np.all(expect >= exact.eigenvalues[0] - 1e-10)


def test_preconditioner_positive(small_problem):
    h = small_problem[4]
    p = h.preconditioner()
    assert np.all(p > 0)
    assert np.all(p <= 1.0 + 1e-12)


# --- eigensolvers -----------------------------------------------------------------

def test_all_band_cg_matches_exact(small_problem):
    h = small_problem[4]
    nb = 8
    exact = exact_diagonalization(h, nb)
    iterative = all_band_cg(h, nb, max_iterations=150, tolerance=1e-8)
    assert iterative.converged
    assert np.allclose(iterative.eigenvalues, exact.eigenvalues, atol=1e-6)
    overlap = iterative.coefficients.conj() @ iterative.coefficients.T
    assert np.allclose(overlap, np.eye(nb), atol=1e-8)


def test_band_by_band_cg_reasonable_accuracy(small_problem):
    h = small_problem[4]
    nb = 4
    exact = exact_diagonalization(h, nb)
    bb = band_by_band_cg(h, nb, max_iterations=40, tolerance=1e-5)
    assert np.allclose(bb.eigenvalues, exact.eigenvalues, atol=5e-3)


def test_all_band_warm_start_converges_faster(small_problem):
    h = small_problem[4]
    nb = 6
    first = all_band_cg(h, nb, max_iterations=150, tolerance=1e-7)
    warm = all_band_cg(h, nb, initial=first.coefficients, max_iterations=150, tolerance=1e-7)
    assert warm.iterations <= max(2, first.iterations // 3)


def test_eigensolver_argument_validation(small_problem):
    h = small_problem[4]
    with pytest.raises(ValueError):
        all_band_cg(h, 0)
    with pytest.raises(ValueError):
        exact_diagonalization(h, 10**6)


def test_all_band_history_is_recorded(small_problem):
    h = small_problem[4]
    res = all_band_cg(h, 4, max_iterations=30, tolerance=1e-12)
    assert len(res.history) == res.iterations
    # Residual histories should broadly decrease (allow small plateaus).
    assert res.history[-1] < res.history[0]


def _fresh_residual_norms(h, result):
    """||H c - eps c|| per band, recomputed from the returned fields."""
    c = result.coefficients
    return np.linalg.norm(h.apply(c) - result.eigenvalues[:, None] * c, axis=1)


def _orthonormality_error(c):
    return np.linalg.norm(c @ c.conj().T - np.eye(len(c)))


def test_all_band_cg_applies_h_once_per_band_per_iteration(small_problem):
    """The cost model: initial block + one row per band per iteration + the
    exit verification.  (Re-applying H to [x, w, p] costs ~4 nb a step.)"""
    h = small_problem[4]
    nb = 8
    h.counter.reset()
    res = all_band_cg(h, nb, max_iterations=150, tolerance=1e-8)
    assert res.converged
    assert h.counter.n_apply <= nb * (res.iterations + 2)


def test_all_band_cg_stopped_at_the_cap_reports_fresh_residuals(small_problem):
    h = small_problem[4]
    res = all_band_cg(h, 6, max_iterations=3, tolerance=1e-10)
    assert res.iterations == 3
    assert not res.converged
    np.testing.assert_allclose(
        res.residual_norms, _fresh_residual_norms(h, res), rtol=0, atol=1e-12)
    assert res.residual_norms.max() > 1e-10


def test_all_band_cg_does_not_believe_the_recurrence(small_problem):
    """A carried residual under the tolerance only triggers a fresh H·x; when
    that disagrees the solve carries on (without p) to real convergence.

    The band group (all a group has to offer is ``apply_h``) lies once: its
    first in-loop image is H·w compressed to span[x, w].  With a flat
    preconditioner H·x lies in that span too, so the Ritz step is the honest
    one but the image carried for the new block is exactly eps·x."""
    h = small_problem[4]

    class Unpreconditioned:
        basis = h.basis

        def preconditioner(self):
            return np.ones(h.basis.npw)

    class LiesOnce:
        def __init__(self):
            self.blocks = []

        def apply_h(self, block):
            self.blocks.append(block)
            image = h.apply(block)
            if len(self.blocks) == 2:  # a carried image claiming convergence
                s = np.vstack([self.blocks[0], block])
                image = (image @ s.conj().T) @ s
            return image

    group = LiesOnce()
    res = all_band_cg(
        Unpreconditioned(), 6, max_iterations=150, tolerance=1e-7, band_groups=group)
    assert res.iterations > 1
    assert res.converged
    # Initial image, one per iteration, and two verifications: the false
    # alarm's and the real one.
    assert len(group.blocks) == res.iterations + 3
    assert _fresh_residual_norms(h, res).max() < 1e-7
    exact = exact_diagonalization(h, 6)
    assert np.allclose(res.eigenvalues, exact.eigenvalues, atol=1e-8)


def test_all_band_cg_on_the_folded_operator_converges_without_drift(small_problem):
    """(H - e_ref)^2 squares the condition number: ~100 iterations at 1e-9 is
    where a drifting H·x recurrence falls apart."""
    h = small_problem[4]
    ref = float(exact_diagonalization(h, 10).eigenvalues[4]) + 1e-3
    folded = FoldedHamiltonian(h, ref)
    res = all_band_cg(folded, 3, max_iterations=250, tolerance=1e-9)
    assert res.converged
    assert res.iterations <= 110
    assert _fresh_residual_norms(folded, res).max() < 1e-9
    assert _orthonormality_error(res.coefficients) < 1e-12


@pytest.mark.parametrize("nb", [5, 7], ids=["triplet", "triplet+doublet"])
def test_all_band_cg_degenerate_block(small_problem, nb):
    """Bands 3-5 of the cubic cell are an exact triplet, 6-7 a doublet."""
    h = small_problem[4]
    exact = exact_diagonalization(h, nb)
    assert np.ptp(exact.eigenvalues[2:5]) < 1e-12
    res = all_band_cg(h, nb, max_iterations=150, tolerance=1e-9)
    assert res.converged
    assert _orthonormality_error(res.coefficients) < 1e-12
    assert np.allclose(res.eigenvalues, exact.eigenvalues, atol=1e-8)


@pytest.mark.parametrize("tolerance", [1e-10, 0.0], ids=["stops-at-once", "w-empties"])
def test_all_band_cg_from_a_converged_start(small_problem, tolerance):
    """With nothing left to expand by (residuals at rounding level lose rows
    or vanish under the projection) the block comes back intact."""
    h = small_problem[4]
    nb = 6
    exact = exact_diagonalization(h, nb)
    res = all_band_cg(
        h, nb, initial=exact.coefficients, max_iterations=20, tolerance=tolerance)
    assert res.converged == (tolerance > 0)
    assert res.iterations < 20
    assert res.residual_norms.max() < 1e-12
    assert _orthonormality_error(res.coefficients) < 1e-12
    assert np.allclose(res.eigenvalues, exact.eigenvalues, atol=1e-8)


# --- density / energy ---------------------------------------------------------------

def test_occupations_for_insulator():
    occ = occupations_for_insulator(8, 6)
    assert np.allclose(occ, [2, 2, 2, 2, 0, 0])
    occ_odd = occupations_for_insulator(7, 5)
    assert occ_odd[3] == 1.0
    with pytest.raises(ValueError):
        occupations_for_insulator(10, 2)


def test_density_integrates_to_electron_count(small_problem):
    structure, pps, grid, basis, h, rho_ion = small_problem
    nelec = structure.total_valence_electrons()
    nbands = nelec // 2 + 2
    res = all_band_cg(h, nbands, max_iterations=100, tolerance=1e-6)
    occ = occupations_for_insulator(nelec, nbands)
    rho = compute_density(basis, res.coefficients, occ)
    assert np.all(rho >= -1e-12)
    assert integrated_charge(rho, grid.dvol) == pytest.approx(nelec, rel=1e-8)


def test_band_energy_identity_at_fixed_potential(small_problem):
    """sum occ eps_i == sum occ <T+V_sr+V_NL> + integral rho_out * V_scr dr.

    This is the identity connecting the two total-energy routes; it must
    hold exactly (to solver tolerance) for *any* fixed screening potential,
    without requiring self-consistency.
    """
    structure, pps, grid, basis, h, rho_ion = small_problem
    nelec = structure.total_valence_electrons()
    nbands = nelec // 2 + 2
    res = all_band_cg(h, nbands, max_iterations=150, tolerance=1e-7)
    occ = occupations_for_insulator(nelec, nbands)
    rho_out = compute_density(basis, res.coefficients, occ)
    self_e = pps.ionic_self_energy(structure)
    breakdown = total_energy_from_orbitals(h, res.coefficients, occ, rho_out, rho_ion, self_e)
    band_sum = float(np.sum(occ * res.eigenvalues))
    double_count = float(np.sum(rho_out * h.v_screening) * grid.dvol)
    assert band_sum == pytest.approx(breakdown.kinetic_and_ionic + double_count, rel=1e-5)
    # The orbital-route breakdown must be finite and include the self-energy.
    assert np.isfinite(breakdown.total)
    assert breakdown.ionic_self_energy == pytest.approx(self_e)


def test_potential_distance_metric(small_problem):
    grid = small_problem[2]
    a = np.zeros(grid.shape)
    b = np.ones(grid.shape)
    assert potential_distance(a, b, grid) == pytest.approx(grid.volume)
    assert potential_distance(a, a, grid) == 0.0


def test_electrostatic_energy_of_neutral_system_is_finite(small_problem):
    structure, pps, grid, basis, h, rho_ion = small_problem
    rho = np.clip(rho_ion, 0, None)
    rho *= structure.total_valence_electrons() / (np.sum(rho) * grid.dvol)
    e = electrostatic_energy(rho, grid, rho_ion)
    assert np.isfinite(e)
    assert abs(e) < 10.0


# --- folded spectrum method -----------------------------------------------------------

def test_folded_spectrum_finds_interior_states(small_problem):
    h = small_problem[4]
    exact = exact_diagonalization(h, 10)
    # Fold around the energy of the 5th state: FSM must return states whose
    # energies are the exact eigenvalues closest to the reference.
    ref = float(exact.eigenvalues[4]) + 1e-3
    fsm = folded_spectrum(h, ref, nstates=3, max_iterations=250, tolerance=1e-9)
    # Each FSM energy must match some exact eigenvalue.
    for e in fsm.eigenvalues:
        assert np.min(np.abs(exact.eigenvalues - e)) < 1e-4
    # And they must be (among) the nearest ones to the reference.
    dist_found = np.sort(np.abs(fsm.eigenvalues - ref))
    dist_exact = np.sort(np.abs(exact.eigenvalues - ref))[:3]
    assert dist_found[0] == pytest.approx(dist_exact[0], abs=1e-4)
    assert np.all(fsm.residual_norms < 1e-3)
