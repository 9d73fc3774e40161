"""Integration tests of the direct (conventional) SCF driver."""

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.pw.scf import DirectSCF


@pytest.fixture(scope="module")
def scf_result():
    structure = cscl_binary((1, 1, 1), "Zn", "Se", 6.5)
    scf = DirectSCF(structure, ecut=2.5, n_empty=4, mixer="anderson")
    result = scf.run(
        max_scf_iterations=25,
        potential_tolerance=5e-3,
        eigensolver_tolerance=1e-5,
    )
    return structure, scf, result


def test_scf_converges_small_system(scf_result):
    _, _, result = scf_result
    assert result.converged
    assert result.convergence_history[-1] < 5e-3
    # The convergence metric must have decreased substantially overall.
    assert result.convergence_history[-1] < 0.1 * result.convergence_history[0]


def test_scf_energy_is_stable_at_convergence(scf_result):
    _, _, result = scf_result
    tail = result.energy_history[-3:]
    assert max(tail) - min(tail) < 5e-2
    assert np.isfinite(result.total_energy)


def test_scf_density_charge_conservation(scf_result):
    structure, scf, result = scf_result
    total = np.sum(result.density) * scf.grid.dvol
    assert total == pytest.approx(structure.total_valence_electrons(), rel=1e-6)
    assert np.all(result.density >= -1e-10)


def test_scf_band_gap_positive(scf_result):
    structure, _, result = scf_result
    gap = result.band_gap(structure.total_valence_electrons())
    assert gap > 0.0


def test_scf_eigenvalues_sorted(scf_result):
    _, _, result = scf_result
    ev = result.eigenvalues
    assert np.all(np.diff(ev) >= -1e-10)


def test_scf_restart_from_converged_potential_is_fast(scf_result):
    structure, scf, result = scf_result
    scf2 = DirectSCF(structure, ecut=2.5, grid=scf.grid, n_empty=4, mixer="anderson")
    restarted = scf2.run(
        max_scf_iterations=10,
        potential_tolerance=5e-3,
        eigensolver_tolerance=1e-5,
        initial_potential=result.potential,
    )
    assert restarted.converged
    assert restarted.iterations <= 4
    assert restarted.total_energy == pytest.approx(result.total_energy, abs=5e-2)


def test_scf_validation_errors():
    structure = cscl_binary((1, 1, 1), "Zn", "Se", 6.5)
    with pytest.raises(ValueError):
        DirectSCF(structure, ecut=2.5, nbands=1)
    with pytest.raises(ValueError, match="at least 1"):
        DirectSCF(structure, ecut=2.5).run(max_scf_iterations=0)
