"""Golden-value regression against fixtures in tests/golden/.

Re-runs the fixed golden protocol (see ``tests/golden/generate.py``) on
two toy systems and compares converged total energy, quantum energy,
convergence/energy histories and folded-spectrum band-edge eigenvalues
against the stored JSON at 1e-10 — tight enough that any refactor
touching the physics path (potential assembly, summation order,
eigensolver, patching) trips it.  The fixtures are reproducible on the
machine (and BLAS build) that generated them; on different hardware,
ulp-level eigensolver differences amplified over the SCF iterations can
exceed 1e-10, in which case regenerate once with
``PYTHONPATH=src python tests/golden/generate.py`` and commit the new
fixtures with a note saying the platform changed.

Both systems fit one Gen_dens reduce chunk, so their density sum is plain
sequential summation; the chunked tree sum is pinned where it differs —
across backends on a ten-fragment system — in
``tests/test_fragment_backends.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from generate import PROTOCOL, SYSTEMS, build, run_protocol  # noqa: E402

from repro.core.fragment_task import get_task_problem, solve_fragment_task  # noqa: E402
from repro.core.patching import PATCH_CHUNK_SIZE, restrict_to_fragment  # noqa: E402
from repro.pw.hamiltonian import Hamiltonian  # noqa: E402

RTOL = 1e-10
ATOL = 1e-12


def _load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_golden_regression(name):
    golden = _load(name)
    ls3df, result, states = run_protocol(name)
    assert ls3df.nfragments <= PATCH_CHUNK_SIZE

    assert result.iterations == golden["iterations"]
    assert result.converged == golden["converged"]
    assert result.total_energy == pytest.approx(
        golden["total_energy"], rel=RTOL, abs=ATOL)
    assert result.quantum_energy == pytest.approx(
        golden["quantum_energy"], rel=RTOL, abs=ATOL)
    np.testing.assert_allclose(
        result.convergence_history, golden["convergence_history"],
        rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        result.energy_history, golden["energy_history"], rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        states.energies, golden["band_edge_energies"], rtol=RTOL, atol=ATOL)
    assert states.reference_energy == pytest.approx(
        golden["band_edge_reference"], rel=RTOL, abs=ATOL)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_quantum_energy_needs_no_h_application(name):
    """``band_energy - integral v_scr rho_F`` is the quantum energy the kernel
    used to get from one more H application with the screening zeroed (the
    Ritz values are <x_i|H|x_i> on a fresh image, converged or not)."""
    scf = build(name)
    fragment = scf.fragments[-1]
    restricted = restrict_to_fragment(scf.division, fragment, scf.genpot.initial_potential())
    task = scf.fragment_solver.make_task(
        fragment, restricted, eigensolver_tolerance=1e-5, eigensolver_iterations=4)
    problem = get_task_problem(task)
    result = solve_fragment_task(task, problem)
    assert not result.converged
    h = problem.hamiltonian
    unscreened = Hamiltonian(h.basis, h.v_ionic, h.projectors, h.projector_strengths)
    expect = unscreened.expectation(result.coefficients)
    assert result.quantum_energy == pytest.approx(
        float(np.sum(problem.occupations * expect)), rel=0, abs=1e-12)


def test_golden_fixtures_exist_for_every_system():
    for name in SYSTEMS:
        path = GOLDEN_DIR / f"{name}.json"
        assert path.is_file(), f"missing golden fixture {path}"
        golden = _load(name)
        assert golden["system"] == name
        # The stored protocol must match the generator's current one —
        # otherwise the fixture was generated by a different recipe.
        assert golden["protocol"] == json.loads(json.dumps(PROTOCOL))
