"""Tests for the analysis helpers, I/O utilities and the fragment executor."""

import numpy as np
import pytest

from repro.analysis.states import (
    band_structure_summary,
    inverse_participation_ratio,
    localization_report,
    oxygen_band_analysis,
)
from repro.atoms.toy import cscl_binary
from repro.io.gridio import write_grid_npz
from repro.io.results import ResultRecord, load_records, save_records
from repro.io.tables import format_table, table1_layout
from repro.parallel.executor import (
    FragmentTask,
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    solve_fragment_task,
)
from repro.pw.grid import FFTGrid


# --- analysis -------------------------------------------------------------------

def test_ipr_localised_vs_delocalised():
    grid = FFTGrid([10.0] * 3, (12, 12, 12))
    uniform = np.full(grid.shape, 1.0)
    localized = np.zeros(grid.shape)
    localized[0, 0, 0] = 1.0
    ipr_u = inverse_participation_ratio(uniform, grid.dvol)
    ipr_l = inverse_participation_ratio(localized, grid.dvol)
    assert ipr_l > 100 * ipr_u
    assert ipr_u == pytest.approx(1.0 / grid.volume)
    with pytest.raises(ValueError):
        inverse_participation_ratio(np.zeros(grid.shape), grid.dvol)


def test_band_structure_summary():
    ev = np.array([-1.0, -0.8, -0.5, 0.1, 0.3])
    summary = band_structure_summary(ev, nelectrons=6)
    assert summary.vbm == pytest.approx(-0.5)
    assert summary.cbm == pytest.approx(0.1)
    assert summary.gap_ev == pytest.approx(0.6 * 27.211386, rel=1e-4)
    with pytest.raises(ValueError):
        band_structure_summary(ev, nelectrons=20)


def test_localization_and_oxygen_band_analysis():
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    coords = grid.real_coordinates
    o_pos = structure.positions[1]
    zn_pos = structure.positions[0]

    def gaussian_at(center, width=1.2):
        d = coords - center[None, None, None, :]
        d -= np.asarray(grid.cell) * np.round(d / np.asarray(grid.cell))
        r2 = np.einsum("...i,...i->...", d, d)
        g = np.exp(-r2 / (2 * width**2))
        return g / (np.sum(g) * grid.dvol)

    states = np.array([gaussian_at(o_pos), gaussian_at(zn_pos)])
    energies = np.array([-0.2, -0.1])
    report = localization_report(energies, states, grid, structure)
    assert report.dominant_species[0] == "O"
    assert report.oxygen_weight[0] > report.oxygen_weight[1]

    analysis = oxygen_band_analysis(energies, states, grid, structure)
    assert analysis.oxygen_band_width_ev >= 0.0
    assert len(analysis.oxygen_state_energies_ev) >= 1


# --- io -------------------------------------------------------------------------

def test_result_records_roundtrip(tmp_path):
    records = [
        ResultRecord("table1", {"tflops": np.float64(31.35), "cores": np.int64(17280)}),
        ResultRecord("fig6", {"history": np.array([1.0, 0.1, 0.01])}),
    ]
    path = save_records(records, tmp_path / "out" / "results.json")
    loaded = load_records(path)
    assert loaded[0].experiment == "table1"
    assert loaded[0].data["cores"] == 17280
    assert loaded[1].data["history"][-1] == pytest.approx(0.01)


def test_format_table_and_layout():
    rows = [
        {"machine": "Franklin", "system": "8x6x9", "atoms": 3456, "cores": 17280,
         "Np": 40, "Tflop/s": 31.35, "% peak": 34.9},
    ]
    text = format_table(rows, columns=table1_layout())
    assert "Franklin" in text and "8x6x9" in text and "31.35" in text
    assert format_table([]) == "(empty table)"


def test_write_grid_outputs(tmp_path):
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (6, 6, 6))
    field = np.random.default_rng(0).random(grid.shape)
    npz = write_grid_npz(tmp_path / "state.npz", grid, structure, density=field)
    data = np.load(npz, allow_pickle=False)
    assert np.allclose(data["density"], field)
    with pytest.raises(ValueError):
        write_grid_npz(tmp_path / "bad.npz", grid, None, density=np.zeros((2, 2, 2)))


# --- executor --------------------------------------------------------------------

def _make_task(label="frag") -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.zeros(grid.shape),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-4,
        max_iterations=40,
    )


def test_solve_fragment_task_returns_sane_result():
    result = solve_fragment_task(_make_task())
    assert result.eigenvalues.ndim == 1
    assert result.density.shape == (10, 10, 10)
    assert result.wall_time > 0
    assert np.isfinite(result.quantum_energy)


def test_serial_executor_runs_all_tasks():
    tasks = [_make_task(f"f{i}") for i in range(2)]
    report = SerialFragmentExecutor().run(tasks)
    assert len(report.results) == 2
    assert report.worker_count == 1
    assert report.total_cpu_time > 0
    assert 0 < report.parallel_efficiency <= 1.5


def test_process_pool_executor_distributes_tasks():
    tasks = [_make_task(f"f{i}") for i in range(2)]
    report = ProcessPoolFragmentExecutor(n_workers=2).run(tasks)
    assert len(report.results) == 2
    assert {r.label for r in report.results} == {"f0", "f1"}
    with pytest.raises(ValueError):
        ProcessPoolFragmentExecutor(n_workers=0)
