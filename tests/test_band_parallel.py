"""Tests for the band-parallel distributed eigensolver (ISSUE-5).

Covers the tentpole acceptance criteria: grouped ``all_band_cg`` runs are
**bit-identical** (``==``) to the single-worker path for slice counts
{1, 2, 3, nbands} on the serial, process and remote backends; every
sliced stage is exactly one executor submission per slice; the grouped
SCF path (``band_groups=``) reproduces the fused-pipeline results bit
for bit; and a run killed in the middle of PEtot_F resumes from its
end-of-iteration checkpoint with bit-identical final iterates.  The SCF
only band-slices when the executor has more workers than the iteration
has fragments, so the SCF-level cases run a one-fragment (1×1×1)
division on two loopback workers.

Nothing here asserts a measured parallel speedup — the CI container may
have a single core (``os.cpu_count() == 1``); only correctness and
accounting are gated.
"""

import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentTask,
    get_task_problem,
    run_fragment_pipeline_task,
    run_fragment_pipeline_task_grouped,
    solve_fragment_task,
)
from repro.core.scf import IterationTimings, LS3DFSCF
from repro.parallel.amdahl import measured_intra_group_efficiency
from repro.parallel.bands import (
    BandBlockResult,
    BandBlockTask,
    BandGroup,
    BandGroupExecutor,
    BandSlice,
    band_slices,
    run_band_block_task,
)
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.remote import RemoteExecutor
from repro.pw.eigensolver import _low_kinetic_block, all_band_cg
from repro.pw.grid import FFTGrid


def _make_task(label="frag", screening=0.02) -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, screening),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-5,
        max_iterations=40,
    )


def _tiny_scf(executor=None, dims=(2, 1, 1), **kw) -> LS3DFSCF:
    """The ZnO CsCl cell of ``dims`` cells, divided one fragment cell
    per cell: 2×1×1 has four fragments, 1×1×1 one."""
    structure = cscl_binary(dims, "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=dims,
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


# --- slices -----------------------------------------------------------------------

def test_band_slices_partition():
    slices = band_slices(10, 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert [s.nbands for s in slices] == [3, 3, 2, 2]
    assert all(s.nslices == 4 for s in slices)
    # More slices than bands: trailing slices are empty, still covering.
    slices = band_slices(2, 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_band_slice_validation():
    with pytest.raises(ValueError):
        BandSlice(index=3, nslices=3, lo=0, hi=1)
    with pytest.raises(ValueError):
        BandSlice(index=0, nslices=1, lo=2, hi=1)


# --- per-slice kernel -------------------------------------------------------------

def test_band_block_task_pickle_roundtrip():
    task = _make_task()
    block = np.zeros((2, 5), dtype=complex)
    btask = BandBlockTask(bands=band_slices(4, 2)[0], template=task, block=block)
    clone = pickle.loads(pickle.dumps(btask))
    assert clone.label == btask.label == f"{task.label}:apply_h[0/2]"
    assert clone.bands == btask.bands
    assert np.array_equal(clone.block, block)
    assert clone.template.static_fingerprint() == task.static_fingerprint()
    assert clone.cost() == btask.cost() == float(block.size)


def test_band_block_task_is_rows_of_h_psi_only():
    """One band-task kind: the wire types carry a block of rows out and
    its H·psi back, with no kernel selector or second operand."""
    assert [f.name for f in dataclasses.fields(BandBlockTask)] == [
        "bands", "template", "block", "label"]
    assert [f.name for f in dataclasses.fields(BandBlockResult)] == [
        "label", "index", "data", "wall_time", "worker_pid"]
    assert not hasattr(BandGroup, "residual_precond")
    task = _make_task()
    h = get_task_problem(task).hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    x = h.basis.random_coefficients(4, np.random.default_rng(3))
    s = band_slices(4, 2)[1]
    result = run_band_block_task(
        BandBlockTask(bands=s, template=task, block=x[s.lo : s.hi]))
    np.testing.assert_array_equal(result.data, h.apply(x)[s.lo : s.hi])
    assert result.index == 1


def test_grouped_apply_bit_identical_to_hamiltonian_apply():
    """BandGroup.apply_h == Hamiltonian.apply bit for bit, any slice count.

    The load-bearing decomposition: each slice carries its rows' whole
    H·psi — the row-independent kinetic + local (FFT) share plus the
    blocked fixed-shape nonlocal term — and the root only concatenates.
    """
    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    nbands = problem.nbands + 3
    x = h.basis.random_coefficients(nbands, np.random.default_rng(7))
    ref = h.apply(x)
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, nbands):
        group = BandGroup(executor, nslices).bind(task)
        np.testing.assert_array_equal(group.apply_h(x), ref)
        assert group.stats.stages == 1
        assert group.stats.submissions == nslices


def test_band_group_requires_capable_executor():
    class RunOnly:
        n_workers = 1

    with pytest.raises(TypeError, match="run_bands"):
        BandGroup(RunOnly(), 2)
    with pytest.raises(RuntimeError, match="bind"):
        BandGroup(SerialFragmentExecutor(), 2).apply_h(np.zeros((2, 5), dtype=complex))
    for executor in (
        SerialFragmentExecutor(),
        ProcessPoolFragmentExecutor(n_workers=1),
        RemoteExecutor([]),
    ):
        assert isinstance(executor, BandGroupExecutor)
    assert not isinstance(RunOnly(), BandGroupExecutor)


# --- grouped eigensolver / solve kernel (acceptance criterion) --------------------

@pytest.fixture(scope="module")
def solve_reference():
    """Single-worker kernel result on the reference fragment."""
    return solve_fragment_task(_make_task())


def _sliced_solves_match_the_unsliced_one(gated: bool) -> None:
    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    assert problem.noccupied < problem.nbands
    solve = partial(
        all_band_cg, h, problem.nbands, max_iterations=task.max_iterations,
        tolerance=task.tolerance, nconverge=problem.noccupied if gated else None)
    ref = solve()
    assert ref.converged
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, problem.nbands):
        group = BandGroup(executor, nslices).bind(task)
        got = solve(band_groups=group)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        np.testing.assert_array_equal(got.residual_norms, ref.residual_norms)
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.history == ref.history


def test_cold_fragment_solve_takes_fewer_applications_than_the_parent():
    """The 5-band reference fragment from cold: 28 packed rows / 10 steps at
    1e-5 and 45 / 16 at 1e-8 at the parent of PR 24, pinned as upper bounds."""
    task = _make_task()
    problem = get_task_problem(task)
    h = problem.hamiltonian
    h.set_effective_potential(np.asarray(task.screening_potential))
    for tolerance, rows, steps in ((1e-5, 28, 10), (1e-8, 45, 16)):
        h.counter.reset()
        res = all_band_cg(h, problem.nbands, max_iterations=60, tolerance=tolerance)
        assert res.converged
        assert h.counter.n_apply < rows and res.iterations < steps


def test_grouped_all_band_cg_bit_identical_serial(solve_reference):
    """all_band_cg(band_groups=...) == all_band_cg() for {1,2,3,nbands}."""
    _sliced_solves_match_the_unsliced_one(gated=False)


def test_grouped_all_band_cg_bit_identical_serial_with_a_gate():
    """The gate is evaluated on the root from the full-block residuals, before
    any scatter: waiting for the occupied bands only keeps every slice count ==."""
    _sliced_solves_match_the_unsliced_one(gated=True)


class _WatchedGroup:
    """Band-group double around any ``apply_h``: notes how many real rows each
    packed block holds (a last row without an odd part rides alone)."""

    def __init__(self, apply_h, basis) -> None:
        self.inner, self.basis, self.active = apply_h, basis, []

    def apply_h(self, block):
        lone = np.linalg.norm(block[-1] - self.basis.conjugate(block[-1])) < 0.5
        self.active.append(2 * len(block) - int(lone))
        return self.inner(block)


def test_grouped_all_band_cg_with_fewer_rows_than_slices():
    """From a cold start the first stage is the ``n0`` start rows (low-kinetic
    shells and ``nb`` random rows, ``ceil(n0/2)`` packed).  Bands under the
    tolerance are not expanded on, so after it ``apply_h`` sees blocks that
    shrink below the band block - and below the slice count, leaving slices
    empty - through odd sizes, down to a single band and up again when a
    locked band comes back: == serial all the way, for every slice count."""
    task = _make_task()
    problem = get_task_problem(task)
    h, nb = problem.hamiltonian, problem.nbands
    h.set_effective_potential(np.asarray(task.screening_potential))
    watched = _WatchedGroup(h.apply, h.basis)
    ref = all_band_cg(h, nb, max_iterations=60, tolerance=1e-8, band_groups=watched)
    assert ref.converged
    blocks, inloop = watched.active, watched.active[1:-1]
    n0 = len(_low_kinetic_block(h.basis, nb)) + nb
    assert watched.active[0] == n0 == 24 and watched.active[-1] == nb == 5
    # Initial block, one per step, the exit verification - and one more full
    # block per verification that found a carried residual too optimistic.
    assert len(blocks) >= ref.iterations + 2
    assert {1, 2, 3} <= set(inloop)
    assert any(after > before for before, after in zip(inloop, inloop[1:]))
    executor = SerialFragmentExecutor()
    for nslices in (1, 2, 3, nb, nb + 2):
        group = BandGroup(executor, nslices).bind(task)
        watched = _WatchedGroup(group.apply_h, h.basis)
        got = all_band_cg(h, nb, max_iterations=60, tolerance=1e-8, band_groups=watched)
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        np.testing.assert_array_equal(got.residual_norms, ref.residual_norms)
        assert (got.iterations, got.converged, got.history) == (
            ref.iterations, ref.converged, ref.history)
        assert watched.active == blocks and group.stats.stages == len(blocks)
        assert group.stats.submissions == group.stats.stages * nslices


@pytest.mark.parametrize("backend", ["serial", "processes", "remote"])
def test_grouped_solve_bit_identical_all_backends(backend, solve_reference):
    """The grouped fragment solve == the ungrouped kernel, bit for bit,
    for slice counts {1, 2, 3, nbands} on every backend."""
    ref = solve_reference
    nbands = len(ref.eigenvalues)
    executors = {
        "serial": SerialFragmentExecutor,
        "processes": lambda: ProcessPoolFragmentExecutor(n_workers=2),
        "remote": remote_executor,
    }
    with executors[backend]() as executor:
        for nslices in (1, 2, 3, nbands):
            group = BandGroup(executor, nslices)
            result = solve_fragment_task(_make_task(), group=group)
            stats = group.stats
            np.testing.assert_array_equal(result.eigenvalues, ref.eigenvalues)
            np.testing.assert_array_equal(result.density, ref.density)
            np.testing.assert_array_equal(result.coefficients, ref.coefficients)
            assert result.quantum_energy == ref.quantum_energy
            assert result.band_energy == ref.band_energy
            assert result.solver_iterations == ref.solver_iterations
            assert result.converged == ref.converged
            assert stats.nslices == nslices


def test_one_submission_per_slice_per_stage():
    """Accounting acceptance criterion: every sliced stage is exactly one
    executor submission per band slice, and the executor's own counter
    agrees with the group's."""
    for nslices in (1, 2, 3):
        executor = SerialFragmentExecutor()
        group = BandGroup(executor, nslices)
        solve_fragment_task(_make_task(), group=group)
        stats = group.stats
        assert stats.submissions == stats.stages * nslices
        assert executor.tasks_submitted == stats.submissions
        assert len(stats.task_times) == stats.submissions
        assert stats.task_cpu > 0
        assert stats.stages > 0


class _RecordingExecutor(SerialFragmentExecutor):
    """Notes how many band rows each stage shipped."""

    def __init__(self) -> None:
        super().__init__()
        self.stage_rows: list[int] = []

    def run_bands(self, tasks):
        self.stage_rows.append(sum(t.block.shape[0] for t in tasks))
        return super().run_bands(tasks)


def test_band_stages_ship_packed_row_pairs():
    """The root packs two real orbitals into one complex row before the
    scatter, so a stage over m bands ships ceil(m/2) rows: the cold start
    block its ``n0`` rows (19 shell rows + 5 random ones here), the exit
    verification every band, the in-loop expansion blocks only the bands
    still at or above the tolerance."""
    executor = _RecordingExecutor()
    group = BandGroup(executor, 2)
    result = solve_fragment_task(_make_task(), group=group)
    half = -(-len(result.eigenvalues) // 2)
    assert len(executor.stage_rows) == group.stats.stages == result.solver_iterations + 2
    assert executor.stage_rows[0] == 12 and executor.stage_rows[-1] == half
    assert max(executor.stage_rows[1:]) == half and min(executor.stage_rows) < half


def test_grouped_pipeline_kernel_matches_ungrouped():
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    make = lambda: scf.fragment_solver.make_pipeline_task(  # noqa: E731
        scf.fragments[0], v_in,
        eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    ref = run_fragment_pipeline_task(make())
    got, stats = run_fragment_pipeline_task_grouped(
        make(), SerialFragmentExecutor(), 2)
    np.testing.assert_array_equal(got.density, ref.density)
    np.testing.assert_array_equal(got.contribution, ref.contribution)
    assert got.quantum_energy == ref.quantum_energy
    assert stats.submissions == stats.stages * 2


# --- grouped SCF (end to end) -----------------------------------------------------

ONE_FRAGMENT = (1, 1, 1)


@pytest.fixture(scope="module")
def pipeline_run():
    """The ungrouped serial reference the grouped side must reproduce:
    one fragment, so two workers band-slice it."""
    return _tiny_scf(SerialFragmentExecutor(), dims=ONE_FRAGMENT).run(**_RUN_KW)


def _assert_scf_identical(result, reference):
    np.testing.assert_array_equal(result.density, reference.density)
    np.testing.assert_array_equal(result.potential, reference.potential)
    assert result.total_energy == reference.total_energy
    assert result.quantum_energy == reference.quantum_energy
    assert result.convergence_history == reference.convergence_history
    assert result.energy_history == reference.energy_history


def _assert_band_sliced(result):
    assert all(t.band_sliced for t in result.timings)


def test_scf_band_groups_bit_identical_serial(pipeline_run):
    """``==`` the serial reference for 1, 2 and 3 slices."""
    with remote_executor(2) as executor:
        for nslices in (1, 2, 3):
            result = _tiny_scf(
                executor, dims=ONE_FRAGMENT, band_groups=nslices).run(**_RUN_KW)
            _assert_scf_identical(result, pipeline_run)
            _assert_band_sliced(result)


def test_scf_band_groups_bit_identical_pools(pipeline_run):
    with remote_executor(2) as executor:
        remote = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(remote, pipeline_run)
    _assert_band_sliced(remote)
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        pooled = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(pooled, pipeline_run)
    _assert_band_sliced(pooled)


def test_scf_band_groups_timings_and_accounting():
    with remote_executor(2) as executor:
        scf = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2)
        result = scf.run(**_RUN_KW)
        assert executor.tasks_submitted == sum(
            t.band_stages for t in result.timings) * 2
    for t in result.timings:
        assert t.band_sliced
        assert t.band_slices == 2
        assert len(t.band_tasks) == t.band_stages * 2
        assert len(t.petot_f_fragments) == scf.nfragments
        assert t.band_cpu > 0
        assert t.band_driver >= 0
        assert 0 < t.measured_intra_group_efficiency <= 1.0
        # Amdahl buckets: band tasks are the parallel work, the root
        # residue is serial.
        assert t.parallel_cpu == pytest.approx(t.band_cpu + 0.0)
        assert t.serial_time == pytest.approx(
            t.gen_vf + t.gen_dens + t.genpot + t.band_driver + t.checkpoint_io)
        # Two workers hold one band group of two slices.
        assert t.band_group_count == 1


def test_scf_band_groups_validation():
    with pytest.raises(ValueError, match="band_groups"):
        _tiny_scf(SerialFragmentExecutor(), band_groups=0)

    class NoBands:
        n_workers = 1

        def submit_pipeline_batch(self, tasks):  # pragma: no cover - never called
            raise AssertionError

    with pytest.raises(TypeError, match="run_bands"):
        _tiny_scf(NoBands(), band_groups=2)


def test_ls3df_driver_accepts_band_groups():
    from repro.core import LS3DF

    with remote_executor(2) as executor:
        ls3df = LS3DF(
            cscl_binary(ONE_FRAGMENT, "Zn", "O", 6.0), grid_dims=ONE_FRAGMENT,
            ecut=2.2, executor=executor, band_groups=2)
        assert ls3df.band_groups == 2
        result = ls3df.run(max_iterations=1, potential_tolerance=1e-9,
                           eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    assert result.iterations == 1
    assert result.timings[0].band_sliced


# --- scheduler / amdahl wiring ----------------------------------------------------

def test_intra_group_efficiency_divides_by_every_concurrent_slice():
    """G groups of Np slices run side by side: the band CPU is divided by
    Np x G x wall, so two groups' work cannot read as an efficiency of 2."""
    timings = IterationTimings(
        petot_f=2.0, band_sliced=True, band_slices=2, band_group_count=2,
        band_tasks=[1.5, 1.5, 2.0, 1.0])
    assert timings.measured_intra_group_efficiency == 6.0 / (2 * 2 * 2.0)
    assert IterationTimings().measured_intra_group_efficiency == 0.0


def test_measured_intra_group_efficiency_helper():
    assert measured_intra_group_efficiency(2.0, 1.0, 4) == pytest.approx(0.5)
    assert measured_intra_group_efficiency(0.0, 1.0, 4) == 0.0
    assert measured_intra_group_efficiency(1.0, 0.0, 4) == 0.0
    with pytest.raises(ValueError):
        measured_intra_group_efficiency(-1.0, 1.0, 4)


# --- resume after a kill -----------------------------------------------------------

class _KillAtBatch:
    """Executor wrapper whose ``run_bands`` dies at its ``batch``-th call,
    counting from 0 across iterations."""

    def __init__(self, inner, batch):
        self.inner = inner
        self.batch = batch
        self.calls = 0

    def run_bands(self, tasks):
        self.calls += 1
        if self.calls > self.batch:
            raise RuntimeError("simulated mid-PEtot_F kill")
        return self.inner.run_bands(tasks)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_run_killed_mid_petot_f_resumes_bit_identically(tmp_path):
    """A run killed mid-PEtot_F of its second iteration resumes from the
    end-of-iteration checkpoint, re-solves that iteration and ends ``==``
    the uninterrupted run; the directory only ever holds the state file."""
    run_kw = dict(max_iterations=3, potential_tolerance=1e-9,
                  eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    with remote_executor(2) as executor:
        reference = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(**run_kw)
        _assert_band_sliced(reference)

        # Halfway through the second iteration's one fragment.
        first, second = (t.band_stages for t in reference.timings[:2])
        killer = _KillAtBatch(executor, first + second // 2)
        with pytest.raises(RuntimeError, match="simulated"):
            _tiny_scf(killer, dims=ONE_FRAGMENT, band_groups=2).run(
                checkpoint_dir=tmp_path, resume=True, **run_kw)
        assert killer.calls == first + second // 2 + 1
        assert [p.name for p in tmp_path.iterdir()] == ["state-latest.npz"]

        resumed = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(
            checkpoint_dir=tmp_path, resume=True, **run_kw)
    assert len(resumed.timings) == 2  # iterations 2 and 3, re-solved whole
    _assert_band_sliced(resumed)
    _assert_scf_identical(resumed, reference)
    assert [p.name for p in tmp_path.iterdir()] == ["state-latest.npz"]


def test_grouped_checkpoint_resume_matches_uninterrupted(tmp_path):
    """Ordinary iteration-boundary resume also stays bit-identical on the
    grouped path."""
    run_kw = dict(potential_tolerance=1e-9,
                  eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    with remote_executor(2) as executor:
        grouped = lambda: _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2)  # noqa: E731
        reference = grouped().run(max_iterations=3, **run_kw)
        first = grouped().run(max_iterations=2, checkpoint_dir=tmp_path, **run_kw)
        resumed = grouped().run(
            max_iterations=3, checkpoint_dir=tmp_path, resume=True, **run_kw)
    for result in (reference, first, resumed):
        _assert_band_sliced(result)
    _assert_scf_identical(resumed, reference)
