"""Tests for the pluggable fragment-execution backend layer.

Covers the ISSUE-1 acceptance criteria: picklable task round-trips, the
serial / process / remote backends all running the one shared kernel and
producing identical results (also end-to-end through LS3DFSCF), LPT load
balancing, and warm-start reuse across outer iterations.

Also covers the fused fragment task every SCF iteration runs: the
backend-equivalence matrix (serial / process / remote-socket runs
bit-identical to each other, the remote rows crossing real loopback
TCP), exactly one executor submission per fragment per SCF iteration,
in-worker Gen_VF / Gen_dens timing capture, and the warm-start fix that
skips the redundant per-iteration passivation-potential rebuild.

Note the CI container may have a single core (``os.cpu_count() == 1``):
nothing here asserts a measured parallel speedup, only correctness and
accounting, so the matrix is meaningful on any machine.
"""

import contextlib
import os
import pickle
import signal
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentExecutor,
    FragmentTask,
    FragmentTaskResult,
    clear_installed_potentials,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.core.patching import PATCH_CHUNK_SIZE, patch_fragment_fields
from repro.core.scf import LS3DFSCF
from repro.parallel.distributed import GlobalStepTask
from repro.parallel.executor import (
    NoRemoteWorkersError,
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
)
from repro.parallel.remote import RemoteExecutor
from repro.pw.grid import FFTGrid
from repro.pw.pseudopotential import default_pseudopotentials


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


def _tiny_scf(executor=None) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


# --- task / kernel ----------------------------------------------------------------

def test_fragment_task_pickle_roundtrip():
    task = _make_task()
    task.initial_coefficients = np.zeros((3, 5), dtype=complex)
    clone = pickle.loads(pickle.dumps(task))
    assert clone.label == task.label
    assert clone.static_fingerprint() == task.static_fingerprint()
    assert np.array_equal(clone.positions, task.positions)
    assert np.array_equal(clone.screening_potential, task.screening_potential)
    assert np.array_equal(clone.initial_coefficients, task.initial_coefficients)


def test_fingerprint_ignores_iteration_state_but_not_geometry():
    a, b = _make_task(), _make_task()
    b.screening_potential = np.ones(b.grid_shape)
    b.tolerance = 1e-9
    b.initial_coefficients = np.zeros((2, 2), dtype=complex)
    assert a.static_fingerprint() == b.static_fingerprint()
    c = _make_task()
    c.positions = c.positions + 0.1
    assert c.static_fingerprint() != a.static_fingerprint()


def test_fingerprint_hashes_the_pseudopotential_parameters():
    # Two independently built default sets are one key (no object identity
    # or pickle layout in it); one changed parameter is another key.
    a, b = _make_task(), _make_task()
    a.pseudopotentials, b.pseudopotentials = default_pseudopotentials(), default_pseudopotentials()
    assert a.pseudopotentials.fingerprint == b.pseudopotentials.fingerprint
    assert a.static_fingerprint() == b.static_fingerprint()
    zn = b.pseudopotentials["Zn"]
    b.pseudopotentials = b.pseudopotentials.with_override({"Zn": replace(zn, v0=zn.v0 + 1e-12)})
    assert b.static_fingerprint() != a.static_fingerprint()


def test_thread_backend_same_fingerprint_tasks_do_not_race():
    # Two tasks sharing one static fingerprint (same label + geometry) but
    # different potentials share one cached Hamiltonian; the per-problem
    # lock must serialise them when two loopback worker threads of this
    # process run them at once.
    task_a = _make_task("same")
    task_b = _make_task("same")
    task_b.screening_potential = np.full(task_b.grid_shape, 0.05)
    assert task_a.static_fingerprint() == task_b.static_fingerprint()
    ref_a = solve_fragment_task(task_a)
    ref_b = solve_fragment_task(task_b)
    assert not np.allclose(ref_a.eigenvalues, ref_b.eigenvalues)
    for _ in range(3):  # a few rounds to give a race a chance to show
        with remote_executor(2) as executor:
            report = executor.run([task_a, task_b])
        np.testing.assert_allclose(report.results[0].eigenvalues, ref_a.eigenvalues, rtol=1e-10)
        np.testing.assert_allclose(report.results[1].eigenvalues, ref_b.eigenvalues, rtol=1e-10)


def test_executors_satisfy_protocol():
    for executor in (
        SerialFragmentExecutor(),
        ProcessPoolFragmentExecutor(n_workers=1),
        RemoteExecutor([]),
    ):
        assert isinstance(executor, FragmentExecutor)


def test_worker_count_validation():
    assert ProcessPoolFragmentExecutor(n_workers=3).n_workers == 3
    assert ProcessPoolFragmentExecutor(3).n_workers == 3  # positional
    with pytest.raises(ValueError):
        ProcessPoolFragmentExecutor(n_workers=0)
    with pytest.raises(ValueError):
        ProcessPoolFragmentExecutor(n_workers=-1)


def test_pool_report_carries_lpt_schedule():
    # Mixed fragment classes: costs (grid volumes) differ, LPT must
    # balance the groups.
    tasks = [_make_task(f"f{i}") for i in range(6)]
    for t, n in zip(tasks, (16, 10, 10, 16, 12, 14)):
        t.grid_shape = (n, 10, 10)
        t.screening_potential = np.zeros(t.grid_shape)
    with remote_executor(2) as executor:
        report = executor.run(tasks)
    assert report.schedule is not None
    assigned = sorted(i for group in report.schedule.assignments for i in group)
    assert assigned == list(range(len(tasks)))
    assert report.schedule.imbalance < 1.5
    assert len(report.results) == len(tasks)


def test_failed_batch_raises_and_leaves_nothing_queued(monkeypatch):
    """A kernel error surfaces from ``run_*`` and the batch's tasks that no
    worker had started are dropped, so they cannot delay the next batch."""
    import repro.parallel.executor as executor_module
    from repro.parallel.remote import RemoteTaskError

    release = threading.Event()
    ran = []

    def kernel(task):
        ran.append(task.label)
        if task.label == "bad":
            raise ValueError("boom")
        release.wait(30)
        return task.label

    def task(label, size):
        return GlobalStepTask(
            kind="xc", shard=0, nshards=1, data=np.zeros(size), label=label
        )

    # Heaviest-first submission: "bad" reaches a worker first and fails at
    # once, the two workers then block inside slow0/slow1 at most.
    batch = [task("bad", 9)] + [task(f"slow{i}", 8 - i) for i in range(6)]
    with monkeypatch.context() as patch, remote_executor(2) as executor:
        patch.setitem(executor_module._KERNELS, "global", kernel)
        with pytest.raises(RemoteTaskError, match="boom"):
            executor.run_global(batch)
        release.set()
        # The work queue is FIFO: anything the failed batch left behind
        # would run before this batch completes.
        report = executor.run_global([task("next0", 2), task("next1", 1)])
    assert report.results == ["next0", "next1"]
    assert len([label for label in ran if label.startswith("slow")]) <= 2
    # Serially the failing task stops the batch by itself.
    monkeypatch.setattr(executor_module, "run_global_step_task", kernel)
    with pytest.raises(ValueError, match="boom"):
        SerialFragmentExecutor().run_global(batch[:2])


def _listening_sockets(pid: int) -> set[str]:
    """Inodes of the TCP sockets process ``pid`` holds in the LISTEN state."""
    listening = {
        line.split()[9]
        for table in ("tcp", "tcp6")
        for line in Path(f"/proc/{pid}/net/{table}").read_text().splitlines()[1:]
        if line.split()[3] == "0A"
    }
    held = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        with contextlib.suppress(OSError):  # an fd closed while listing
            held.add(os.readlink(fd))
    return {inode for inode in listening if f"socket:[{inode}]" in held}


@pytest.mark.skipif(not Path("/proc/self/net/tcp").exists(), reason="reads Linux /proc")
def test_a_pool_worker_killed_mid_batch_requeues_its_task():
    """SIGKILL one of two pool workers while a pipeline batch is in flight:
    its task is requeued on the survivor and the results are the serial
    ones; with both dead the next batch raises the typed error, no hang.
    Pool workers reach the driver through a socketpair and hold no
    listening socket of their own."""
    scf = _tiny_scf()
    v_in = scf.genpot.initial_potential()
    tasks = [
        scf.fragment_solver.make_pipeline_task(
            f, v_in, eigensolver_tolerance=1e-4, eigensolver_iterations=40)
        for f in scf.fragments[:4]
    ]
    reference = [run_fragment_pipeline_task(t) for t in tasks]
    with ProcessPoolFragmentExecutor(2) as executor:
        executor.install_state("boot", np.zeros(1))  # forks the workers
        victim, survivor = executor._pids
        for pid in (victim, survivor):
            assert _listening_sockets(pid) <= _listening_sockets(os.getpid())
        futures = executor.submit_pipeline_batch(tasks)
        os.kill(victim, signal.SIGKILL)
        results = [f.result(timeout=120) for f in futures]
        for got, want in zip(results, reference, strict=True):
            np.testing.assert_array_equal(got.contribution, want.contribution)
            np.testing.assert_array_equal(got.density, want.density)
        assert {r.worker_pid for r in results} == {survivor}
        assert executor.workers_lost == 1
        assert executor.resubmissions >= 1
        os.kill(survivor, signal.SIGKILL)
        with pytest.raises(NoRemoteWorkersError):
            executor.submit_pipeline_batch(tasks[:2])[0].result(timeout=120)
        assert executor.workers_lost == 2
    clear_installed_potentials()


# --- SCF equivalence beyond one Gen_dens reduce chunk ------------------------------
#
# Ten fragments are two chunks of the tree-reduce (PATCH_CHUNK_SIZE = 8), the
# regime where the summation tree differs from plain sequential summation and
# backend equivalence is no longer implied by the single-chunk tiny system.

def _ten_fragment_scf(executor=None, **kwargs) -> LS3DFSCF:
    structure = cscl_binary((5, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(5, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kwargs,
    )


_TEN_RUN_KW = dict(_RUN_KW, max_iterations=2)


def _assert_scf_identical(result, reference):
    assert result.iterations == reference.iterations
    np.testing.assert_array_equal(result.density, reference.density)
    np.testing.assert_array_equal(result.potential, reference.potential)
    assert result.energy_history == reference.energy_history
    assert result.quantum_energy == reference.quantum_energy
    assert result.convergence_history == reference.convergence_history


@pytest.fixture(scope="module")
def ten_fragment_serial():
    scf = _ten_fragment_scf()
    assert PATCH_CHUNK_SIZE < scf.nfragments <= 2 * PATCH_CHUNK_SIZE
    result = scf.run(**_TEN_RUN_KW)
    # The chunked tree sum is really exercised: on these fragment
    # densities it rounds differently from sequential summation.
    densities = [res.density for res in result.fragment_results]
    sequential = patch_fragment_fields(scf.division, scf.fragments, densities)
    chunked = patch_fragment_fields(
        scf.division, scf.fragments, densities, chunk_size=PATCH_CHUNK_SIZE)
    assert not np.array_equal(chunked, sequential)
    return result


def test_scf_process_pool_matches_serial(ten_fragment_serial):
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        pooled = _ten_fragment_scf(executor).run(**_TEN_RUN_KW)
    _assert_scf_identical(pooled, ten_fragment_serial)


def test_scf_remote_workers_match_serial(ten_fragment_serial):
    with remote_executor(2) as executor:
        remote = _ten_fragment_scf(executor).run(**_TEN_RUN_KW)
    _assert_scf_identical(remote, ten_fragment_serial)


def test_scf_band_groups_match_serial():
    """Band groups slice a fragment only when the workers outnumber the
    fragments (ten fragments would need eleven workers), so this runs a
    one-fragment 1×1×1 division on two loopback workers."""
    def one_fragment_scf(executor=None, **kwargs):
        return LS3DFSCF(
            cscl_binary((1, 1, 1), "Zn", "O", 6.0), grid_dims=(1, 1, 1), ecut=2.2,
            buffer_cells=0.5, n_empty=2, mixer="kerker", executor=executor, **kwargs)

    serial = one_fragment_scf().run(**_TEN_RUN_KW)
    with remote_executor(2) as executor:
        grouped = one_fragment_scf(executor, band_groups=2).run(**_TEN_RUN_KW)
    _assert_scf_identical(grouped, serial)
    assert all(t.band_sliced for t in grouped.timings)


# --- warm starts ------------------------------------------------------------------

class _RecordingExecutor(SerialFragmentExecutor):
    """Serial backend that records every fused task batch it executes."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def submit_pipeline_batch(self, tasks):
        self.batches.append(list(tasks))
        return super().submit_pipeline_batch(tasks)


def test_warm_start_cache_reused_across_outer_iterations():
    recorder = _RecordingExecutor()
    scf = _tiny_scf(executor=recorder)
    result = scf.run(max_iterations=2, potential_tolerance=1e-9,
                     eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    assert result.iterations == 2
    assert len(recorder.batches) == 2
    first, second = recorder.batches
    # Iteration 1 starts cold, iteration 2 warm-starts from the cache.
    assert all(t.task.initial_coefficients is None for t in first)
    assert all(t.task.initial_coefficients is not None for t in second)
    assert len(scf.state_cache) == scf.nfragments
    for frag in scf.fragments:
        assert frag.label in scf.state_cache
    # The cache holds the records' own coefficient arrays, not copies.
    for res in result.fragment_results:
        assert scf.state_cache[res.label] is res.coefficients
    # Warm starts make the second iteration no more expensive than the first
    # (the paper's "second iteration is cheap" property).
    assert result.timings[0].petot_f_fragments
    assert result.timings[1].petot_f_cpu <= result.timings[0].petot_f_cpu * 1.5


# --- the fused fragment task ------------------------------------------------------

def _pipeline_task(scf: LS3DFSCF, fragment_index=0):
    v_in = scf.genpot.initial_potential()
    return scf.fragment_solver.make_pipeline_task(
        scf.fragments[fragment_index], v_in,
        eigensolver_tolerance=1e-4, eigensolver_iterations=40,
    )


def test_pipeline_task_pickle_roundtrip_and_cost():
    scf = _tiny_scf()
    ptask = _pipeline_task(scf)
    clone = pickle.loads(pickle.dumps(ptask))
    assert clone.label == ptask.label == scf.fragments[0].label
    assert clone.cost() == ptask.cost() == ptask.task.cost()
    assert np.array_equal(clone.global_potential, ptask.global_potential)
    for got, ref in zip(clone.box_indices, ptask.box_indices):
        assert np.array_equal(got, ref)
    assert clone.interior_slice == ptask.interior_slice
    assert np.array_equal(clone.passivation_potential, ptask.passivation_potential)
    # The inner solve task ships without a screening potential: the worker
    # assembles it from the global potential and the index maps.
    assert clone.task.screening_potential is None


def test_pipeline_kernel_matches_unfused_steps():
    """restrict -> solve -> weighted-interior, fused == step by step (the
    plain kernels are the reference the fused task is checked against)."""
    from repro.core.patching import restrict_to_fragment

    scf = _tiny_scf()
    fragment = scf.fragments[0]
    v_in = scf.genpot.initial_potential()
    pres: FragmentTaskResult = run_fragment_pipeline_task(
        _pipeline_task(scf))
    # Unfused reference: driver-side Gen_VF then the plain solve kernel.
    restricted = restrict_to_fragment(scf.division, fragment, v_in)
    task = scf.fragment_solver.make_task(
        fragment, restricted, eigensolver_tolerance=1e-4,
        eigensolver_iterations=40)
    ref = solve_fragment_task(task)
    np.testing.assert_array_equal(pres.density, ref.density)
    np.testing.assert_array_equal(pres.eigenvalues, ref.eigenvalues)
    assert pres.quantum_energy == ref.quantum_energy
    assert pres.weight == ref.weight == fragment.weight
    # The plain solve leaves the fused-step fields empty.
    assert ref.contribution is None
    assert ref.gen_vf_time == ref.gen_dens_time == 0.0
    # The contribution is the alpha-weighted region interior of the density.
    box = scf.division.fragment_box(fragment)
    expected = fragment.weight * np.real(ref.density[box.interior_slice])
    np.testing.assert_array_equal(pres.contribution, expected)
    assert pres.wall_time >= pres.gen_vf_time + pres.gen_dens_time


@pytest.fixture(scope="module")
def pipeline_matrix():
    """One SCF run per backend on the tiny reference system.

    Each entry is ``(result, tasks_submitted, nfragments)``; shared
    (module scope) because the three SCF runs dominate this file's cost.
    """
    runs = {}
    executor = SerialFragmentExecutor()
    scf = _tiny_scf(executor)
    runs["serial"] = (scf.run(**_RUN_KW), executor.tasks_submitted, scf.nfragments)
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        scf = _tiny_scf(executor)
        runs["processes"] = (scf.run(**_RUN_KW), executor.tasks_submitted, scf.nfragments)
    with remote_executor(2) as executor:
        scf = _tiny_scf(executor)
        runs["remote"] = (scf.run(**_RUN_KW), executor.tasks_submitted, scf.nfragments)
        assert executor.workers_lost == 0 and executor.degraded_tasks == 0
    return runs


def test_pipeline_backend_equivalence_matrix(pipeline_matrix):
    """Serial, process and remote runs are bit-identical."""
    reference = pipeline_matrix["serial"][0]
    for name, (result, _, _) in pipeline_matrix.items():
        assert result.iterations == reference.iterations, name
        # Bit-identical across backends: same tasks, same deterministic
        # chunked tree-reduce, no summation-order freedom left.
        np.testing.assert_array_equal(
            result.density, reference.density, err_msg=f"density ({name})")
        np.testing.assert_array_equal(
            result.potential, reference.potential, err_msg=f"potential ({name})")
        assert result.total_energy == reference.total_energy, name
        assert result.quantum_energy == reference.quantum_energy, name
        assert result.convergence_history == reference.convergence_history, name


def test_pipeline_one_submission_per_fragment_per_iteration(pipeline_matrix):
    """Acceptance criterion: an iteration issues exactly one executor
    submission per fragment — on the process pool and on every other
    backend."""
    for name, (result, submitted, nfragments) in pipeline_matrix.items():
        assert result.iterations == 3, name
        assert submitted == nfragments * result.iterations, name


def test_pipeline_requires_capable_executor():
    class RunOnly:
        n_workers = 1

        def run(self, tasks):  # pragma: no cover - never called
            raise AssertionError

    assert not isinstance(RunOnly(), FragmentExecutor)
    with pytest.raises(TypeError, match="submit_pipeline_batch"):
        _tiny_scf(RunOnly())


def test_pipeline_timings_record_in_worker_steps(pipeline_matrix):
    result, _, nfragments = pipeline_matrix["serial"]
    for t in result.timings:
        assert len(t.gen_vf_fragments) == nfragments
        assert len(t.gen_dens_fragments) == nfragments
        assert len(t.petot_f_fragments) == nfragments
        # The fused per-fragment wall time contains its restrict and patch.
        for w, vf, dens in zip(t.petot_f_fragments, t.gen_vf_fragments,
                               t.gen_dens_fragments):
            assert w >= vf + dens
        assert 0.0 <= t.measured_serial_fraction < 1.0
        assert t.serial_time == t.gen_vf + t.gen_dens + t.genpot
        # Real restriction work happened inside the fragment tasks, and
        # the serial backend's solve-at-submit counts as waiting, not as
        # reduce work.
        assert sum(t.gen_vf_fragments) > 0
        assert t.overlap_wait >= t.petot_f_cpu
        assert t.petot_f == pytest.approx(t.overlap_wait + t.overlap_busy)
    # Coarse guard on the warm driver residue (task building + result
    # adoption, sub-millisecond here): catches only a per-fragment array
    # loop creeping back onto the driver, not scheduler noise.
    warm = result.timings[-1]
    assert warm.gen_vf + warm.gen_dens < 0.05


def test_pipeline_warm_starts_across_iterations():
    executor = SerialFragmentExecutor()
    scf = _tiny_scf(executor)
    result = scf.run(max_iterations=2, potential_tolerance=1e-9,
                     eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    assert result.iterations == 2
    assert len(scf.state_cache) == scf.nfragments
    assert executor.tasks_submitted == scf.nfragments * 2
    # Warm starts keep the second iteration from costing more than the first.
    assert result.timings[1].petot_f_cpu <= result.timings[0].petot_f_cpu * 1.5


def test_warm_iterations_skip_redundant_gen_vf_passivation_work(monkeypatch):
    """Regression (ISSUE-2 fix): the fixed passivation potential Delta V_F
    is built once per passivated fragment, not rebuilt by Gen_VF every
    iteration — the per-run Hartree-solve count is iteration-independent."""
    import repro.core.fragment_solver as fragment_solver_module

    calls = {"n": 0}
    real_hartree = fragment_solver_module.hartree_potential

    def counting_hartree(*args, **kwargs):
        calls["n"] += 1
        return real_hartree(*args, **kwargs)

    monkeypatch.setattr(
        fragment_solver_module, "hartree_potential", counting_hartree)

    scf = _tiny_scf()
    scf.run(max_iterations=1, potential_tolerance=1e-9,
            eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    calls_one_iteration = calls["n"]
    # Not every fragment needs passivants (fragments spanning a full
    # periodic axis have no cut bonds), but some must.
    assert 0 < calls_one_iteration <= scf.nfragments

    calls["n"] = 0
    result = scf = None  # noqa: F841 - drop, then rerun from scratch
    scf = _tiny_scf()
    result = scf.run(**_RUN_KW)
    assert result.iterations == 3
    # One Hartree solve per passivated fragment for the whole run; warm
    # iterations reuse the cached array instead of redoing Gen_VF setup.
    assert calls["n"] == calls_one_iteration


def test_timings_record_per_fragment_wall_times():
    scf = _tiny_scf()
    result = scf.run(max_iterations=1, potential_tolerance=1e-9,
                     eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    t = result.timings[0]
    assert len(t.petot_f_fragments) == scf.nfragments
    assert all(w > 0 for w in t.petot_f_fragments)
    assert t.petot_f_cpu <= t.petot_f * 1.05  # serial: summed ~<= wall
    assert t.petot_f_workers == 1
    assert t.petot_f_speedup > 0
