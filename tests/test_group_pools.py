"""Band groups drain one fragment queue on the whole executor.

The band-grouped SCF iteration (``LS3DFSCF(band_groups=)``) is taken
only when the executor has more workers than the iteration has
fragments; otherwise whole fragments go out as without band groups.
It puts the fragments into one heaviest-first queue and drains it with
root threads on the one executor: ``min(GROUP_ROOTS * G, len(queue))``
of them, where ``G = max(1, n_workers // band_groups)`` is how many band
groups the workers hold at once.  These tests pin down:

* the rule: the benchmark's shape (four fragments on two workers) and
  four fragments on four workers send whole fragments, one fragment on
  two workers is band-sliced, both ``==`` serial;
* ``==`` against the serial pipeline reference on two, four and five
  workers on the process and loopback backends, with one submission per
  slice per stage;
* the root rule: peak concurrent ``run_bands`` callers equal the root
  count (one for one fragment, two for one band group, four for two
  groups on five workers), and the queue hands out the heaviest
  fragment first;
* the measured intra-group efficiency stays in (0, 1] when two groups'
  slices run side by side;
* fault recovery: a killed root closes the queue, its siblings finish
  the fragment they hold, and a resume from the end-of-iteration
  checkpoint is ``==`` the uninterrupted run;
* band groups bound to different fragments can share one worker.
"""

import sys
import threading

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.scf import GROUP_ROOTS, LS3DFSCF
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.faults import FlakyExecutor
from repro.parallel.remote import LocalWorkerPool, RemoteExecutor, WorkerDiedError


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
    potential_tolerance=1e-6,
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


def _assert_scf_identical(got, want):
    np.testing.assert_array_equal(got.density, want.density)
    np.testing.assert_array_equal(got.potential, want.potential)
    assert got.total_energy == want.total_energy
    assert got.quantum_energy == want.quantum_energy
    assert got.convergence_history == want.convergence_history
    assert got.energy_history == want.energy_history


ONE_FRAGMENT = (1, 1, 1)


def _executor(backend: str, workers: int):
    if backend == "loopback":
        return remote_executor(workers)
    return ProcessPoolFragmentExecutor(workers)


def _assert_band_sliced(result):
    assert all(t.band_sliced for t in result.timings)


@pytest.fixture(scope="module")
def pipeline_reference():
    """Serial, four fragments: band-sliced on five or more workers."""
    return _tiny_scf(SerialFragmentExecutor()).run(**_RUN_KW)


@pytest.fixture(scope="module")
def one_fragment_reference():
    """Serial, one fragment: band-sliced on two or more workers."""
    return _tiny_scf(SerialFragmentExecutor(), dims=ONE_FRAGMENT).run(**_RUN_KW)


def _five_workers(band_groups):
    """Four fragments on five loopback workers, counting the concurrent
    ``run_bands`` callers: ``(result, stats)``."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching often
    try:
        with remote_executor(5) as pool:
            counted = _CallerCount(pool)
            result = _tiny_scf(counted, band_groups=band_groups).run(**_RUN_KW)
            stats = dict(tasks=pool.tasks_submitted, lost=pool.workers_lost,
                         degraded=pool.degraded_tasks, peak=counted.peak)
    finally:
        sys.setswitchinterval(interval)
    return result, stats


@pytest.fixture(scope="module")
def five_workers():
    """``band_groups=2``: two groups' worth of workers (G = 2) and four
    roots on one queue."""
    return _five_workers(band_groups=2)


@pytest.fixture(scope="module")
def one_group_on_five_workers():
    """``band_groups=3``: one group (G = 1) and two roots on one queue."""
    return _five_workers(band_groups=3)


# --- the rule: band-slice only when workers outnumber fragments ------------------

@pytest.mark.parametrize("workers", [2, 4])
def test_as_many_fragments_as_workers_send_whole_fragments(workers, pipeline_reference):
    """Four fragments on two loopback workers with ``band_groups=2`` (the
    ``scf_remote_bands`` benchmark's shape), and on four: no iteration
    is band-sliced, each submits one whole-fragment task per fragment,
    and the run is ``==`` serial."""
    with remote_executor(workers) as executor:
        scf = _tiny_scf(executor, band_groups=2)
        result = scf.run(**_RUN_KW)
        assert executor.tasks_submitted == scf.nfragments * result.iterations
    _assert_scf_identical(result, pipeline_reference)
    assert all(t.band_sliced is False for t in result.timings)
    assert all(t.band_stages == 0 and t.band_tasks == [] for t in result.timings)


def test_fewer_fragments_than_workers_band_slice(one_fragment_reference):
    """One fragment on two loopback workers with ``band_groups=2`` is
    band-sliced on every iteration and ``==`` serial."""
    with remote_executor(2) as executor:
        result = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(**_RUN_KW)
        stages = sum(t.band_stages for t in result.timings)
        assert stages > 0 and executor.tasks_submitted == stages * 2
    _assert_scf_identical(result, one_fragment_reference)
    _assert_band_sliced(result)


# --- the one queue against the serial reference -----------------------------------

@pytest.mark.parametrize("backend,workers", [
    ("processes", 2), ("processes", 4), ("loopback", 2), ("loopback", 4)])
def test_one_queue_bit_identical(backend, workers, one_fragment_reference):
    """``==`` serial for one fragment on two and four workers (one band
    group on five workers and two groups on five have their own tests
    below), with one submission per slice per stage."""
    with _executor(backend, workers) as executor:
        result = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2).run(**_RUN_KW)
        _assert_scf_identical(result, one_fragment_reference)
        stages = sum(t.band_stages for t in result.timings)
        assert stages > 0 and executor.tasks_submitted == stages * 2
    _assert_band_sliced(result)
    assert all(t.band_group_count == max(1, workers // 2) for t in result.timings)


def test_one_queue_one_submission_per_slice(five_workers):
    result, stats = five_workers
    _assert_band_sliced(result)
    stages = sum(t.band_stages for t in result.timings)
    assert stages > 0
    # Every sliced stage scatters exactly band_groups=2 slice tasks, and
    # nothing else reaches the pool: one submission per slice per stage.
    assert stats["tasks"] == stages * 2
    assert stats["lost"] == stats["degraded"] == 0


def test_two_groups_efficiency_stays_at_most_one(five_workers, pipeline_reference):
    """Two groups' slices run side by side on five workers, so the band
    CPU is divided by ``band_slices * G`` = 4 slots, not by 2."""
    result, _ = five_workers
    _assert_scf_identical(result, pipeline_reference)
    _assert_band_sliced(result)
    for t in result.timings:
        assert t.band_group_count == 2
        assert 0.0 < t.measured_intra_group_efficiency <= 1.0


def test_serial_executor_runs_groups_sequentially(one_fragment_reference):
    """One fragment on two loopback workers (the serial executor has one
    worker, so it never band-slices): one band group, one root."""
    with remote_executor(2) as executor:
        scf = _tiny_scf(executor, dims=ONE_FRAGMENT, band_groups=2)
        result = scf.run(**_RUN_KW)
    _assert_scf_identical(result, one_fragment_reference)
    _assert_band_sliced(result)
    # Two workers hold one band group (G = 1) and it gets one root.
    assert all(t.band_group_count == 1 for t in result.timings)


class _FirstBatchOrder:
    """Executor wrapper recording each fragment's label and cost in the
    order its first band batch arrives."""

    def __init__(self, inner):
        self.inner = inner
        self.order: list[tuple[str, float]] = []

    def run_bands(self, tasks):
        template = tasks[0].template
        if template.label not in {label for label, _ in self.order}:
            self.order.append((template.label, template.cost()))
        return self.inner.run_bands(tasks)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_grouped_schedule_is_deterministic_lpt():
    """The queue is the LPT order ``submit_pipeline_batch`` gives a pool:
    ``np.argsort(costs)[::-1]``, heaviest fragment first.  Five workers
    and ``band_groups=3`` hold one group with two roots, and a root
    takes its next fragment only when it has solved the last, so
    fragments start in queue order — up to the two roots' race, which
    may swap the start of two fragments of equal cost."""
    with remote_executor(5) as executor:
        recorder = _FirstBatchOrder(executor)
        scf = _tiny_scf(recorder, band_groups=3)
        result = scf.run(**{**_RUN_KW, "max_iterations": 1})
    _assert_band_sliced(result)
    cost = dict(recorder.order)
    labels = [f.label for f in scf.fragments]
    assert sorted(cost) == sorted(labels)
    expected = [labels[i] for i in np.argsort([cost[x] for x in labels])[::-1]]
    assert [cost[label] for label, _ in recorder.order] == [cost[x] for x in expected]
    costs = [c for _, c in recorder.order]
    assert costs == sorted(costs, reverse=True) and costs[0] > costs[-1]


# --- fault injection -------------------------------------------------------------

def test_flaky_executor_kills_at_scheduled_batches():
    inner = SerialFragmentExecutor()
    flaky = FlakyExecutor(inner, kill_at=(1,))
    assert flaky.n_workers == inner.n_workers  # delegation
    flaky.run_pipeline([])  # batch 0: survives
    with pytest.raises(WorkerDiedError, match="injected fault"):
        flaky.run_pipeline([])  # batch 1: dies
    flaky.run_pipeline([])  # batch 2: healed


# --- group roots ------------------------------------------------------------------

class _CallerCount:
    """Executor wrapper recording how many threads are inside ``run_bands``
    at once."""

    def __init__(self, inner):
        self.inner = inner
        self.inside = 0
        self.peak = 0
        self._lock = threading.Lock()

    def run_bands(self, tasks):
        with self._lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            return self.inner.run_bands(tasks)
        finally:
            with self._lock:
                self.inside -= 1

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_two_roots_call_run_bands_concurrently(
        pipeline_reference, one_group_on_five_workers, five_workers):
    """The root rule ``min(GROUP_ROOTS * G, len(queue))`` on four
    fragments and five workers: two ``run_bands`` callers at once for
    ``band_groups=3`` (G = 1), four for ``band_groups=2`` (G = 2) —
    never more, and that many at least once."""
    assert GROUP_ROOTS == 2
    for (result, stats), band_groups, roots in (
            (one_group_on_five_workers, 3, 2), (five_workers, 2, 4)):
        # Every fragment was popped by exactly one root.
        _assert_scf_identical(result, pipeline_reference)
        _assert_band_sliced(result)
        assert stats["tasks"] == band_groups * sum(t.band_stages for t in result.timings)
        assert stats["peak"] == roots


def test_one_worker_keeps_one_root(one_fragment_reference):
    """One fragment gets one root, however many workers slice it (a
    one-worker executor never band-slices)."""
    with remote_executor(2) as executor:
        counted = _CallerCount(executor)
        result = _tiny_scf(counted, dims=ONE_FRAGMENT, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(result, one_fragment_reference)
    _assert_band_sliced(result)
    assert counted.peak == 1


def _assert_one_group_two_roots(result, executor, reference):
    _assert_scf_identical(result, reference)
    _assert_band_sliced(result)
    stages = sum(t.band_stages for t in result.timings)
    assert stages > 0 and executor.tasks_submitted == stages * 3
    assert all(t.band_group_count == 1 for t in result.timings)


@pytest.mark.parametrize("backend", ["processes", "loopback"])
def test_one_group_two_roots_bit_identical(backend, pipeline_reference):
    """``band_groups=3`` on five workers and four fragments — one group
    drained by two roots — is ``==`` serial on every backend, with one
    submission per slice per stage and nothing lost or degraded."""
    with _executor(backend, 5) as executor:
        result = _tiny_scf(executor, band_groups=3).run(**_RUN_KW)
        _assert_one_group_two_roots(result, executor, pipeline_reference)
        if backend == "loopback":
            assert executor.workers_lost == 0 and executor.degraded_tasks == 0
            assert executor.resubmissions == 0


@pytest.mark.remote
def test_one_group_two_roots_on_subprocess_workers(pipeline_reference):
    """Five real ``repro-worker`` processes, one group, two roots: ``==``
    the in-process serial run (the CI ``remote-smoke`` job)."""
    with LocalWorkerPool(5) as pool:
        with RemoteExecutor(pool.addresses) as executor:
            result = _tiny_scf(executor, band_groups=3).run(**_RUN_KW)
            _assert_one_group_two_roots(result, executor, pipeline_reference)
            assert executor.workers_lost == 0 and executor.degraded_tasks == 0


class _FlakyByFragment(FlakyExecutor):
    """:class:`FlakyExecutor` that remembers which fragments reached
    ``run_bands`` and which one the injected fault hit."""

    def __init__(self, inner, kill_at):
        super().__init__(inner, kill_at=kill_at)
        self.started: set[str] = set()
        self.killed: str | None = None

    def run_bands(self, tasks):
        label = tasks[0].template.label
        self.started.add(label)
        try:
            return super().run_bands(tasks)
        except WorkerDiedError:
            self.killed = label
            raise


def _kill_midway_and_resume(checkpoint_dir, band_groups, first_iteration_stages,
                            reference) -> _FlakyByFragment:
    """Kill one root halfway through iteration 1 on five loopback
    workers, then resume on a healthy pool: the resume is ``==`` the
    uninterrupted run and no per-fragment file was written."""
    with remote_executor(5) as pool:
        flaky = _FlakyByFragment(pool, kill_at=(first_iteration_stages // 2,))
        scf = _tiny_scf(flaky, band_groups=band_groups)
        with pytest.raises(WorkerDiedError, match="injected fault"):
            scf.run(checkpoint_dir=checkpoint_dir, resume=True, **_RUN_KW)
    assert flaky.killed is not None
    roots = min(GROUP_ROOTS * max(1, 5 // band_groups), scf.nfragments)
    if roots < scf.nfragments:
        # With fewer roots than fragments, the closed queue handed
        # out nothing more.
        assert len(flaky.started) < scf.nfragments

    with remote_executor(5) as pool:
        resumed = _tiny_scf(pool, band_groups=band_groups).run(
            checkpoint_dir=checkpoint_dir, resume=True, **_RUN_KW)
    _assert_scf_identical(resumed, reference)
    _assert_band_sliced(resumed)
    assert list(checkpoint_dir.glob("frag-*.npz")) == []
    return flaky


def test_killed_root_closes_queue_and_resume_matches(
        tmp_path, pipeline_reference, five_workers):
    """A root dying mid-queue closes the queue: nothing new is started,
    and the resume is ``==`` the uninterrupted run — two roots
    (``band_groups=3``) on five workers."""
    # Stage counts are deterministic: die halfway through iteration 1.
    first_iteration_stages = five_workers[0].timings[0].band_stages
    _kill_midway_and_resume(tmp_path, 3, first_iteration_stages, pipeline_reference)


def test_killed_group_resumes_from_the_checkpoint(
        tmp_path, pipeline_reference, five_workers):
    """Five workers hold two band groups' worth of roots (G = 2) on one
    queue.  Killing one root mid-iteration stops the drain with some
    fragments solved by the other roots, and resuming with a healthy pool
    re-solves the iteration to the same bits."""
    first_iteration_stages = five_workers[0].timings[0].band_stages
    flaky = _kill_midway_and_resume(
        tmp_path, 2, first_iteration_stages, pipeline_reference)
    assert len(flaky.started - {flaky.killed}) >= 1


def test_band_groups_of_two_fragments_share_one_worker():
    """Two :class:`BandGroup` handles, bound to fragments with different
    screening potentials on the *same* static problem, driven from two
    threads through one worker connection: every batch sets its own
    potential before applying H, so each thread gets its own fragment's
    rows of ``Hamiltonian.apply`` however the requests interleave."""
    from repro.core.fragment_task import FragmentTask, build_task_problem
    from repro.parallel.bands import BandGroup
    from repro.pw.grid import FFTGrid

    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    tasks = [
        FragmentTask(
            label=label, cell=tuple(structure.cell), grid_shape=grid.shape,
            symbols=structure.symbols, positions=structure.positions,
            screening_potential=np.full(grid.shape, screening),
            ecut=2.0, n_empty=1, tolerance=1e-5, max_iterations=40)
        for label, screening in (("a", 0.02), ("b", 0.35))
    ]
    # References on private Hamiltonians: the in-process worker shares
    # this process's problem cache, the references must not.
    blocks, references = [], []
    for seed, task in enumerate(tasks):
        problem = build_task_problem(task)
        problem.hamiltonian.set_effective_potential(task.screening_potential)
        x = problem.basis.random_coefficients(
            problem.nbands, np.random.default_rng(seed))
        blocks.append(x)
        references.append(problem.hamiltonian.apply(x))
    assert not np.array_equal(references[0], problem.hamiltonian.apply(blocks[0]))

    mismatches: list[str] = []
    with remote_executor(1) as executor:
        groups = [BandGroup(executor, 2).bind(task) for task in tasks]

        def drive(k):
            for _ in range(25):
                if not np.array_equal(groups[k].apply_h(blocks[k]), references[k]):
                    mismatches.append(tasks[k].label)

        threads = [threading.Thread(target=drive, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert executor.tasks_submitted == 2 * 25 * 2
    assert mismatches == []
