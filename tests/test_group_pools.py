"""Concurrent band-group pools (ISSUE-7 satellite).

PR 5/6 *modelled* ``IterationTimings.band_schedule`` from per-slice
wall times; this PR makes it a measurement: ``executor.partition``
splits the worker pool into per-group sub-pools, the band-grouped SCF
iteration drives one group per thread, and
:class:`~repro.parallel.scheduler.GroupExecutionRecord` records what
actually overlapped.  These tests pin down:

* the worker-splitting arithmetic (:func:`partition_worker_counts`) and
  the partition-children contract (cached, counters accumulate to the
  parent pool);
* bit-identity of the concurrent path against the serial pipeline
  reference, plus one-submission-per-slice accounting per group;
* the measured record itself (``concurrent`` flag, per-group walls,
  ``concurrency_efficiency``) and its LPT-plan delegation;
* the inline path: an executor without ``partition`` (or with a single
  worker) drains the same group queues one after another,
  bit-identically;
* fault recovery: killing one group mid-iteration with the
  :class:`~repro.parallel.faults.FlakyExecutor` harness loses only that
  group's fragments — the PR 5 partial-checkpoint replay heals exactly
  the dead group's work on resume;
* two group roots per group (PR 19): at most
  :data:`~repro.core.scf.GROUP_ROOTS` ``run_bands`` callers per group at
  a time (one on a one-worker executor), ``==`` the serial reference on
  every backend, a killed root closes its group's queue without losing
  its sibling's fragment, and band groups bound to different fragments
  can share one worker.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.scf import GROUP_ROOTS, LS3DFSCF
from repro.io.checkpoint import load_partial_payloads
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.faults import FlakyExecutor
from repro.parallel.groups import partition_worker_counts
from repro.parallel.remote import LocalWorkerPool, RemoteExecutor, WorkerDiedError
from repro.parallel.scheduler import FragmentScheduler, GroupExecutionRecord


def _tiny_scf(executor=None, **kw) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
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


def _state_fingerprint(scf) -> str:
    """The solve-input digest the grouped path salts its partials with."""
    fp = hashlib.sha256()
    fp.update(np.ascontiguousarray(scf.genpot.initial_potential()).tobytes())
    fp.update(np.float64(_RUN_KW["eigensolver_tolerance"]).tobytes())
    fp.update(np.int64(_RUN_KW["eigensolver_iterations"]).tobytes())
    return fp.hexdigest()


def _assert_scf_identical(got, want):
    np.testing.assert_array_equal(got.density, want.density)
    np.testing.assert_array_equal(got.potential, want.potential)
    assert got.total_energy == want.total_energy
    assert got.quantum_energy == want.quantum_energy
    assert got.convergence_history == want.convergence_history
    assert got.energy_history == want.energy_history


# --- worker splitting -------------------------------------------------------------

def test_partition_worker_counts_block_distribution():
    assert partition_worker_counts(5, 2) == [3, 2]
    assert partition_worker_counts(4, 2) == [2, 2]
    assert partition_worker_counts(7, 3) == [3, 2, 2]
    # Groups never starve: fewer workers than groups still yields one each.
    assert partition_worker_counts(1, 3) == [1, 1, 1]
    assert partition_worker_counts(2, 4) == [1, 1, 1, 1]


def test_partition_worker_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_worker_counts(0, 2)
    with pytest.raises(ValueError):
        partition_worker_counts(4, 0)


def test_partition_children_are_cached_and_split_the_pool():
    with ProcessPoolFragmentExecutor(4) as pool:  # never forks: no batch runs
        children = pool.partition(2)
        assert len(children) == 2
        assert [c.n_workers for c in children] == [2, 2]
        assert pool.partition(2) is children  # cached, not rebuilt
        assert pool.partition(3) is not children
        assert [c.n_workers for c in pool.partition(3)] == [2, 1, 1]


def test_serial_executor_partition_shares_the_single_worker():
    serial = SerialFragmentExecutor()
    children = serial.partition(2)
    assert len(children) == 2
    assert all(c.n_workers == 1 for c in children)


class _CostedTask:
    def __init__(self, cost):
        self._cost = float(cost)

    def cost(self):
        return self._cost


def test_grouped_schedule_is_deterministic_lpt():
    tasks = [_CostedTask(c) for c in (5.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0)]
    scheduler = FragmentScheduler()
    plans = [
        scheduler.schedule_grouped(tasks, total_cores=4, cores_per_group=2)
        for _ in range(3)
    ]
    assert plans[0].cores_per_group == 2
    assert len(plans[0].assignments) == 2
    first = [tuple(g) for g in plans[0].assignments]
    assert all([tuple(g) for g in p.assignments] == first for p in plans[1:])


# --- the measured concurrent path -------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_reference():
    return _tiny_scf(SerialFragmentExecutor()).run(**_RUN_KW)


@pytest.fixture(scope="module")
def grouped_concurrent():
    with remote_executor(4) as pool:
        scf = _tiny_scf(pool, band_groups=2)
        result = scf.run(**_RUN_KW)
        stats = dict(tasks=pool.tasks_submitted, nfragments=scf.nfragments,
                     lost=pool.workers_lost, degraded=pool.degraded_tasks)
    return result, stats


def test_groups_on_subpools_bit_identical(pipeline_reference, grouped_concurrent):
    result, _ = grouped_concurrent
    _assert_scf_identical(result, pipeline_reference)


def test_band_schedule_is_a_measured_record(grouped_concurrent):
    result, _ = grouped_concurrent
    for t in result.timings:
        record = t.band_schedule
        assert isinstance(record, GroupExecutionRecord)
        assert record.concurrent  # groups genuinely overlapped
        assert len(record.group_walls) == 2
        assert all(w > 0.0 for w in record.group_walls)
        assert record.wall_time > 0.0
        # Measured quantities, not model outputs.
        assert record.measured_makespan == max(record.group_walls)
        assert record.measured_imbalance >= 1.0
        assert 0.0 < record.concurrency_efficiency <= 1.0
        # Plan delegation still exposes the LPT bookkeeping.
        assert record.cores_per_group == 2
        assert len(record.assignments) == 2
        assert 0.0 < record.intra_group_efficiency <= 1.0


def test_groups_on_subpools_one_submission_per_slice(grouped_concurrent):
    result, stats = grouped_concurrent
    stages = sum(t.band_stages for t in result.timings)
    assert stages > 0
    # Every sliced stage scatters exactly band_groups=2 slice tasks, and
    # nothing else reaches the pool: one submission per slice per stage.
    assert stats["tasks"] == stages * 2


class _Unpartitionable:
    """A 4-worker pool seen through an executor surface without ``partition``."""

    def __init__(self, pool):
        self.n_workers = pool.n_workers
        self.submit_pipeline_batch = pool.submit_pipeline_batch
        self.run_bands = pool.run_bands
        self.install_state = pool.install_state


def test_groups_run_inline_without_partition(grouped_concurrent):
    """More workers than ``band_groups`` but no ``partition``: the same
    per-group queue runner is called inline on the whole executor."""
    concurrent, _ = grouped_concurrent
    with remote_executor(4) as pool:
        result = _tiny_scf(_Unpartitionable(pool), band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(result, concurrent)
    for t in result.timings:
        assert t.band_schedule.concurrent is False
        assert len(t.band_schedule.group_walls) == 2
        assert all(w > 0.0 for w in t.band_schedule.group_walls)


def test_serial_executor_runs_groups_sequentially(pipeline_reference):
    scf = _tiny_scf(SerialFragmentExecutor(), band_groups=2)
    result = scf.run(**_RUN_KW)
    _assert_scf_identical(result, pipeline_reference)
    # One worker -> one effective group: the sequential path, still with
    # a real (non-concurrent) measured record.
    for t in result.timings:
        assert not t.band_schedule.concurrent
        assert t.band_schedule.wall_time > 0.0


def test_remote_partition_children_run_groups_concurrently(grouped_concurrent):
    """The shared four-worker run: children of the remote executor own two
    workers each, drain their groups concurrently, and nothing is lost."""
    with remote_executor(4) as ex:
        children = ex.partition(2)
        assert len(children) == 2
        assert [c.n_workers for c in children] == [2, 2]
        assert ex.partition(2) is children
    result, stats = grouped_concurrent
    assert stats["lost"] == stats["degraded"] == 0
    assert any(t.band_schedule.concurrent for t in result.timings)


# --- fault injection: losing one group mid-iteration ------------------------------

def test_flaky_executor_kills_at_scheduled_batches():
    inner = SerialFragmentExecutor()
    flaky = FlakyExecutor(inner, kill_at=(1,))
    assert flaky.n_workers == inner.n_workers  # delegation
    flaky.run_pipeline([])  # batch 0: survives
    with pytest.raises(WorkerDiedError, match="injected fault"):
        flaky.run_pipeline([])  # batch 1: dies
    flaky.run_pipeline([])  # batch 2: healed


def test_flaky_executor_partition_wraps_only_the_doomed_group():
    with ProcessPoolFragmentExecutor(4) as pool:  # empty batches never fork
        flaky = FlakyExecutor(pool, kill_at=(0,), kill_group=1)
        children = flaky.partition(2)
        assert flaky.partition(2) is children  # cached: ticks accumulate
        children[0].run_pipeline([])  # healthy group never faults
        with pytest.raises(WorkerDiedError):
            children[1].run_pipeline([])


def test_killed_group_heals_from_partial_checkpoint(tmp_path, pipeline_reference):
    """Kill group 1 on its first batch of iteration 1: group 0's solved
    fragments persist as partials, and resuming with a healthy pool
    replays exactly the dead group's lost fragments — not the whole
    iteration."""
    with remote_executor(4) as pool:
        flaky = FlakyExecutor(pool, kill_at=(0,), kill_group=1)
        scf = _tiny_scf(flaky, band_groups=2)
        with pytest.raises(WorkerDiedError, match="injected fault"):
            scf.run(checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
        saved = load_partial_payloads(
            tmp_path, 1, scf._problem_signature(),
            state_fingerprint=_state_fingerprint(scf))
        # Only the surviving group's fragments made it to disk.
        assert 0 < len(saved) < scf.nfragments

    with remote_executor(4) as pool:
        resumed = _tiny_scf(pool, band_groups=2).run(
            checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
    # The replay healed exactly the dead group's fragments.
    assert resumed.timings[0].band_replayed == len(saved)
    _assert_scf_identical(resumed, pipeline_reference)


# --- two group roots per worker group ---------------------------------------------

class _CallerCount:
    """Executor wrapper recording how many threads are inside ``run_bands``
    at once — per group: :meth:`partition` wraps each child separately."""

    def __init__(self, inner):
        self.inner = inner
        self.inside = 0
        self.peak = 0
        self.children: list["_CallerCount"] = []
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

    def partition(self, ngroups):
        if not self.children:
            self.children = [_CallerCount(c) for c in self.inner.partition(ngroups)]
        return self.children

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_two_roots_call_run_bands_concurrently(pipeline_reference):
    """With two workers or more a group's queue is drained by two roots:
    never more than two ``run_bands`` callers at once, and two at least
    once — on a single group and on each partitioned sub-pool."""
    assert GROUP_ROOTS == 2
    for workers, ngroups in ((2, 1), (4, 2)):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more threads than cores, switching often
        try:
            with remote_executor(workers) as pool:
                counted = _CallerCount(pool)
                result = _tiny_scf(counted, band_groups=2).run(**_RUN_KW)
        finally:
            sys.setswitchinterval(interval)
        # Every fragment was popped by exactly one root.
        _assert_scf_identical(result, pipeline_reference)
        assert pool.tasks_submitted == 2 * sum(t.band_stages for t in result.timings)
        groups = counted.children or [counted]
        assert len(groups) == ngroups
        assert [g.peak for g in groups] == [2] * ngroups
        for t in result.timings:
            assert t.band_schedule.group_roots == [2] * ngroups


def test_one_worker_keeps_one_root(pipeline_reference):
    """"Serial" stays on one core: a one-worker executor gets one root."""
    counted = _CallerCount(SerialFragmentExecutor())
    result = _tiny_scf(counted, band_groups=2).run(**_RUN_KW)
    _assert_scf_identical(result, pipeline_reference)
    assert counted.peak == 1
    assert all(t.band_schedule.group_roots == [1] for t in result.timings)


def _assert_one_group_two_roots(result, executor, reference):
    _assert_scf_identical(result, reference)
    stages = sum(t.band_stages for t in result.timings)
    assert stages > 0 and executor.tasks_submitted == stages * 2
    for t in result.timings:
        assert t.band_schedule.group_roots == [2]
        assert not t.band_schedule.concurrent


@pytest.mark.parametrize("backend", ["processes", "loopback"])
def test_one_group_two_roots_bit_identical(backend, pipeline_reference):
    """The benchmark's shape — ``band_groups=2`` on two workers, so one
    group drained by two roots — is ``==`` serial on every backend, with
    one submission per slice per stage and nothing lost or degraded."""
    if backend == "loopback":
        executor_cm = remote_executor(2)
    else:
        executor_cm = ProcessPoolFragmentExecutor(2)
    with executor_cm as executor:
        result = _tiny_scf(executor, band_groups=2).run(**_RUN_KW)
        _assert_one_group_two_roots(result, executor, pipeline_reference)
        if backend == "loopback":
            assert executor.workers_lost == 0 and executor.degraded_tasks == 0
            assert executor.resubmissions == 0


@pytest.mark.remote
def test_one_group_two_roots_on_subprocess_workers(pipeline_reference):
    """Two real ``repro-worker`` processes, one group, two roots: ``==``
    the in-process serial run (the CI ``remote-smoke`` job)."""
    with LocalWorkerPool(2) as pool:
        with RemoteExecutor(pool.addresses) as executor:
            result = _tiny_scf(executor, band_groups=2).run(**_RUN_KW)
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


def test_killed_root_closes_queue_and_sibling_persists(
        tmp_path, pipeline_reference, grouped_concurrent):
    """A root dying mid-queue closes its group's queue: the sibling root
    finishes and persists the fragment it holds, nothing new is started,
    and a resume replays exactly what was persisted."""
    # Stage counts are deterministic: die halfway through iteration 1.
    first_iteration_stages = grouped_concurrent[0].timings[0].band_stages
    with remote_executor(2) as pool:
        flaky = _FlakyByFragment(pool, kill_at=(first_iteration_stages // 2,))
        scf = _tiny_scf(flaky, band_groups=2)
        with pytest.raises(WorkerDiedError, match="injected fault"):
            scf.run(checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
        saved = load_partial_payloads(
            tmp_path, 1, scf._problem_signature(),
            state_fingerprint=_state_fingerprint(scf))
    # Every fragment a root had started — the sibling's in-flight one
    # included — was finished and persisted, except the one that died ...
    assert flaky.killed is not None
    assert set(saved) == flaky.started - {flaky.killed}
    assert len(saved) >= 1
    # ... and the closed queue handed out nothing more.
    assert len(flaky.started) < scf.nfragments

    with remote_executor(2) as pool:
        resumed = _tiny_scf(pool, band_groups=2).run(
            checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
    assert resumed.timings[0].band_replayed == len(saved)
    _assert_scf_identical(resumed, pipeline_reference)


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
