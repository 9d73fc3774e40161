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
  the dead group's work on resume.
"""

import numpy as np
import pytest

from repro.atoms.toy import cscl_binary
from repro.core.scf import LS3DFSCF
from repro.io.checkpoint import load_partial_payloads
from repro.parallel.executor import (
    SerialFragmentExecutor,
    ThreadPoolFragmentExecutor,
)
from repro.parallel.faults import FlakyExecutor
from repro.parallel.groups import partition_worker_counts
from repro.parallel.remote import RemoteExecutor, RemoteExecutorConfig, start_worker_thread
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
    pool = ThreadPoolFragmentExecutor(4)
    try:
        children = pool.partition(2)
        assert len(children) == 2
        assert [c.n_workers for c in children] == [2, 2]
        assert pool.partition(2) is children  # cached, not rebuilt
        assert pool.partition(3) is not children
        assert [c.n_workers for c in pool.partition(3)] == [2, 1, 1]
    finally:
        pool.close()


def test_partition_child_counters_accumulate_to_parent():
    from repro.core.fragment_task import potential_fingerprint

    pool = ThreadPoolFragmentExecutor(2)
    try:
        a, b = pool.partition(2)
        scf = _tiny_scf()
        v = scf.genpot.initial_potential()
        tasks = [
            scf.fragment_solver.make_pipeline_task(
                f, v, eigensolver_tolerance=1e-4, eigensolver_iterations=40)
            for f in scf.fragments[:2]
        ]
        a.run_pipeline(tasks[:1])
        b.run_pipeline(tasks[1:])
        # Submissions land on the shared parent counters: the groups are
        # sub-pools of one pool, not independent executors.
        assert pool.tasks_submitted == 2
        assert pool.pool_submissions == 2
        key = potential_fingerprint(v)
        try:
            a.install_state(key, v)
            b.install_state(key, v)
            # Thread workers share the process store: installs are local,
            # never broadcast, and the second one is a dedup no-op.
            assert pool.install_broadcasts == 0
            from repro.core.fragment_task import fetch_potential

            np.testing.assert_array_equal(fetch_potential(key), v)
        finally:
            from repro.core.fragment_task import clear_installed_potentials

            clear_installed_potentials()
    finally:
        pool.close()


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
    pool = ThreadPoolFragmentExecutor(4)
    try:
        scf = _tiny_scf(pool, band_groups=2)
        result = scf.run(**_RUN_KW)
        stats = dict(tasks=pool.tasks_submitted, nfragments=scf.nfragments)
    finally:
        pool.close()
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
    pool = ThreadPoolFragmentExecutor(4)
    try:
        result = _tiny_scf(_Unpartitionable(pool), band_groups=2).run(**_RUN_KW)
    finally:
        pool.close()
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


def test_remote_partition_children_run_groups_concurrently(pipeline_reference):
    servers = [start_worker_thread() for _ in range(4)]
    config = RemoteExecutorConfig(
        connect_timeout=2.0, request_timeout=60.0, heartbeat_interval=1e9,
        max_retries=1, backoff=0.01)
    try:
        with RemoteExecutor([s.address for s in servers], config=config) as ex:
            children = ex.partition(2)
            assert len(children) == 2
            assert [c.n_workers for c in children] == [2, 2]
            assert ex.partition(2) is children
            scf = _tiny_scf(ex, band_groups=2)
            result = scf.run(**_RUN_KW)
            assert ex.workers_lost == 0 and ex.degraded_tasks == 0
            assert ex.tasks_submitted == sum(
                t.band_stages for t in result.timings) * 2
    finally:
        for server in servers:
            server.stop()
    _assert_scf_identical(result, pipeline_reference)
    assert any(t.band_schedule.concurrent for t in result.timings)


# --- fault injection: losing one group mid-iteration ------------------------------

def test_flaky_executor_kills_at_scheduled_batches():
    from repro.parallel.remote import WorkerDiedError

    inner = SerialFragmentExecutor()
    flaky = FlakyExecutor(inner, kill_at=(1,))
    assert flaky.n_workers == inner.n_workers  # delegation
    flaky.run_pipeline([])  # batch 0: survives
    with pytest.raises(WorkerDiedError, match="injected fault"):
        flaky.run_pipeline([])  # batch 1: dies
    flaky.run_pipeline([])  # batch 2: healed


def test_flaky_executor_partition_wraps_only_the_doomed_group():
    from repro.parallel.remote import WorkerDiedError

    pool = ThreadPoolFragmentExecutor(4)
    try:
        flaky = FlakyExecutor(pool, kill_at=(0,), kill_group=1)
        children = flaky.partition(2)
        assert flaky.partition(2) is children  # cached: ticks accumulate
        children[0].run_pipeline([])  # healthy group never faults
        with pytest.raises(WorkerDiedError):
            children[1].run_pipeline([])
    finally:
        pool.close()


def test_killed_group_heals_from_partial_checkpoint(tmp_path, pipeline_reference):
    """Kill group 1 on its first batch of iteration 1: group 0's solved
    fragments persist as partials, and resuming with a healthy pool
    replays exactly the dead group's lost fragments — not the whole
    iteration."""
    import hashlib

    from repro.parallel.remote import WorkerDiedError

    pool = ThreadPoolFragmentExecutor(4)
    try:
        flaky = FlakyExecutor(pool, kill_at=(0,), kill_group=1)
        scf = _tiny_scf(flaky, band_groups=2)
        with pytest.raises(WorkerDiedError, match="injected fault"):
            scf.run(checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
        # The grouped path salts its partials with the solve inputs.
        fp = hashlib.sha256()
        fp.update(np.ascontiguousarray(scf.genpot.initial_potential()).tobytes())
        fp.update(np.float64(_RUN_KW["eigensolver_tolerance"]).tobytes())
        fp.update(np.int64(_RUN_KW["eigensolver_iterations"]).tobytes())
        saved = load_partial_payloads(
            tmp_path, 1, scf._problem_signature(),
            state_fingerprint=fp.hexdigest())
        # Only the surviving group's fragments made it to disk.
        assert 0 < len(saved) < scf.nfragments
    finally:
        pool.close()

    pool = ThreadPoolFragmentExecutor(4)
    try:
        resumed = _tiny_scf(pool, band_groups=2).run(
            checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
    finally:
        pool.close()
    # The replay healed exactly the dead group's fragments.
    assert resumed.timings[0].band_replayed == len(saved)
    _assert_scf_identical(resumed, pipeline_reference)
