"""One contract, three backends: what the shared dispatch engine owns.

``repro.parallel.executor._Backend`` writes the batch and future
methods, the submission counters and ``close`` once; a backend adds
``_submit``.  Every test here runs unchanged over the serial,
process-pool and loopback-remote backends (remote workers are in-process
threads speaking the full TCP protocol), through public names only.
"""

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import FragmentTask, solve_fragment_task
from repro.parallel.distributed import GlobalStepTask, run_global_step_task
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor, WorkerDiedError
from repro.parallel.faults import FlakyExecutor
from repro.pw.grid import FFTGrid

BACKENDS = ["serial", "process", "remote"]


def _backend(name: str, workers: int = 2):
    if name == "serial":
        return SerialFragmentExecutor()
    if name == "process":
        return ProcessPoolFragmentExecutor(workers)
    return remote_executor(workers)


def _slab(label: str, size: int) -> GlobalStepTask:
    rng = np.random.default_rng(size)
    data = 0.1 + rng.random(size)
    return GlobalStepTask(kind="xc", shard=0, nshards=1, data=data, label=label)


def _fragment_task(label: str) -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, 0.02),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-4,
        max_iterations=40,
    )


@pytest.mark.parametrize("name", BACKENDS)
def test_results_come_back_in_task_order_and_every_task_is_counted_once(name):
    # Costs run against task order, so heaviest-first submission reorders.
    slabs = [_slab(f"s{i}", size) for i, size in enumerate([3, 11, 5, 2, 7])]
    slab_ref = [run_global_step_task(t) for t in slabs]
    frags = [_fragment_task(f"f{i}") for i in range(3)]
    frag_ref = [solve_fragment_task(t) for t in frags]
    with _backend(name) as ex:
        report = ex.run_global(slabs)
        assert [r.label for r in report.results] == [t.label for t in slabs]
        for got, want in zip(report.results, slab_ref):
            np.testing.assert_array_equal(got.data, want.data)
            np.testing.assert_array_equal(got.extra, want.extra)
        assert ex.tasks_submitted == 5 and not hasattr(ex, "pool_submissions")
        spread = name != "serial"
        assert report.worker_count == (2 if spread else 1)
        assert (report.schedule is not None) == spread

        report = ex.run(frags)
        assert [r.label for r in report.results] == [t.label for t in frags]
        for got, want in zip(report.results, frag_ref):
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(got.density, want.density)
            assert got.quantum_energy == want.quantum_energy
        assert ex.tasks_submitted == 8

        future = ex.submit_global(slabs[1])
        np.testing.assert_array_equal(future.result().data, slab_ref[1].data)
        assert future.done()
        assert ex.tasks_submitted == 9

        assert ex.run_global([]).results == []
        assert ex.tasks_submitted == 9


def test_a_pools_byte_counters_only_grow_across_close_and_re_fork():
    """``close()`` lets the workers go, not what they cost: the bytes of
    the closed connections stay counted, and a re-forked pool adds to them."""
    slabs = [_slab(f"s{i}", size) for i, size in enumerate([3, 11, 5])]
    with ProcessPoolFragmentExecutor(2) as ex:
        ex.run_global(slabs)
        sent, received = ex.bytes_sent, ex.bytes_received
        assert sent > 0 and received > 0
        ex.close()
        assert (ex.bytes_sent, ex.bytes_received) == (sent, received)
        ex.run_global(slabs[:2])  # re-forks the workers; a batch of one would run here
        assert ex.bytes_sent > sent and ex.bytes_received > received
        assert ex.tasks_submitted == 5


def test_flaky_executor_kills_at_scheduled_batches():
    inner = SerialFragmentExecutor()
    flaky = FlakyExecutor(inner, kill_at=(1,))
    assert flaky.n_workers == inner.n_workers  # delegation
    flaky.run_pipeline([])  # batch 0: survives
    with pytest.raises(WorkerDiedError, match="injected fault"):
        flaky.run_pipeline([])  # batch 1: dies
    flaky.run_pipeline([])  # batch 2: healed
