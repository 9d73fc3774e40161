"""One contract, three backends: what the shared dispatch engine owns.

``repro.parallel.executor._Backend`` writes the batch and future
methods, the submission counters, the driver-side install store with
its missed-install heal and ``close`` once; a backend adds ``_submit``
and ``_broadcast``.  Both multi-process backends run the one RPW1
engine, so they share one install and heal rule.  Every test
here runs unchanged over the serial, process-pool and loopback-remote
backends (remote workers are in-process threads speaking the full TCP
protocol), through public names only.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentTask,
    PotentialNotInstalledError,
    clear_installed_potentials,
    get_task_problem,
    solve_fragment_task,
)
from repro.core.scf import LS3DFSCF
from repro.parallel.bands import BandBlockTask, BandGroup, band_slices, run_band_block_task
from repro.parallel.distributed import GlobalStepTask, run_global_step_task
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.remote import RemoteTaskError
from repro.pw.grid import FFTGrid

BACKENDS = ["serial", "process", "remote"]
#: Backends whose workers live in other processes: one engine, so one
#: install dedup and one heal rule.
WORKERS = ["process", "remote"]


@contextlib.contextmanager
def _backend(name: str, workers: int = 2):
    if name == "serial":
        executor = SerialFragmentExecutor()
    elif name == "process":
        executor = ProcessPoolFragmentExecutor(workers)
    else:
        executor = remote_executor(workers)
    try:
        with executor as ex:
            yield ex
    finally:
        clear_installed_potentials()


def _forget(executor) -> None:
    """Worker amnesia: every worker loses what was installed (a restart).

    ``close`` drops every connection and what the driver knew each worker
    held — a pool forks fresh workers at its next batch, a remote worker
    is reconnected — and the cleared store is the one a fork copies and
    loopback workers share, while the executor keeps the payloads.
    """
    executor.close()
    clear_installed_potentials()


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


@pytest.fixture(scope="module")
def slice_tasks():
    """``(key, potential, keyed, inline)``: the two band slices of one
    H·psi stage, shipped by install key only (the template
    ``BandGroup.bind`` builds) and with the screening potential inline."""
    task = _fragment_task("sliced")
    v = np.asarray(task.screening_potential)
    try:
        template = BandGroup(SerialFragmentExecutor(), 2).bind(task).template
    finally:
        clear_installed_potentials()
    key = template.screening_key
    inline_template = dataclasses.replace(template, screening_potential=v, screening_key=None)
    x = get_task_problem(task).hamiltonian.basis.random_coefficients(4, np.random.default_rng(2))
    slices = band_slices(4, 2)
    keyed = [BandBlockTask(bands=s, template=template, block=x[s.lo : s.hi]) for s in slices]
    inline = [BandBlockTask(bands=s, template=inline_template, block=x[s.lo : s.hi]) for s in slices]
    return key, v, keyed, inline


@pytest.fixture(scope="module")
def keyed_pair(slice_tasks):
    """``(key, potential, [keyed task, inline task], reference results)``:
    two band slices of one stage, the first shipped by install key only."""
    key, v, keyed, inline = slice_tasks
    reference = [run_band_block_task(t) for t in inline]
    return key, v, [keyed[0], inline[1]], reference


@pytest.fixture(scope="module")
def busy_tasks():
    """Two fused pipeline tasks of one SCF, to keep both workers busy."""
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    scf = LS3DFSCF(
        structure, grid_dims=(2, 1, 1), ecut=2.2, buffer_cells=0.5,
        n_empty=2, mixer="kerker",
    )
    v_in = scf.genpot.initial_potential()
    return [
        scf.fragment_solver.make_pipeline_task(
            f, v_in, eigensolver_tolerance=1e-4, eigensolver_iterations=40)
        for f in scf.fragments[:2]
    ]


def _assert_slices_equal(got, want):
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g.data, w.data)


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
        assert (ex.tasks_submitted, ex.pool_submissions) == (5, 5)
        spread = name != "serial"
        assert report.worker_count == (2 if spread else 1)
        assert (report.schedule is not None) == spread

        report = ex.run(frags)
        assert [r.label for r in report.results] == [t.label for t in frags]
        for got, want in zip(report.results, frag_ref):
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(got.density, want.density)
            assert got.quantum_energy == want.quantum_energy
        assert (ex.tasks_submitted, ex.pool_submissions) == (8, 8)

        future = ex.submit_global(slabs[1])
        np.testing.assert_array_equal(future.result().data, slab_ref[1].data)
        assert future.done()
        assert (ex.tasks_submitted, ex.pool_submissions) == (9, 9)

        assert ex.run_global([]).results == []
        assert (ex.tasks_submitted, ex.pool_submissions) == (9, 9)
        assert ex.install_broadcasts == 0


@pytest.mark.parametrize("name", WORKERS)
def test_missed_install_heals_with_one_extra_submission(name, keyed_pair):
    """A worker that never saw an install raises; the task is resubmitted
    once with the driver's payload attached — same bits, exactly one
    extra physical submission — and the worker that healed keeps the
    payload, so the next install of the key reaches only the other one."""
    key, v, tasks, reference = keyed_pair
    with _backend(name) as ex:
        ex.install_state(key, v)
        ex.install_state(key, v)  # a known key is a no-op
        assert ex.install_broadcasts == 2
        _forget(ex)
        _assert_slices_equal(ex.run_bands(tasks).results, reference)
        assert ex.tasks_submitted == 2
        assert ex.pool_submissions == 3
        ex.install_state(key, v)
        assert ex.install_broadcasts == 3


@pytest.mark.parametrize("name", WORKERS)
def test_close_forgets_what_the_workers_hold(name, keyed_pair):
    """After ``close`` the driver cannot know a worker still holds a key —
    a pool forks new ones, a remote worker may have restarted — so the
    next install of it reaches every worker again."""
    key, v, _, _ = keyed_pair
    with _backend(name) as ex:
        ex.install_state(key, v)
        ex.close()
        ex.install_state(key, v)
        assert ex.install_broadcasts == 4


@pytest.mark.parametrize("name", WORKERS)
def test_an_install_reaches_every_busy_worker_exactly_once(name, slice_tasks, busy_tasks):
    """Both workers are mid-task when the install comes: each still gets
    it once, on its own connection after its current task, so the keyed
    batch behind it needs no heal."""
    key, v, keyed, inline = slice_tasks
    reference = [run_band_block_task(t) for t in inline]
    with _backend(name) as ex:
        busy = ex.submit_pipeline_batch(busy_tasks)
        ex.install_state(key, v)
        results = ex.run_bands(keyed).results
        for future in busy:
            future.result(timeout=120)
        assert ex.install_broadcasts == ex.n_workers == 2
        assert ex.pool_submissions == ex.tasks_submitted == len(busy_tasks) + len(keyed)
        _assert_slices_equal(results, reference)


@pytest.mark.parametrize("name", BACKENDS)
def test_miss_of_a_key_the_driver_does_not_hold_propagates(name, keyed_pair):
    """Nothing to attach: the typed miss surfaces and nothing is retried."""
    _, _, tasks, _ = keyed_pair
    clear_installed_potentials()
    with _backend(name) as ex:
        with pytest.raises((PotentialNotInstalledError, RemoteTaskError)) as err:
            ex.run_bands(tasks)
        assert "PotentialNotInstalledError" in (
            type(err.value).__name__, getattr(err.value, "error_type", "")
        )
        assert ex.tasks_submitted == 2
        assert ex.pool_submissions == 2
