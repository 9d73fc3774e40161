"""The dispatch engine and its local backends: serial and processes.

The paper's parallelism comes from solving independent fragments on
independent processor groups; its driver scatters picklable work and
never cares where a task ran.  :class:`_Backend` is that driver, written
once.  It owns the whole public surface — the batch methods ``run`` /
``run_pipeline`` / ``run_global`` / ``run_bands`` (submit, then an
order-preserving :func:`gather_in_order`; one kernel each:
:func:`~repro.core.fragment_task.solve_fragment_task`,
:func:`~repro.core.fragment_task.run_fragment_pipeline_task`,
:func:`~repro.parallel.distributed.run_global_step_task`,
:func:`~repro.parallel.bands.run_band_block_task`), the future methods
``submit_global`` / ``submit_pipeline_batch`` for callers that consume
results as they resolve, ``install_state`` with its missed-install heal,
the submission counters and ``close`` — and asks a backend for two
things: ``_submit(task, kernel) -> future`` and, when its workers live
in other processes, ``_broadcast(key, arr)``.  One physical submission
is always one logical task, and there is no backend-specific solve
path.  Band groups (``LS3DFSCF(band_groups=)``) share one executor: its
workers run whichever fragment's slices are queued next.

* :class:`SerialFragmentExecutor` — an immediate ``_submit`` in the
  calling process; the default of :class:`repro.core.scf.LS3DFSCF`.
* :class:`ProcessPoolFragmentExecutor` — a *persistent* process pool;
  each worker keeps its static-problem cache alive across outer
  iterations (the paper's cheap second iteration holds in the workers).
* :class:`repro.parallel.remote.RemoteExecutor` — the same engine over
  socket-connected ``repro-worker`` daemons.

Batches go out heaviest-first, the greedy longest-processing-time (LPT)
heuristic :mod:`repro.parallel.scheduler` uses to balance fragment
classes whose costs differ by ~8x (1x1x1 vs 2x2x2 cells); the report
carries the scheduler's predicted assignment (not for ``run_bands``
batches, whose reports are read for their results only).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.fragment_task import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    PotentialNotInstalledError,
    install_potential,
    potential_fingerprint,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.bands import (
    BandBlockTask,
    BandGroupExecutor,
    run_band_block_task,
)
from repro.parallel.distributed import (
    GlobalStepExecutor,
    GlobalStepTask,
    run_global_step_task,
)
from repro.parallel.scheduler import FragmentScheduler, ScheduleSummary

__all__ = [
    "BandBlockTask",
    "BandGroupExecutor",
    "ExecutionReport",
    "FragmentExecutor",
    "FragmentPipelineTask",
    "FragmentScheduler",
    "FragmentTask",
    "FragmentTaskResult",
    "GlobalStepExecutor",
    "GlobalStepTask",
    "PotentialNotInstalledError",
    "ProcessPoolFragmentExecutor",
    "ScheduleSummary",
    "SerialFragmentExecutor",
    "gather_in_order",
    "install_potential",
    "potential_fingerprint",
    "run_band_block_task",
    "run_fragment_pipeline_task",
    "run_global_step_task",
    "solve_fragment_task",
]


class _ImmediateFuture:
    """A future that already completed: in-process backends run at submit.

    Every backend is driven through the same future surface; the serial
    executor (and single-worker pools) resolve each submission
    synchronously, so a stream of submissions degenerates to plain task
    order — which is what keeps them bit-identical to the pools.
    """

    def __init__(self, result=None, error: BaseException | None = None):
        self._result = result
        self._error = error

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result

    def add_done_callback(self, fn) -> None:
        fn(self)


class _HealingFuture:
    """Pool future that heals a missed potential install on resolve.

    A worker that never received an ``install_state`` broadcast raises
    :class:`PotentialNotInstalledError`; ``result()`` then resubmits the
    task once with the driver's payload attached (the backend's
    ``_heal``).  The key also leaves ``_broadcast_keys`` — that delivery
    did not happen, so the next ``install_state`` of it broadcasts again.
    """

    def __init__(self, executor, future, task, kernel):
        self._executor = executor
        self._future = future
        self._task = task
        self._kernel = kernel

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()

    def result(self, timeout=None):
        try:
            return self._future.result()
        except PotentialNotInstalledError as exc:
            executor = self._executor
            executor._broadcast_keys.discard(exc.key)
            healed = executor._heal(self._task, exc.key)
            if healed is None:
                raise
            return executor._submit(healed, self._kernel).result()

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _inner: fn(self))


def _immediate(task, kernel) -> _ImmediateFuture:
    try:
        return _ImmediateFuture(result=kernel(task))
    except Exception as exc:  # resolved, but carrying the kernel's error
        return _ImmediateFuture(error=exc)


def gather_in_order(futures: Sequence) -> list:
    """Resolve a batch's futures in task order (the ``run_*`` gather).

    When one of them raises, the batch's tasks that no worker has started
    yet are cancelled before the error propagates: a failed batch leaves
    nothing queued ahead of the next one.
    """
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        raise


class _Backend:
    """The dispatch engine every executor backend runs on.

    A backend provides ``n_workers``, :meth:`_submit` (hand one task and
    its kernel to a worker, return a future) and, when its workers live
    in other processes, :meth:`_broadcast`.  Everything the backends
    share is written here, once: the batch and future methods, the
    counters, the driver-side install store with its missed-install heal
    and the context manager.

    ``tasks_submitted`` counts every *logical* task ever handed to the
    executor — what the tests use to assert "exactly one submission per
    fragment (or slab, or band slice) per iteration".
    ``pool_submissions`` counts physical kernel invocations: one per
    logical task, plus one per healed install miss.
    ``install_broadcasts`` counts install-channel deliveries to workers
    (never pool submissions).
    """

    _INSTALL_PAYLOAD_MAX = 64
    # A batch of one has no round trip to win anything from and runs in
    # the calling process — unless the workers are the only compute nodes.
    _driver_computes = True
    # Tasks re-dispatched after a worker death (remote workers only).
    resubmissions = 0

    def __init__(self) -> None:
        self.tasks_submitted = 0
        self.pool_submissions = 0
        self.install_broadcasts = 0
        self._mutex = threading.Lock()
        # Driver-side copies of installed potentials, for the retry when
        # a worker misses a broadcast (LRU-bounded).
        self._install_payloads: OrderedDict[str, np.ndarray] = OrderedDict()
        self._scheduler = FragmentScheduler()

    # -- what a backend provides ---------------------------------------
    def _submit(self, task, kernel):
        """Hand one task to a worker; the only way a task leaves the driver."""
        raise NotImplementedError

    def _broadcast(self, key: str, arr: np.ndarray) -> None:
        """Deliver an installed potential to workers in other processes."""

    # -- shared machinery ----------------------------------------------
    def _count(self, **deltas: int) -> None:
        """Thread-safely add to counters (band-group roots share them)."""
        with self._mutex:
            for name, n in deltas.items():
                setattr(self, name, getattr(self, name) + n)

    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a shared potential once per worker under ``key``.

        The driver's process-level store always receives the payload
        (covering every in-process kernel call), then :meth:`_broadcast`
        delivers it to workers elsewhere.  Delivery is best-effort — a
        busy or restarted worker may miss it — so key-carrying kernels
        raise :class:`repro.core.fragment_task.PotentialNotInstalledError`
        and the backend retries that one task through :meth:`_heal`.
        Re-installing an already-known key is a no-op.
        """
        arr = np.asarray(payload)
        with self._mutex:
            store = self._install_payloads
            if key in store:
                store.move_to_end(key)
            else:
                install_potential(key, arr)
                store[key] = arr
                while len(store) > self._INSTALL_PAYLOAD_MAX:
                    store.popitem(last=False)
        self._broadcast(key, arr)

    def _heal(self, task, key: str):
        """``task`` with the driver's payload for ``key`` attached, or None.

        The one-shot answer to a worker that never received ``key``: the
        bytes are those of the install, so the result is unchanged, and
        the worker keeps the payload it was sent.  Counts one physical
        submission.  None — the miss propagates — for tasks without an
        install channel, keys the driver does not hold, and tasks with
        nothing to attach (a retry would miss again).
        """
        attach = getattr(task, "with_potential_payload", None)
        with self._mutex:
            payload = self._install_payloads.get(key)
        if attach is None or payload is None:
            return None
        healed = attach(key, payload)
        if healed is task:
            return None
        self._count(pool_submissions=1)
        return healed

    # -- the batch methods: submit, then gather in task order ------------
    def run(self, tasks: Sequence[FragmentTask]) -> ExecutionReport:
        """Run plain fragment solve tasks (:func:`solve_fragment_task`)."""
        return self._execute(tasks, solve_fragment_task)

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks, one round trip each."""
        return self._execute(tasks, run_fragment_pipeline_task)

    def run_global(self, tasks: Sequence[GlobalStepTask]) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks; results in slab order."""
        return self._execute(tasks, run_global_step_task)

    def run_bands(self, tasks: Sequence[BandBlockTask]) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks; results in slice order."""
        return self._execute(tasks, run_band_block_task)

    # -- the future methods: results consumed as they resolve ------------
    def submit_global(self, task: GlobalStepTask):
        """Submit one global-step task; returns its future.

        The streaming GENPOT engine issues per-slab stage tasks the
        moment their inputs are assembled instead of batching a stage
        behind a scatter barrier; in-process backends resolve at submit
        (the stream then runs in plain submission order).
        """
        self._count(tasks_submitted=1, pool_submissions=1)
        return self._submit(task, run_global_step_task)

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch, in task order.

        The SCF iteration's Gen_dens reduce consumes fragments in order
        while the batch tail is still draining.
        """
        return self._submit_batch(tasks, run_fragment_pipeline_task)

    def _submit_batch(self, tasks: Sequence, kernel) -> list:
        """Futures for a batch, in task order.

        With several workers the tasks are submitted heaviest-first, so
        workers pulling from the shared queue realise exactly the greedy
        LPT balancing of the scheduler; one worker gets them in task
        order.
        """
        self._count(tasks_submitted=len(tasks), pool_submissions=len(tasks))
        if self._driver_computes and len(tasks) <= 1:
            return [_immediate(t, kernel) for t in tasks]
        if self.n_workers == 1:
            return [self._submit(t, kernel) for t in tasks]
        futures: list = [None] * len(tasks)
        for i in np.argsort([t.cost() for t in tasks])[::-1]:
            futures[int(i)] = self._submit(tasks[int(i)], kernel)
        return futures

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        """One batch: submit, gather in task order, report."""
        t0 = time.perf_counter()
        workers = self.n_workers if len(tasks) > 1 else 1
        schedule = None
        # Not for band stages: hundreds per solve on the group root's
        # critical path, and their reports are read for .results only.
        if workers > 1 and kernel is not run_band_block_task:
            schedule = self._scheduler.schedule_tasks(tasks, workers)
        results = gather_in_order(self._submit_batch(tasks, kernel))
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=workers,
            schedule=schedule,
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the backend's workers (nothing to release by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialFragmentExecutor(_Backend):
    """Executes fragment tasks one after another in the calling process.

    The default of :class:`repro.core.scf.LS3DFSCF`.  Band-group roots
    run their kernels in their own (root) thread.
    """

    n_workers = 1

    def _submit(self, task, kernel) -> _ImmediateFuture:
        return _immediate(task, kernel)


class ProcessPoolFragmentExecutor(_Backend):
    """Executes fragment tasks concurrently in a persistent process pool.

    The pool is created on first use and kept alive across batches, so
    every worker's static-problem cache (and hence the cheap second
    LS3DF iteration) survives from one outer iteration to the next.
    Call :meth:`close` (or use as a context manager) to release the
    workers.

    Parameters
    ----------
    n_workers:
        Number of worker processes ("groups"); defaults to the CPU count.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be positive")
        super().__init__()
        self.n_workers = int(n_workers or os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_mutex = threading.Lock()
        # Keys every worker of the pool was sent.
        self._broadcast_keys: set[str] = set()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_mutex:  # two group roots may reach a cold pool at once
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def _submit(self, task, kernel):
        """A pool of one is the calling process: no round trip to win."""
        if self.n_workers == 1:
            return _immediate(task, kernel)
        return _HealingFuture(
            self, self._ensure_pool().submit(kernel, task), task, kernel
        )

    def _broadcast(self, key: str, arr: np.ndarray) -> None:
        """One install submission per worker (a busy one may miss its own)."""
        if self.n_workers == 1 or key in self._broadcast_keys:
            return
        pool = self._ensure_pool()
        futures = [
            pool.submit(install_potential, key, arr)
            for _ in range(self.n_workers)
        ]
        for f in futures:
            f.result()
        self._broadcast_keys.add(key)
        self._count(install_broadcasts=self.n_workers)

    def close(self) -> None:
        """Shut the pool down; a later batch transparently restarts it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
