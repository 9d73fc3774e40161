"""Fragment-execution backends: serial, thread-pool and process-pool.

The paper's parallelism comes from solving independent fragments on
independent processor groups.  This module provides the local-machine
equivalents of those groups as interchangeable backends behind the
:class:`repro.core.fragment_task.FragmentExecutor` protocol:

* :class:`SerialFragmentExecutor` — one task after another in the calling
  process; the default used by :class:`repro.core.scf.LS3DFSCF`.
* :class:`ThreadPoolFragmentExecutor` — a thread pool; the heavy BLAS-3
  eigensolver work releases the GIL, so this already overlaps fragments.
* :class:`ProcessPoolFragmentExecutor` — a *persistent* process pool; one
  worker process per "group", each keeping its own static-problem cache
  alive across outer iterations (the paper's cheap-second-iteration
  property holds inside the workers).

All three call the same kernel, :func:`repro.core.fragment_task.
solve_fragment_task`, on the same picklable :class:`FragmentTask`
descriptions — there is no backend-specific solve path.  Every backend
also implements ``run_pipeline`` / ``submit_pipeline_batch`` for the
fused :class:`repro.core.fragment_task.FragmentPipelineTask` batches the
SCF loop submits (restrict -> solve -> weighted-density contribution in
one worker round trip; see
:func:`repro.core.fragment_task.run_fragment_pipeline_task`),
``run_global`` for per-slab global-step tasks
(:class:`repro.parallel.distributed.GlobalStepTask` — the paper's
1D-slab layout of the Poisson/XC/mixing work; see
:func:`repro.parallel.distributed.run_global_step_task`), and
``run_bands`` for the per-slice band tasks of the band-parallel
eigensolver (:class:`repro.parallel.bands.BandBlockTask` — the paper's
Np-cores-per-group distribution of one fragment's all-band CG; see
:func:`repro.parallel.bands.run_band_block_task`).

Each backend has one dispatch engine: a task reaches a worker through a
single internal submit that returns a future, and one physical
submission is always one logical task.  The batch methods (``run_*``)
are that submit plus an order-preserving gather
(:func:`gather_in_order`); ``submit_global`` and
``submit_pipeline_batch`` hand the same futures to callers that consume
results as they resolve (the streaming GENPOT engine, the SCF
iteration's Gen_dens reduce).  The pool backends order
submissions heaviest-first, the greedy longest-processing-time (LPT)
heuristic :mod:`repro.parallel.scheduler` uses to balance fragment
classes whose costs differ by ~8x (1x1x1 vs 2x2x2 cells), and attach
the scheduler's predicted assignment to the report (not for ``run_bands``
batches, whose reports are read for their results only).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.core.fragment_task import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineResult,
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
    "FragmentPipelineResult",
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
    "ThreadPoolFragmentExecutor",
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

    ``result()`` routes through the owning executor's ``_gather`` — the
    one-shot resubmission with the driver's payload attached — so every
    pool submission keeps the install-once machinery's failure mode
    covered.
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
        return self._executor._gather(self._future, self._task, self._kernel)

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


class SerialFragmentExecutor:
    """Executes fragment tasks one after another in the calling process.

    ``tasks_submitted`` counts every *logical* task ever handed to this
    executor (plain and pipeline alike) — the bookkeeping the
    fused-pipeline tests use to assert "exactly one submission per
    fragment per iteration".  ``pool_submissions`` counts physical kernel
    invocations; serially the two coincide.
    """

    def __init__(self) -> None:
        self.n_workers = 1
        self.tasks_submitted = 0
        self.pool_submissions = 0
        self.install_broadcasts = 0
        self._counter_mutex = threading.Lock()
        self._counter_root: "SerialFragmentExecutor" = self
        self._partitions: dict[int, list["SerialFragmentExecutor"]] = {}

    def _bump(self, logical: int, physical: int) -> None:
        """Thread-safely count submissions on the partition root.

        Partition children route their accounting here so the parent's
        one-submission-per-fragment/slice invariants keep holding when
        band groups run concurrently.
        """
        root = self._counter_root
        with root._counter_mutex:
            root.tasks_submitted += logical
            root.pool_submissions += physical

    def partition(self, ngroups: int) -> list["SerialFragmentExecutor"]:
        """Split into ``ngroups`` sub-executors for concurrent band groups.

        Serial children run their group's kernels in the calling (group)
        thread — concurrency then comes from the driver's per-group
        threads and the GIL-releasing BLAS underneath, the closest
        serial analogue of per-group worker pools.  All submission
        counters accumulate on this parent; partitions are cached per
        ``ngroups`` so repeated iterations reuse the same children.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        cached = self._partitions.get(ngroups)
        if cached is None:
            cached = []
            for _ in range(ngroups):
                child = SerialFragmentExecutor()
                child._counter_root = self._counter_root
                cached.append(child)
            self._partitions[ngroups] = cached
        return cached

    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a shared potential under ``key`` (in-process store).

        The serial backend runs every kernel in the calling process, so
        one :func:`repro.core.fragment_task.install_potential` call makes
        the payload visible to all subsequent key-carrying tasks.
        """
        install_potential(key, payload)

    def run(self, tasks: Sequence[FragmentTask]) -> ExecutionReport:
        """Run fragment solve tasks sequentially via the shared kernel.

        Parameters
        ----------
        tasks:
            The batch to solve.

        Returns
        -------
        ExecutionReport
            Results in task order, ``worker_count`` 1.
        """
        return self._execute(tasks, solve_fragment_task)

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks, one after another."""
        return self._execute(tasks, run_fragment_pipeline_task)

    def run_global(self, tasks: Sequence[GlobalStepTask]) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks, one after another."""
        return self._execute(tasks, run_global_step_task)

    def run_bands(self, tasks: Sequence[BandBlockTask]) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks, one after another."""
        return self._execute(tasks, run_band_block_task)

    def submit_global(self, task: GlobalStepTask) -> _ImmediateFuture:
        """Submit one global-step task; resolves synchronously at submit.

        The future surface of the streaming GENPOT engine: serially every
        submission runs immediately in the calling process, so a stream
        runs its stages in plain submission order while the engine code
        stays backend-agnostic.
        """
        return self._submit_batch([task], run_global_step_task)[0]

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch (resolved at submit)."""
        return self._submit_batch(tasks, run_fragment_pipeline_task)

    def _submit_batch(self, tasks: Sequence, kernel) -> list:
        self._bump(len(tasks), len(tasks))
        return [_immediate(t, kernel) for t in tasks]

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        t0 = time.perf_counter()
        results = gather_in_order(self._submit_batch(tasks, kernel))
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=1,
        )

    def close(self) -> None:
        """No pool to release; provided for interface uniformity."""

    def __enter__(self) -> "SerialFragmentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PoolFragmentExecutor:
    """Shared machinery of the thread- and process-pool backends."""

    # Process pools must push installed potentials into the workers; the
    # thread pool shares the driver's process-level store.
    _broadcast_installs = False
    _INSTALL_PAYLOAD_MAX = 64

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers or os.cpu_count() or 1)
        self._pool: Executor | None = None
        self._scheduler = FragmentScheduler()
        # Count of every *logical* task handed to this executor over its
        # lifetime; the pipeline tests use it to assert one submission per
        # fragment per SCF iteration.
        self.tasks_submitted = 0
        # Physical submissions (pool futures or fast-path kernel calls):
        # one per logical task, plus one per healed install miss.
        self.pool_submissions = 0
        # Install-channel broadcasts (not counted as pool submissions).
        self.install_broadcasts = 0
        # Driver-side copies of installed potentials, for the retry path
        # when a pool worker misses a broadcast (LRU-bounded).  Partition
        # children share the root's store (any group can heal any key)
        # but keep their own _broadcast_keys: each group's pool workers
        # are distinct processes and need their own broadcast.
        self._install_payloads: OrderedDict[str, np.ndarray] = OrderedDict()
        self._broadcast_keys: set[str] = set()
        self._counter_mutex = threading.Lock()
        self._pool_mutex = threading.Lock()
        self._counter_root: "_PoolFragmentExecutor" = self
        self._partitions: dict[int, list["_PoolFragmentExecutor"]] = {}

    def _bump(self, logical: int, physical: int) -> None:
        """Thread-safely count submissions on the partition root."""
        root = self._counter_root
        with root._counter_mutex:
            root.tasks_submitted += logical
            root.pool_submissions += physical

    def partition(self, ngroups: int) -> list["_PoolFragmentExecutor"]:
        """Split into ``ngroups`` sub-pools for concurrent band groups.

        Each child is a backend of the same type owning ``n_workers //
        ngroups`` (at least 1) of the parent's worker budget and its own
        pool — a genuinely independent per-group task queue, the local
        analogue of the paper giving every fragment group its own Np
        cores.  Children share the parent's driver-side install store
        (for healing) and route all submission counters to it; they are
        cached per ``ngroups``, so each group's worker processes — and
        their warm static-problem caches — survive across iterations.
        """
        if ngroups < 1:
            raise ValueError("ngroups must be positive")
        cached = self._partitions.get(ngroups)
        if cached is None:
            from repro.parallel.groups import partition_worker_counts

            cached = []
            for per_group in partition_worker_counts(self.n_workers, ngroups):
                child = type(self)(n_workers=per_group)
                child._counter_root = self._counter_root
                child._install_payloads = self._install_payloads
                cached.append(child)
            self._partitions[ngroups] = cached
        return cached

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    def _ensure_pool(self) -> Executor:
        with self._pool_mutex:  # two group roots may reach a cold pool at once
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def install_state(self, key: str, payload: np.ndarray) -> None:
        """Install a shared potential once per worker under ``key``.

        The driver's process-level store always receives the payload
        (covering the in-process fast paths and the thread pool, whose
        workers share it); process pools additionally broadcast one
        install per worker.  A broadcast is best-effort — a busy worker
        may miss it — so key-carrying kernels raise
        :class:`repro.core.fragment_task.PotentialNotInstalledError` and
        :meth:`_gather` retries that one task with the payload attached.
        Re-installing an already-known key is a no-op.
        """
        arr = np.asarray(payload)
        root = self._counter_root
        with root._counter_mutex:
            if key in self._install_payloads:
                self._install_payloads.move_to_end(key)
            else:
                install_potential(key, arr)
                self._install_payloads[key] = arr
                while len(self._install_payloads) > self._INSTALL_PAYLOAD_MAX:
                    self._install_payloads.popitem(last=False)
        if not (self._broadcast_installs and self.n_workers > 1):
            return
        if key in self._broadcast_keys:
            return
        pool = self._ensure_pool()
        futures = [
            pool.submit(install_potential, key, arr)
            for _ in range(self.n_workers)
        ]
        for f in futures:
            f.result()
        self._broadcast_keys.add(key)
        with root._counter_mutex:
            root.install_broadcasts += self.n_workers

    def run(self, tasks: Sequence[FragmentTask]) -> ExecutionReport:
        """Run fragment solve tasks through the pool (LPT, heaviest-first).

        Parameters
        ----------
        tasks:
            The batch to solve; batches of one (or single-worker pools)
            take the in-process fast path.

        Returns
        -------
        ExecutionReport
            Results in task order, with the scheduler's predicted
            assignment attached as ``schedule``.
        """
        return self._execute(tasks, solve_fragment_task)

    def run_pipeline(
        self, tasks: Sequence[FragmentPipelineTask]
    ) -> ExecutionReport:
        """Run fused Gen_VF -> solve -> Gen_dens tasks through the pool.

        Each fragment is one submission: the worker gathers the
        restriction, solves, and extracts the weighted interior in a
        single round trip.
        """
        return self._execute(tasks, run_fragment_pipeline_task)

    def run_global(self, tasks: Sequence[GlobalStepTask]) -> ExecutionReport:
        """Run per-slab GENPOT global-step tasks through the pool.

        Each stage of the sharded global step is exactly one submission
        per slab; the report's ``results`` stay in slab order, so every
        downstream reduction sees the deterministic slab ordering that
        keeps sharded results bit-identical to the unsharded path.
        """
        return self._execute(tasks, run_global_step_task)

    def run_bands(self, tasks: Sequence[BandBlockTask]) -> ExecutionReport:
        """Run per-slice band-eigensolver tasks through the pool.

        Each sliced stage of a grouped all-band CG sweep is exactly one
        submission per band slice; ``results`` stay in slice order, so
        the group root's gathers see the deterministic row ordering that
        keeps grouped eigensolves bit-identical to single-worker ones.
        """
        return self._execute(tasks, run_band_block_task)

    def submit_global(self, task: GlobalStepTask):
        """Submit one global-step task to the pool; returns a future.

        The streaming GENPOT engine issues per-slab stage tasks the
        moment their inputs are assembled, instead of batching a whole
        stage behind a scatter barrier; single-worker pools resolve
        synchronously (the stream then runs in plain submission order).
        """
        self._bump(1, 1)
        if self.n_workers == 1:
            return _immediate(task, run_global_step_task)
        return self._submit(task, run_global_step_task)

    def submit_pipeline_batch(self, tasks: Sequence) -> list:
        """Per-fragment futures for a pipeline batch, submitted heaviest-first.

        The pipeline iteration's Gen_dens reduce consumes fragments in
        order while the batch tail is still draining, so the driver does
        not idle between the last submit and the first reduce.
        """
        return self._submit_batch(tasks, run_fragment_pipeline_task)

    def _submit(self, task, kernel) -> _HealingFuture:
        """Hand one task to a pool worker — the only place this backend does."""
        return _HealingFuture(
            self, self._ensure_pool().submit(kernel, task), task, kernel
        )

    def _submit_batch(self, tasks: Sequence, kernel) -> list:
        """Futures for a batch, in task order.

        Single-worker pools and one-task batches run in the calling
        process (no pool round trip to win anything from); otherwise the
        tasks are submitted heaviest-first, so workers pulling from the
        shared queue realise exactly the greedy LPT balancing of the
        scheduler.
        """
        self._bump(len(tasks), len(tasks))
        if self.n_workers == 1 or len(tasks) <= 1:
            return [_immediate(t, kernel) for t in tasks]
        futures: list = [None] * len(tasks)
        for i in np.argsort([t.cost() for t in tasks])[::-1]:
            futures[int(i)] = self._submit(tasks[int(i)], kernel)
        return futures

    def _gather(self, future, task, kernel):
        """Resolve one future, healing a missed potential install.

        A pool worker that never received an ``install_state`` broadcast
        raises :class:`PotentialNotInstalledError`; the task is resubmitted
        once with the driver's payload attached (bit-identical bytes, so
        the result is unchanged; the worker keeps the payload it was
        sent).  The key also leaves ``_broadcast_keys`` — that delivery
        did not happen, so the next ``install_state`` of the key
        broadcasts again.  Tasks without an install channel, or keys the
        driver does not hold, re-raise.
        """
        try:
            return future.result()
        except PotentialNotInstalledError as exc:
            self._broadcast_keys.discard(exc.key)
            attach = getattr(task, "with_potential_payload", None)
            payload = self._install_payloads.get(exc.key)
            if attach is None or payload is None:
                raise
            healed = attach(exc.key, payload)
            if healed is task:  # nothing to attach: a retry would miss again
                raise
            self._bump(0, 1)
            return self._submit(healed, kernel).result()

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        t0 = time.perf_counter()
        pooled = self.n_workers > 1 and len(tasks) > 1
        schedule = None
        # Not for band stages: hundreds per solve on the group root's
        # critical path, and their reports are read for .results only.
        if pooled and kernel is not run_band_block_task:
            schedule = self._scheduler.schedule_tasks(tasks, self.n_workers)
        results = gather_in_order(self._submit_batch(tasks, kernel))
        return ExecutionReport(
            results=results,
            wall_time=time.perf_counter() - t0,
            worker_count=self.n_workers if pooled else 1,
            schedule=schedule,
        )

    def close(self) -> None:
        """Shut the pool down; a later :meth:`run` transparently restarts it.

        Cached partition children (and their pools) are closed too.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        partitions, self._partitions = self._partitions, {}
        for children in partitions.values():
            for child in children:
                child.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class ThreadPoolFragmentExecutor(_PoolFragmentExecutor):
    """Executes fragment tasks concurrently in a thread pool.

    Threads share the per-process static-problem cache, so nothing is
    rebuilt, and the BLAS-3 block operations dominating the eigensolver
    release the GIL — fragments genuinely overlap.

    Parameters
    ----------
    n_workers:
        Number of worker threads ("groups"); defaults to the CPU count.
    """

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.n_workers)


class ProcessPoolFragmentExecutor(_PoolFragmentExecutor):
    """Executes fragment tasks concurrently in a persistent process pool.

    The pool is created on first use and kept alive across :meth:`run`
    calls, so every worker's static-problem cache (and hence the cheap
    second LS3DF iteration) survives from one outer iteration to the
    next.  Call :meth:`close` (or use as a context manager) to release
    the workers.

    Parameters
    ----------
    n_workers:
        Number of worker processes ("groups"); defaults to the CPU count.
    """

    _broadcast_installs = True

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.n_workers)
