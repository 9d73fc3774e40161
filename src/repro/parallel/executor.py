"""The dispatch engine and its local backends: serial and processes.

The paper's parallelism comes from solving independent fragments on
independent processor groups; its driver scatters picklable work and
never cares where a task ran.  :class:`_Backend` is that driver, written
once.  It owns the whole public surface — the batch methods ``run`` /
``run_pipeline`` / ``run_global`` (submit, then an order-preserving
:func:`gather_in_order`; one kernel each:
:func:`~repro.core.fragment_task.solve_fragment_task`,
:func:`~repro.core.fragment_task.run_fragment_pipeline_task`,
:func:`~repro.parallel.distributed.run_global_step_task`), the future methods
``submit_global`` / ``submit_pipeline_batch`` for callers that consume
results as they resolve, the submission counters and ``close`` — and
asks a backend for one thing: ``_submit(task, kernel) -> future``.  Every
task carries its potential inline, so one physical submission is always
one logical task, and there is no backend-specific solve path.  A
worker solves a whole fragment; nothing slices one fragment's bands
over several workers.

Workers in other processes run :class:`WorkerServer` and are driven by
:class:`_WorkerBackend` over ``RPW1`` (:mod:`repro.parallel.wire`),
however their process started.

* :class:`SerialFragmentExecutor` — an immediate ``_submit`` in the
  calling process; the default of :class:`repro.core.scf.LS3DFSCF`.
* :class:`ProcessPoolFragmentExecutor` — *persistent*
  :func:`~repro.parallel.wire.fork_peer` workers that keep their
  static-problem caches across outer iterations.
* :class:`repro.parallel.remote.RemoteExecutor` — the same engine over
  TCP-connected ``repro-worker`` daemons.

Batches go out heaviest-first, the greedy longest-processing-time (LPT)
heuristic :mod:`repro.parallel.scheduler` uses to balance fragment
classes whose costs differ by ~8x (1x1x1 vs 2x2x2 cells); the report
carries the scheduler's predicted assignment.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Sequence

import numpy as np

from repro.core.fragment_task import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.distributed import GlobalStepTask, run_global_step_task
from repro.parallel.scheduler import FragmentScheduler
from repro.parallel.wire import (
    PROTOCOL_VERSION,
    Connection,
    Listener,
    RemoteProtocolError,
    fork_peer,
    reap,
    refusal,
)

__all__ = [
    "ExecutionReport",
    "FragmentExecutor",
    "FragmentPipelineTask",
    "FragmentScheduler",
    "FragmentTask",
    "FragmentTaskResult",
    "GlobalStepTask",
    "NoRemoteWorkersError",
    "ProcessPoolFragmentExecutor",
    "RemoteTaskError",
    "SerialFragmentExecutor",
    "WorkerDiedError",
    "WorkerServer",
    "gather_in_order",
    "run_fragment_pipeline_task",
    "run_global_step_task",
    "solve_fragment_task",
]


class WorkerDiedError(RuntimeError):
    """A worker dropped its connection or timed out mid-task."""


class NoRemoteWorkersError(RuntimeError):
    """No worker is left and no fallback executor was given."""


class RemoteTaskError(RuntimeError):
    """A task raised inside a worker process (not a transport failure).

    Deterministic kernel errors are *not* resubmitted — the task would
    fail identically on any worker — so they surface loudly here, with
    the worker-side exception type and message attached.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"remote task failed with {error_type}: {message}")
        self.error_type = error_type


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_KERNELS = {
    "solve": solve_fragment_task,
    "pipeline": run_fragment_pipeline_task,
    "global": run_global_step_task,
}
# The wire's name for a kernel; by function name, because a profiler's
# ``functools.wraps`` wrapper around a kernel is still that kernel.
_KINDS = {kernel.__name__: kind for kind, kernel in _KERNELS.items()}


class WorkerServer(Listener):
    """A worker: serves executor task frames, over TCP or a socketpair.

    A ``repro-worker`` daemon (:func:`repro.parallel.remote.worker_main`)
    listens on TCP; a pool worker serves a socketpair end.  Kernels and
    process-level caches (static problems, FFT workspaces) are the same
    everywhere.  Besides ``hello`` / ``ping`` a worker answers ``task``
    (``{kind, task}``, ``kind`` one of ``solve`` / ``pipeline`` /
    ``global``), ``stats`` and ``shutdown`` (the listening
    socket is closed before the reply), one request at a time per
    connection.

    Parameters
    ----------
    host, port:
        Bind address (see :class:`repro.parallel.wire.Listener`).
    fault_plan:
        Optional deterministic fault injector
        (:class:`repro.parallel.faults.FaultPlan`) consulted before each
        task reply — the test harness for the failure model.
    """

    VERSION = PROTOCOL_VERSION
    REQUIRED = {"task": ("kind", "task")}

    def __init__(self, host: str = "127.0.0.1", port: int = 0, fault_plan=None) -> None:
        super().__init__(host, port)
        self.fault_plan = fault_plan
        self.tasks_served = 0

    def _handle(self, request: dict) -> dict:
        op = request["op"]
        if op == "stats":
            return {
                "ok": True,
                "tasks_served": self.tasks_served,
                "bytes_received": self.bytes_received,
                "bytes_sent": self.bytes_sent,
            }
        if op == "shutdown":
            # Close the listening socket before acking, so that once the
            # driver has the reply no connect can land in a dead backlog;
            # this connection's loop ends after the reply is written.
            self.stop()
            return {"ok": True}
        if op == "task":
            return self._handle_task(request)
        return refusal(f"unknown op {op!r}")

    def _handle_task(self, request: dict) -> dict:
        kind = request["kind"]
        kernel = _KERNELS.get(kind) if isinstance(kind, str) else None
        if kernel is None:
            return refusal(f"unknown task kind {kind!r}")
        with self._lock:
            index = self.tasks_served
            self.tasks_served += 1
        if self.fault_plan is not None:
            self.fault_plan.apply(index)
        return {"ok": True, "result": kernel(request["task"])}


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
class _Future:
    """One task's result, set once by whoever finishes first (done-callbacks
    run in that thread); a worker skips a task whose future is done, so
    cancelling a queued task drops it."""

    def __init__(self) -> None:
        self._outcome: tuple | None = None  # (value, error) once done
        self._callbacks: list = []
        self._lock = threading.Lock()
        self._done = threading.Event()

    def cancel(self) -> bool:
        return self._settle(None, RuntimeError("task cancelled: its batch failed"))

    def set_result(self, value) -> None:
        self._settle(value, None)

    def set_exception(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, value, error) -> bool:
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = (value, error)
            callbacks, self._callbacks = self._callbacks, []
        self._done.set()
        for fn in callbacks:
            fn(self)
        return True

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None):
        if not self._done.wait(timeout):
            raise TimeoutError(f"no result within {timeout} s")
        value, error = self._outcome
        if error is not None:
            raise error
        return value

    def add_done_callback(self, fn) -> None:
        with self._lock:
            if self._outcome is None:
                self._callbacks.append(fn)
                return
        fn(self)


def _immediate(task, kernel) -> _Future:
    """A future resolved at submit: in-process backends run the kernel now,
    so a stream of submissions degenerates to plain task order — which is
    what keeps them bit-identical to the worker backends."""
    future = _Future()
    try:
        future.set_result(kernel(task))
    except Exception as exc:  # resolved, but carrying the kernel's error
        future.set_exception(exc)
    return future


def gather_in_order(futures: Sequence) -> list:
    """Resolve a batch's futures in task order (the ``run_*`` gather).

    When one of them raises, the batch's unfinished tasks are cancelled
    before the error propagates — those no worker has started are
    dropped: a failed batch leaves nothing queued ahead of the next one.
    """
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        raise


class _Backend:
    """The dispatch engine every executor backend runs on.

    A backend provides ``n_workers`` and :meth:`_submit` (hand one task
    and its kernel to a worker, return a future).  Everything the
    backends share is written here, once: the batch and future methods,
    the counters and the context manager.

    ``tasks_submitted`` counts every *logical* task ever handed to the
    executor — what the tests use to assert "exactly one submission per
    fragment (or slab) per iteration".
    """

    # A batch of one has no round trip to win anything from and runs in
    # the calling process — unless the workers are the only compute nodes.
    _driver_computes = True

    def __init__(self) -> None:
        self.tasks_submitted = 0
        self._mutex = threading.Lock()
        self._scheduler = FragmentScheduler()

    # -- what a backend provides ---------------------------------------
    def _submit(self, task, kernel):
        """Hand one task to a worker; the only way a task leaves the driver."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------
    def _count(self, **deltas: int) -> None:
        """Thread-safely add to counters (drain threads share them)."""
        with self._mutex:
            for name, n in deltas.items():
                setattr(self, name, getattr(self, name) + n)

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

    def run_bands(self, tasks) -> ExecutionReport:
        """Harness-only stub: band-sliced solves are gone, so this raises.

        Kept by name because the benchmark harness's tracer resolves it.
        """
        raise NotImplementedError("band-sliced fragment solves were removed")

    # -- the future methods: results consumed as they resolve ------------
    def submit_global(self, task: GlobalStepTask):
        """Submit one global-step task; returns its future.

        The streaming GENPOT engine issues per-slab stage tasks the
        moment their inputs are assembled instead of batching a stage
        behind a scatter barrier; in-process backends resolve at submit
        (the stream then runs in plain submission order).
        """
        self._count(tasks_submitted=1)
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
        self._count(tasks_submitted=len(tasks))
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
        if workers > 1:
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

    The default of :class:`repro.core.scf.LS3DFSCF`.
    """

    n_workers = 1

    def _submit(self, task, kernel) -> _Future:
        return _immediate(task, kernel)


class _WorkerHandle:
    """The driver's end of one worker: connection and liveness."""

    def __init__(self, conn: Connection, timeout: float | None) -> None:
        self.conn = conn
        self.timeout = timeout
        self.alive = True
        self.draining = False  # a drain thread feeds it
        self.lock = threading.Lock()

    def connect(self) -> None:
        """Ready the connection for a request; a socketpair end is born connected."""

    def request(self, request: dict) -> dict:
        """One request/response round trip."""
        with self.lock:
            self.connect()
            return self.conn.request(request, self.timeout)

    def mark_dead(self) -> None:
        self.alive = False
        self.conn.close()


class _WorkerBackend(_Backend):
    """The engine's half for workers in other processes.

    Every task — batch or streamed — enters one shared queue the moment
    the driver submits it, drained by one thread per live worker
    (:attr:`_handles`), so there is one failure ladder.  A worker that
    drops the connection, times out or dies mid-task is marked dead and
    its task goes back to the head of the queue for the survivors
    (results are bit-identical because the kernels are pure).  When
    *every* worker is gone the remaining tasks go to the ``fallback``
    executor — or, without one, fail with :class:`NoRemoteWorkersError`.
    A genuine kernel exception on a worker is *not* retried: it is
    raised as a :class:`RemoteTaskError` (the task would fail anywhere).
    The counters ``resubmissions``, ``workers_lost`` and
    ``degraded_tasks`` record how much of the ladder a run exercised.
    """

    def __init__(self, fallback=None) -> None:
        super().__init__()
        self._handles: list[_WorkerHandle] = []
        # Bytes of the handles a pool's close() let go, so the counters
        # only grow across re-forks, as they do on RemoteExecutor.
        self._retired_bytes = (0, 0)
        self._fallback = fallback
        self.resubmissions = 0
        self.workers_lost = 0
        self.degraded_tasks = 0
        self._cond = threading.Condition()  # guards the queue and `draining`
        self._queue: deque = deque()
        self._closed = False

    # -- bookkeeping ---------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        """Driver-to-worker bytes over every connection this executor held."""
        with self._mutex:
            return self._retired_bytes[0] + sum(h.conn.bytes_sent for h in self._handles)

    @property
    def bytes_received(self) -> int:
        """Worker-to-driver bytes over every connection this executor held."""
        with self._mutex:
            return self._retired_bytes[1] + sum(h.conn.bytes_received for h in self._handles)

    def _live_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles if h.alive]

    def _lose(self, handle: _WorkerHandle, resubmitted: int = 0) -> None:
        """Mark a worker dead after a transport failure; one the driver had
        already let go (:meth:`close`, a shutdown) is not counted lost."""
        with self._mutex:
            if handle.alive:
                self.workers_lost += 1
                self.resubmissions += resubmitted
            handle.alive = False
        handle.conn.close()

    # -- dispatch ------------------------------------------------------
    def _submit(self, task, kernel) -> _Future:
        """Queue one task for the drain threads — the only way in.

        Tasks enter the shared deque the moment the driver submits them,
        so slab stages overlap with the driver's layout conversion
        exactly like the paper's isend/irecv-under-compute.  With no live
        worker left the task goes straight to the bottom of the ladder
        (:meth:`_resolve_locally`).
        """
        future = _Future()
        with self._cond:
            self._closed = False
            live = self._live_handles()
            for handle in live:
                if not handle.draining:
                    handle.draining = True
                    threading.Thread(target=self._drain, args=(handle,), daemon=True).start()
            if live:
                self._queue.append((task, kernel, future))
                self._cond.notify()
        if not live:
            self._resolve_locally(task, kernel, future)
        return future

    def _drain(self, handle: _WorkerHandle) -> None:
        """Feed one worker from the shared queue until it dies or we close.

        A transport failure marks the worker dead and puts its task back
        at the head of the queue.  A thread stops taking tasks when its
        worker is dead (mid-task here, in a heartbeat or at close) or the
        executor closed with nothing queued; the last one to stop hands
        whatever is still queued to the bottom of the ladder.
        """
        while True:
            leftovers: list = []
            with self._cond:
                while handle.alive and not self._queue and not self._closed:
                    self._cond.wait(0.2)
                item = self._queue.popleft() if handle.alive and self._queue else None
                if item is None:
                    handle.draining = False
                    self._cond.notify_all()
                    if not any(h.draining for h in self._handles):
                        leftovers = list(self._queue)
                        self._queue.clear()
            if item is None:
                for task, kernel, future in leftovers:
                    self._resolve_locally(task, kernel, future)
                return
            task, kernel, future = item
            if future.done():  # its batch failed and cancelled it
                continue
            try:
                result = self._run_one(handle, task, kernel)
            except (OSError, WorkerDiedError, RemoteProtocolError):
                self._lose(handle, resubmitted=1)
                with self._cond:
                    self._queue.appendleft(item)
                continue
            except Exception as exc:
                future.set_exception(exc)
                continue
            future.set_result(result)

    def _resolve_locally(self, task, kernel, future: _Future) -> None:
        """Bottom of the ladder: run one task on the fallback executor."""
        if future.done():
            return
        kind = _KINDS[kernel.__name__]
        fallback = self._fallback
        if fallback is None:
            future.set_exception(
                NoRemoteWorkersError(
                    f"none of the {len(self._handles)} worker(s) is left for a {kind} "
                    f"task and no fallback executor was given"
                )
            )
            return
        self._count(degraded_tasks=1)
        runner = {
            "solve": fallback.run,
            "pipeline": fallback.run_pipeline,
            "global": fallback.run_global,
        }[kind]
        try:
            report = runner([task])
        except Exception as exc:
            future.set_exception(exc)
            return
        future.set_result(report.results[0])

    def _run_one(self, handle: _WorkerHandle, task, kernel):
        """One task round trip on one worker."""
        reply = handle.request({"op": "task", "kind": _KINDS[kernel.__name__], "task": task})
        if reply.get("ok"):
            return reply["result"]
        raise RemoteTaskError(
            str(reply.get("error_type")), str(reply.get("error"))
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Retire the drain threads and close every connection; a later
        submission starts them again."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for handle in self._handles:
            handle.conn.close()


class ProcessPoolFragmentExecutor(_WorkerBackend):
    """Executes fragment tasks concurrently in persistent forked workers.

    On first use the pool forks ``n_workers``
    :func:`~repro.parallel.wire.fork_peer` workers and keeps them, so every
    worker's static-problem cache (and hence the cheap second LS3DF
    iteration) survives from one outer iteration to the next.  They do not
    die with the forking thread.  The failure ladder is
    :class:`_WorkerBackend`'s without a fallback; a death is EOF, so no
    request is timed and a long solve is never taken for a hang.  A pool of one is the calling process.
    :meth:`close` (or the context manager) kills and reaps the workers; a
    later batch forks new ones.

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
        self._pids: list[int] = []
        self._fork_lock = threading.Lock()

    def _start(self) -> None:
        """Fork the workers unless they run (two submitting threads may reach a cold pool at once)."""
        with self._fork_lock:
            if self._handles:
                return
            handles: list[_WorkerHandle] = []
            for _ in range(self.n_workers):
                pid, conn = fork_peer(WorkerServer())
                self._pids.append(pid)
                handles.append(_WorkerHandle(conn, None))
            self._handles = handles

    def _submit(self, task, kernel):
        """A pool of one is the calling process: no round trip to win."""
        if self.n_workers == 1:
            return _immediate(task, kernel)
        self._start()
        return super()._submit(task, kernel)

    def install_state(self, key: str, payload) -> None:
        """Fork the workers now, unless the pool is one process; installs nothing.

        A vestige: every task carries its potential inline.  The benchmark
        harness calls it to boot the pool before it starts timing.
        """
        if self.n_workers > 1:
            self._start()

    def close(self) -> None:
        """Kill and reap the workers; a later batch forks new ones."""
        with self._fork_lock:
            handles = self._handles
            pids, self._pids = self._pids, []
            for handle in handles:
                handle.mark_dead()
            with self._mutex:
                sent, received = self._retired_bytes
                self._retired_bytes = (
                    sent + sum(h.conn.bytes_sent for h in handles),
                    received + sum(h.conn.bytes_received for h in handles),
                )
                self._handles = []
        super().close()
        for pid in pids:  # only this reaps them, so a dead one is a zombie still
            reap(pid, kill=True)
