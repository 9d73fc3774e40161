"""Socket-backed remote execution: the multi-node fragment backend.

The paper runs LS3DF across thousands of cores by giving every fragment
group its own set of MPI ranks; the driver scatters picklable work units
and gathers results.  This module is the repo's network equivalent: the
``RPW1`` frames of :mod:`repro.parallel.wire` over TCP, a ``repro-worker`` daemon
(:class:`WorkerServer` / :func:`worker_main`) that executes the exact
same kernels as the local backends, and :class:`RemoteExecutor`, the
backend that plugs those workers into the one dispatch engine of
:mod:`repro.parallel.executor` — its ``_submit`` is a shared queue
drained by one thread per worker, its ``_broadcast`` an ``install``
frame with per-worker dedup.  Because workers invoke the same pure
kernels on the same task bytes, remote results are bit-identical to the
serial backend's.

The ``hello`` / ``ping`` handshake, the serve loop and the client
connection are :mod:`repro.parallel.wire`'s; a worker adds ``install``
(``{key, payload}``: a fingerprint-keyed potential for the process-level
store of :func:`repro.core.fragment_task.install_potential`, sent at
most once per key and worker), ``task`` (``{kind, task}``, ``kind`` one
of ``solve`` / ``pipeline`` / ``global`` / ``bands``; a missed install
is answered with its ``key`` and healed by resubmitting with the
payload attached), ``stats`` and ``shutdown`` (the listening socket is
closed before the reply).

Failure model (the degradation ladder)
--------------------------------------
Every task — batch or streamed — enters one shared queue drained by one
persistent thread per live worker, so there is one ladder.  Every
socket wait is bounded by a configurable timeout, so no failure mode can
hang the driver.  A worker that times out, drops the connection or dies
mid-task is marked dead and its in-flight task goes back to the head of
the queue for the surviving workers (results are bit-identical because
the kernels are pure).  When *every* worker is gone the executor hands
the remaining tasks to the ``fallback=`` executor it was given — or,
without one, fails them with the typed :class:`NoRemoteWorkersError`.
A genuine kernel exception on a worker is *not* retried: it is raised
as a :class:`RemoteTaskError` (the task would fail anywhere).

Security: frames are pickles — run workers only on hosts and networks
you trust, exactly like ``multiprocessing`` or MPI.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.fragment_task import (
    ExecutionReport,
    PotentialNotInstalledError,
    install_potential,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.bands import run_band_block_task
from repro.parallel.distributed import run_global_step_task
from repro.parallel.executor import _Backend
from repro.parallel.wire import (
    HOST_HELP,
    PROTOCOL_VERSION,
    Connection,
    Listener,
    RemoteProtocolError,
    recv_frame,
    refusal,
    send_frame,
    spawn_daemon,
    stop_daemon,
)

__all__ = [
    "PROTOCOL_VERSION",
    "LocalWorkerPool",
    "NoRemoteWorkersError",
    "RemoteExecutor",
    "RemoteExecutorConfig",
    "RemoteProtocolError",
    "RemoteTaskError",
    "WorkerDiedError",
    "WorkerServer",
    "recv_frame",
    "send_frame",
    "start_worker_thread",
    "worker_main",
]


class WorkerDiedError(RuntimeError):
    """A remote worker dropped its connection or timed out mid-task."""


class NoRemoteWorkersError(RuntimeError):
    """No remote worker is reachable and no fallback executor was given."""


class RemoteTaskError(RuntimeError):
    """A task raised inside a remote worker (not a transport failure).

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
    "bands": run_band_block_task,
}
# The wire's name for a kernel; by function name, because a profiler's
# ``functools.wraps`` wrapper around a kernel is still that kernel.
_KINDS = {kernel.__name__: kind for kind, kernel in _KERNELS.items()}


class WorkerServer(Listener):
    """A ``repro-worker``: serves executor task frames over TCP.

    Each connection speaks a strict request/response alternation, so a
    worker serves its drivers' requests in arrival order.  Kernels and
    process-level caches (static problems, installed potentials, FFT
    workspaces) are exactly those of the local backends — a worker
    process behaves like one persistent process-pool worker that happens
    to live on another machine.

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
    REQUIRED = {"install": ("key", "payload"), "task": ("kind", "task")}

    def __init__(self, host: str = "127.0.0.1", port: int = 0, fault_plan=None) -> None:
        super().__init__(host, port)
        self.fault_plan = fault_plan
        self.tasks_served = 0
        self.installs = 0

    def _handle(self, request: dict) -> dict:
        op = request["op"]
        if op == "install":
            install_potential(request["key"], request["payload"])
            with self._lock:
                self.installs += 1
            return {"ok": True}
        if op == "stats":
            return {
                "ok": True,
                "tasks_served": self.tasks_served,
                "installs": self.installs,
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
        try:
            result = kernel(request["task"])
        except PotentialNotInstalledError as exc:
            return {
                "ok": False,
                "error_type": "PotentialNotInstalledError",
                "error": str(exc),
                "key": exc.key,
            }
        return {"ok": True, "result": result}


def worker_main(argv: Sequence[str] | None = None) -> int:
    """``repro-worker`` entry point: serve kernels until shut down.

    Prints ``REPRO-WORKER LISTENING <host> <port>`` on stdout once bound
    (port 0 resolves to the OS-assigned port), so spawners can scrape
    the address; then blocks until a ``shutdown`` frame or Ctrl-C.
    """
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="LS3DF remote fragment worker (trusted networks only).",
    )
    parser.add_argument("--host", default="127.0.0.1", help=HOST_HELP)
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = any)")
    args = parser.parse_args(argv)
    return WorkerServer(host=args.host, port=args.port).serve_forever("REPRO-WORKER")


def start_worker_thread(
    host: str = "127.0.0.1", port: int = 0, fault_plan=None
) -> WorkerServer:
    """Start a :class:`WorkerServer` inside this process (tests, demos).

    The server shares the driver's process-level caches, but speaks the
    full socket protocol — every byte still crosses a real TCP
    connection on the loopback interface.
    """
    server = WorkerServer(host=host, port=port, fault_plan=fault_plan)
    server.start()
    return server


class LocalWorkerPool:
    """Spawn ``n`` localhost worker *processes* and collect their addresses.

    Each worker is a ``python -m repro.parallel.remote`` subprocess with
    its own interpreter, caches and OS-assigned port — the closest
    single-machine analogue of a real multi-node deployment (used by the
    CI ``remote-smoke`` job and the ``remote``-marked tests).

    Use as a context manager::

        with LocalWorkerPool(2) as pool:
            executor = RemoteExecutor(pool.addresses)
    """

    def __init__(self, n: int = 2, python: str | None = None, startup_timeout: float = 60.0):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.python = python or sys.executable
        self.startup_timeout = float(startup_timeout)
        self.processes: list = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> "LocalWorkerPool":
        import subprocess

        argv = [self.python, "-m", "repro.parallel.remote", "--port", "0"]
        with ThreadPoolExecutor(self.n) as pool:  # the workers boot side by side
            futures = [
                pool.submit(
                    spawn_daemon, argv, "REPRO-WORKER", self.startup_timeout,
                    stderr=subprocess.DEVNULL,
                )
                for _ in range(self.n)
            ]
        errors = [future.exception() for future in futures if future.exception()]
        for proc, address in (future.result() for future in futures if not future.exception()):
            self.processes.append(proc)
            self.addresses.append(address)
        if errors:
            self.terminate()
            raise errors[0]
        return self

    def terminate(self) -> None:
        for proc in self.processes:
            stop_daemon(proc)
        self.processes = []

    def __enter__(self) -> "LocalWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.terminate()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
@dataclass
class RemoteExecutorConfig:
    """Timeouts and retry policy of a :class:`RemoteExecutor`.

    Attributes
    ----------
    connect_timeout:
        Seconds allowed for the TCP connect + hello handshake.
    request_timeout:
        Seconds allowed for each send/receive pair (bounds every task,
        install and ping — the guarantee that no failure hangs).
    heartbeat_interval:
        Ping workers at most this often, piggybacked on batch dispatch
        (0 pings before every batch).
    max_retries:
        Reconnection attempts per worker on connect failure.
    backoff:
        Initial retry backoff in seconds, growing by ``backoff_factor``.
    backoff_factor:
        Multiplier applied to the backoff after every failed attempt.
    """

    connect_timeout: float = 5.0
    request_timeout: float = 120.0
    heartbeat_interval: float = 30.0
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0


class _WorkerHandle:
    """Driver-side connection to one remote worker: retried connects,
    liveness and the potential keys it holds."""

    def __init__(self, address: tuple[str, int], config: RemoteExecutorConfig):
        self.conn = Connection(address, PROTOCOL_VERSION, config.connect_timeout)
        self.config = config
        self.alive = True
        self.installed_keys: set[str] = set()
        self.lock = threading.Lock()

    def connect(self) -> None:
        """Connect and handshake, retrying with exponential backoff."""
        if self.conn.sock is not None:
            return
        delay = self.config.backoff
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(delay)
                delay *= self.config.backoff_factor
            try:
                self.conn.open()
            except OSError as exc:
                last_error = exc
                continue
            # A fresh process behind the same address knows no keys.
            self.installed_keys.clear()
            return
        raise WorkerDiedError(
            f"could not connect to worker at {self.conn.address[0]}:{self.conn.address[1]}: "
            f"{last_error}"
        )

    def request(self, request: dict) -> dict:
        """One request/response round trip (connects lazily)."""
        with self.lock:
            self.connect()
            return self.conn.request(request, self.config.request_timeout)

    def ping(self) -> bool:
        """Heartbeat; False (and marked dead) when the worker is gone."""
        try:
            reply = self.request({"op": "ping"})
        except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
            self.mark_dead()
            return False
        return bool(reply.get("ok"))

    def mark_dead(self) -> None:
        self.alive = False
        self.conn.close()


def _claim(future: Future) -> bool:
    """Mark a queued future running; False when its batch already failed
    and cancelled it (:func:`repro.parallel.executor.gather_in_order`).
    A task requeued after a worker death is already running."""
    return future.running() or future.set_running_or_notify_cancel()


class RemoteExecutor(_Backend):
    """Executor backend running tasks on socket-connected remote workers.

    The engine of :mod:`repro.parallel.executor` with workers behind TCP,
    so it drops into :class:`repro.core.scf.LS3DFSCF` (and the streaming
    GENPOT engine) unchanged.  Results are bit-identical to the serial
    backend: workers run the same pure kernels on the same task bytes,
    and the driver returns results in task order.

    Every task enters one shared queue drained by one persistent driver
    thread per live worker, the moment the driver submits it.  See the
    module docstring for the failure model; the counters
    ``resubmissions``, ``workers_lost`` and ``degraded_tasks`` record how
    much of it a run exercised.

    Parameters
    ----------
    addresses:
        ``(host, port)`` pairs of running ``repro-worker`` daemons.
    config:
        Timeouts and retry policy (:class:`RemoteExecutorConfig`).
    fallback:
        The bottom of the degradation ladder when no worker answers: an
        executor (e.g. a
        :class:`repro.parallel.executor.SerialFragmentExecutor`) that runs
        the remaining tasks, or ``None`` (default) to fail them with
        :class:`NoRemoteWorkersError`.
    """

    # Workers are the compute nodes: even a batch of one goes out.
    _driver_computes = False

    def __init__(
        self,
        addresses: Sequence[tuple[str, int]],
        config: RemoteExecutorConfig | None = None,
        fallback=None,
    ) -> None:
        super().__init__()
        self.config = config or RemoteExecutorConfig()
        self._handles = [_WorkerHandle(a, self.config) for a in addresses]
        self._fallback = fallback
        self.resubmissions = 0
        self.workers_lost = 0
        self.degraded_tasks = 0
        self._last_heartbeat = time.monotonic()
        # Dispatch state: a shared work deque drained by one persistent
        # thread per live worker, so tasks flow to workers the moment the
        # driver submits them.
        self._stream_lock = threading.Lock()
        self._stream_cond = threading.Condition(self._stream_lock)
        self._stream_queue: deque = deque()
        self._stream_threads: dict[int, threading.Thread] = {}
        self._stream_stop = False
        self._stream_dead = False

    # -- bookkeeping ---------------------------------------------------
    @property
    def n_workers(self) -> int:
        """Live worker count (at least 1, so scheduling math never degenerates)."""
        return max(1, len(self._live_handles()))

    @property
    def bytes_sent(self) -> int:
        """Driver-to-worker bytes over this executor's connections."""
        return sum(h.conn.bytes_sent for h in self._handles)

    @property
    def bytes_received(self) -> int:
        """Worker-to-driver bytes over this executor's connections."""
        return sum(h.conn.bytes_received for h in self._handles)

    def _live_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles if h.alive]

    # -- health --------------------------------------------------------
    def heartbeat(self) -> int:
        """Ping every live worker; returns how many answered."""
        alive = 0
        for handle in self._live_handles():
            if handle.ping():
                alive += 1
            else:
                self._count(workers_lost=1)
        self._last_heartbeat = time.monotonic()
        return alive

    def _execute(self, tasks: Sequence, kernel) -> ExecutionReport:
        """A batch, with the heartbeat riding ahead of it when one is due."""
        if (
            tasks
            and time.monotonic() - self._last_heartbeat
            >= self.config.heartbeat_interval
        ):
            self.heartbeat()
        return super()._execute(tasks, kernel)

    # -- install channel -----------------------------------------------
    def _broadcast(self, key: str, arr: np.ndarray) -> None:
        """At most one ``install`` frame per key and worker.

        The per-worker ``installed_keys`` set is the dedup that keeps
        repeated installs of one iteration's potential off the wire.
        """
        for handle in self._live_handles():
            if key in handle.installed_keys:
                continue
            try:
                reply = handle.request({"op": "install", "key": key, "payload": arr})
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                handle.mark_dead()
                self._count(workers_lost=1)
                continue
            if reply.get("ok"):
                handle.installed_keys.add(key)
                self._count(install_broadcasts=1)

    # -- dispatch ------------------------------------------------------
    def _submit(self, task, kernel) -> Future:
        """Queue one task for the drain threads — the only way in.

        Tasks enter the shared deque the moment the driver submits them,
        so slab stages overlap with the driver's layout conversion
        exactly like the paper's isend/irecv-under-compute.  With no live
        worker left the task goes straight to the bottom of the ladder
        (:meth:`_resolve_locally`).
        """
        future: Future = Future()
        with self._stream_cond:
            if not self._stream_dead:
                self._ensure_stream_threads()
            dead = self._stream_dead
            if not dead:
                self._stream_queue.append((task, kernel, future))
                self._stream_cond.notify()
        if dead:
            self._resolve_locally(task, kernel, future)
        return future

    def _ensure_stream_threads(self) -> None:
        """Start one drain thread per live worker (caller holds the lock)."""
        for handle in self._live_handles():
            key = id(handle)
            thread = self._stream_threads.get(key)
            if thread is not None and thread.is_alive():
                continue
            thread = threading.Thread(
                target=self._stream_drain, args=(handle,), daemon=True
            )
            self._stream_threads[key] = thread
            thread.start()
        if not any(t.is_alive() for t in self._stream_threads.values()):
            self._stream_dead = True

    def _stream_drain(self, handle: _WorkerHandle) -> None:
        """Feed one worker from the shared queue until it dies or we close.

        A transport failure marks the worker dead and puts its task back
        at the head of the queue; the thread of a dead worker (however it
        died — mid-task here, or in a heartbeat) retires, and the last one
        to retire hands whatever is still queued to the fallback executor.
        """
        while True:
            leftovers: list = []
            item = None
            with self._stream_cond:
                while (
                    handle.alive
                    and not self._stream_queue
                    and not self._stream_stop
                ):
                    self._stream_cond.wait(0.2)
                if not handle.alive:
                    self._stream_threads.pop(id(handle), None)
                    if any(t.is_alive() for t in self._stream_threads.values()):
                        self._stream_cond.notify_all()
                    else:
                        self._stream_dead = True
                        leftovers = list(self._stream_queue)
                        self._stream_queue.clear()
                elif self._stream_queue:
                    item = self._stream_queue.popleft()
            if item is None:  # worker dead, or closed with nothing queued
                for task, kernel, future in leftovers:
                    self._resolve_locally(task, kernel, future)
                return
            task, kernel, future = item
            if not _claim(future):
                continue
            try:
                result = self._run_one(handle, task, kernel)
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                handle.mark_dead()
                self._count(workers_lost=1, resubmissions=1)
                with self._stream_cond:
                    self._stream_queue.appendleft(item)
                continue
            except Exception as exc:
                future.set_exception(exc)
                continue
            future.set_result(result)

    def _resolve_locally(self, task, kernel, future: Future) -> None:
        """Bottom of the ladder: run one task on the fallback executor."""
        if not _claim(future):
            return
        kind = _KINDS[kernel.__name__]
        fallback = self._fallback
        if fallback is None:
            future.set_exception(
                NoRemoteWorkersError(
                    f"no remote worker answered for a {kind} task "
                    f"(addresses: {[h.conn.address for h in self._handles]}) and "
                    f"no fallback executor was given"
                )
            )
            return
        self._count(degraded_tasks=1)
        runner = {
            "solve": fallback.run,
            "pipeline": fallback.run_pipeline,
            "global": fallback.run_global,
            "bands": fallback.run_bands,
        }[kind]
        try:
            report = runner([task])
        except Exception as exc:
            future.set_exception(exc)
            return
        future.set_result(report.results[0])

    def _run_one(self, handle: _WorkerHandle, task, kernel):
        """One task round trip on one worker, healing a missed install."""
        request = {"op": "task", "kind": _KINDS[kernel.__name__], "task": task}
        reply = handle.request(request)
        if reply.get("error_type") == "PotentialNotInstalledError":
            key = reply.get("key")
            healed = self._heal(task, key)
            if healed is not None:
                reply = handle.request({**request, "task": healed})
                if reply.get("ok"):
                    # The worker installed the payload that rode in with its
                    # key (fragment_task._resolve_potential): later key-only
                    # tasks there resolve, and install_state need not resend.
                    handle.installed_keys.add(key)
        if reply.get("ok"):
            return reply["result"]
        raise RemoteTaskError(
            str(reply.get("error_type")), str(reply.get("error"))
        )

    # -- lifecycle -----------------------------------------------------
    def shutdown_workers(self) -> int:
        """Send ``shutdown`` to every live worker; returns how many acked.

        Every handle asked is dead afterwards, so later batches go
        straight down the degradation ladder instead of reconnecting.
        A deliberate shutdown is not a *lost* worker: ``workers_lost``
        does not move.
        """
        acked = 0
        for handle in self._live_handles():
            try:
                reply = handle.request({"op": "shutdown"})
            except (OSError, ConnectionError, WorkerDiedError, RemoteProtocolError):
                reply = {}
            if reply.get("ok"):
                acked += 1
            handle.mark_dead()
        return acked

    def close(self) -> None:
        """Stop the drain threads and close every connection (workers
        keep running; see :meth:`shutdown_workers`)."""
        with self._stream_cond:
            self._stream_stop = True
            self._stream_cond.notify_all()
        for handle in self._handles:
            handle.conn.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(worker_main())
