"""Socket-backed remote execution: the multi-node fragment backend.

The paper runs LS3DF across thousands of cores by giving every fragment
group its own set of MPI ranks; the driver scatters picklable work units
and gathers results.  This module is the repo's network equivalent: the
``repro-worker`` daemon (:func:`worker_main`: the
:class:`~repro.parallel.executor.WorkerServer` ops over TCP) and
:class:`RemoteExecutor`, the process pool's dispatch engine with its
workers reached by address instead of forked.  TCP adds to the
engine's failure model a timeout on every socket wait (a hung worker
cannot hang the driver), connect retries with backoff, an on-demand
:meth:`RemoteExecutor.heartbeat` ping and an optional ``fallback=``
executor for the tasks no worker is left for.

Security: frames are pickles — run workers only on hosts and networks
you trust, exactly like MPI.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.parallel.executor import (
    NoRemoteWorkersError,
    RemoteTaskError,
    WorkerDiedError,
    WorkerServer,
    _WorkerBackend,
    _WorkerHandle,
)
from repro.parallel.wire import (
    HOST_HELP,
    PROTOCOL_VERSION,
    Connection,
    RemoteProtocolError,
    recv_frame,
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
        booted: list = [None] * self.n

        def boot(i: int) -> None:
            try:
                booted[i] = spawn_daemon(argv, "REPRO-WORKER", self.startup_timeout, stderr=subprocess.DEVNULL)
            except Exception as exc:
                booted[i] = exc

        threads = [threading.Thread(target=boot, args=(i,)) for i in range(self.n)]
        for thread in threads:  # the workers boot side by side
            thread.start()
        for thread in threads:
            thread.join()
        errors = [b for b in booted if isinstance(b, Exception)]
        for proc, address in (b for b in booted if not isinstance(b, Exception)):
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
    max_retries:
        Reconnection attempts per worker on connect failure.
    backoff:
        Initial retry backoff in seconds, growing by ``backoff_factor``.
    backoff_factor:
        Multiplier applied to the backoff after every failed attempt.
    """

    connect_timeout: float = 5.0
    request_timeout: float = 120.0
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0


class _TcpHandle(_WorkerHandle):
    """A worker reached by address: connects lazily, with retries."""

    def __init__(self, address: tuple[str, int], config: RemoteExecutorConfig):
        super().__init__(Connection(address, PROTOCOL_VERSION, config.connect_timeout), config.request_timeout)
        self.config = config

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


class RemoteExecutor(_WorkerBackend):
    """Executor backend running tasks on socket-connected remote workers.

    The engine of :mod:`repro.parallel.executor` with workers behind TCP,
    so it drops into :class:`repro.core.scf.LS3DFSCF` (and the streaming
    GENPOT engine) unchanged, bit-identical to the serial backend; the
    failure ladder and its counters are
    :class:`~repro.parallel.executor._WorkerBackend`'s.

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
        super().__init__(fallback)
        self.config = config or RemoteExecutorConfig()
        self._handles = [_TcpHandle(a, self.config) for a in addresses]

    @property
    def n_workers(self) -> int:
        """Live worker count (at least 1, so scheduling math never degenerates)."""
        return max(1, len(self._live_handles()))

    def heartbeat(self) -> int:
        """Ping every live worker; returns how many answered."""
        alive = 0
        for handle in self._live_handles():
            try:
                alive += bool(handle.request({"op": "ping"}).get("ok"))
            except (OSError, WorkerDiedError, RemoteProtocolError):
                self._lose(handle)
        return alive

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
            except (OSError, WorkerDiedError, RemoteProtocolError):
                reply = {}
            if reply.get("ok"):
                acked += 1
            handle.mark_dead()
        return acked


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(worker_main())
