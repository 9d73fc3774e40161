"""``repro-serve``: the SCF job daemon over an event-sourced run store.

The daemon fronts one :class:`~repro.store.store.RunStore` with a TCP
request/response protocol on the same ``RPW1`` framing the remote
fragment workers speak (:func:`repro.parallel.remote.send_frame` /
:func:`~repro.parallel.remote.recv_frame`): a 4-byte magic, a length,
a pickled dict.  Clients (:mod:`repro.store.client`) submit problem
specs, query status/events/results and ``wait`` for a run to end (held
server-side, woken the moment a job slot finishes it); the daemon
multiplexes every admitted job onto a small pool of *job slots*, each
owning one long-lived fragment executor, so N concurrent solves share N
warm worker pools instead of spawning per job.

Durability is the store's, not the daemon's: every lifecycle transition
is an appended event, every iteration lands in the run's checkpoint
directory, so the daemon itself is disposable.  ``kill -9`` it, start a
new one over the same root, and the startup scan re-enqueues every
non-terminal run with ``resume=True`` — the solve continues from the
latest checkpoint and finishes bit-identical to an uninterrupted run
(the guarantee inherited from :mod:`repro.io.checkpoint`, proven in
``tests/test_service.py``).
"""

from __future__ import annotations

import argparse
import os
import queue
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.io.checkpoint import has_checkpoint
from repro.parallel.remote import (
    _DEFAULT_MAX_FRAME,
    _HOST_HELP,
    RemoteProtocolError,
    _Listener,
    _refusal,
    recv_frame,
    send_frame,
)
from repro.store.dedup import build_solver
from repro.store.events import TERMINAL_KINDS
from repro.store.store import RunStore

__all__ = ["SERVICE_PROTOCOL_VERSION", "StoreServer", "serve_main"]

#: Bumped on any incompatible change to the request/response dicts.
SERVICE_PROTOCOL_VERSION = 2


def _make_executor_factory(
    backend: str, workers: int
) -> Callable[[], object] | None:
    """Executor factory for one job slot (None = serial in-process)."""
    if backend == "serial":
        return None
    if backend == "process":
        from repro.parallel.executor import ProcessPoolFragmentExecutor

        return lambda: ProcessPoolFragmentExecutor(workers)
    raise ValueError(f"unknown backend {backend!r}")


class StoreServer(_Listener):
    """The SCF-as-a-service daemon: admission, scheduling, queries.

    Parameters
    ----------
    root:
        The run store root to serve (shared with any other process that
        mounts the same directory — coordination is the store's file
        locks).
    host, port:
        Bind address (see :class:`repro.parallel.remote._Listener`).
    job_slots:
        Number of concurrent solves; each slot owns one executor from
        ``executor_factory`` for its whole lifetime (the shared pool).
    executor_factory:
        Zero-argument callable building one slot's fragment executor;
        None runs fragments serially in the slot thread.
    """

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        job_slots: int = 1,
        executor_factory: Callable[[], object] | None = None,
        max_frame_bytes: int = _DEFAULT_MAX_FRAME,
    ) -> None:
        if job_slots < 1:
            raise ValueError("job_slots must be positive")
        super().__init__(host, port, max_frame_bytes)
        self.store = RunStore(root)
        self.job_slots = int(job_slots)
        self.executor_factory = executor_factory
        self.jobs_started = 0
        self.jobs_finished = 0
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._queued: set[str] = set()
        # Notified whenever a job slot lets go of a run, and on stop.
        self._done = threading.Condition(self._lock)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Recover pending runs, bind, and serve; returns the address.

        The startup scan is the auto-resume half of the crash story:
        every run whose stream is not terminal — submitted but never
        scheduled, or killed mid-solve — is re-enqueued before the
        socket even opens, so a restarted daemon needs no client help
        to finish interrupted work.
        """
        for run_id in self.store.pending_runs():
            self._enqueue(run_id)
        address = super().start()
        for slot in range(self.job_slots):
            self._spawn(self._runner_loop, slot)
        return address

    def stop(self) -> None:
        """Stop serving and release every held ``wait`` request."""
        super().stop()
        with self._done:
            self._done.notify_all()

    # -- scheduling ----------------------------------------------------
    def _enqueue(self, run_id: str) -> bool:
        """Queue a run unless it is already queued or being solved."""
        with self._lock:
            if run_id in self._queued:
                return False
            self._queued.add(run_id)
        self._queue.put(run_id)
        return True

    def _runner_loop(self, slot: int) -> None:
        executor = None
        try:
            while not self._stop.is_set():
                try:
                    run_id = self._queue.get(timeout=0.2)
                except queue.Empty:
                    continue
                if executor is None and self.executor_factory is not None:
                    executor = self.executor_factory()
                try:
                    self._execute(run_id, executor, slot)
                finally:
                    with self._done:
                        self._queued.discard(run_id)
                        self._done.notify_all()
        finally:
            close = getattr(executor, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass

    def _execute(self, run_id: str, executor, slot: int) -> None:
        """Run one job to a terminal event, always via the resume path."""
        stream = self.store.stream(run_id)
        if stream.read_head()["status"] in TERMINAL_KINDS:
            return
        spec = self.store.spec(run_id)
        ckpt = self.store.checkpoint_dir(run_id)
        resumed = has_checkpoint(ckpt)
        stream.append(
            "scheduled",
            {"resumed": resumed, "pid": os.getpid(), "slot": int(slot)},
        )
        with self._lock:
            self.jobs_started += 1
        try:
            solver, run_kwargs = build_solver(spec, executor=executor)
            result = solver.run(
                checkpoint_dir=ckpt,
                resume=True,
                event_hook=lambda kind, data: stream.append(kind, data),
                **run_kwargs,
            )
        except Exception as exc:
            stream.append(
                "failed",
                {
                    "error_type": type(exc).__name__,
                    "error": str(exc),
                    "traceback": traceback.format_exc(limit=20),
                },
            )
        else:
            stream.append(
                "converged",
                {
                    "converged": bool(result.converged),
                    "iterations": int(result.iterations),
                    "energy": float(result.total_energy),
                },
                payload_arrays={
                    "density": result.density,
                    "potential": result.potential,
                    "energy": np.float64(result.total_energy),
                },
            )
        finally:
            with self._lock:
                self.jobs_finished += 1

    # -- serving -------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request, _ = recv_frame(conn, self.max_frame_bytes)
                except (ConnectionError, OSError, EOFError):
                    return
                except RemoteProtocolError:
                    return
                try:
                    reply = self._handle(request)
                except Exception as exc:  # never kill the daemon on a request
                    reply = {
                        "ok": False,
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                    }
                try:
                    send_frame(conn, reply, self.max_frame_bytes)
                except (ConnectionError, OSError):
                    return

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "hello":
            if request.get("version") != SERVICE_PROTOCOL_VERSION:
                return _refusal(
                    f"service protocol mismatch: client "
                    f"{request.get('version')} != server "
                    f"{SERVICE_PROTOCOL_VERSION}"
                )
            return {
                "ok": True,
                "pid": os.getpid(),
                "version": SERVICE_PROTOCOL_VERSION,
                "root": str(self.store.root),
            }
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            receipt = self.store.submit(
                request["spec"], client=str(request.get("client", "remote"))
            )
            head = self.store.read_head(receipt.run_id)
            queued = False
            if head["status"] not in TERMINAL_KINDS:
                queued = self._enqueue(receipt.run_id)
            return {
                "ok": True,
                "run_id": receipt.run_id,
                "signature": receipt.signature,
                "attached": receipt.attached,
                "queued": queued,
                "status": head["status"],
            }
        if op == "status":
            return {"ok": True, "head": self.store.read_head(request["run_id"])}
        if op == "wait":
            return {"ok": True, "head": self._wait(request["run_id"], request["poll"])}
        if op == "events":
            events = self.store.events(
                request["run_id"], since_seq=int(request.get("since_seq", 0))
            )
            return {"ok": True, "events": [e.to_json() for e in events]}
        if op == "result":
            result = self.store.result(request["run_id"])
            return {"ok": True, "result": result}
        if op == "runs":
            return {
                "ok": True,
                "runs": {
                    run_id: self.store.read_head(run_id)["status"]
                    for run_id in self.store.run_ids()
                },
            }
        if op == "stats":
            with self._lock:
                return {
                    "ok": True,
                    "jobs_started": self.jobs_started,
                    "jobs_finished": self.jobs_finished,
                    "queued": len(self._queued),
                }
        if op == "shutdown":
            # Reply first (the client awaits it), then stop; interrupted
            # solves are no loss — the next daemon resumes them.  Held
            # waits are released by the stop() that ends serve_main.
            self._stop.set()
            return {"ok": True}
        return _refusal(f"unknown op {op!r}")

    def _wait(self, run_id: str, poll: float) -> dict:
        """The run's head once terminal, or after at most ``poll`` seconds.

        A job slot of this daemon finishing the run wakes the request at
        once; a run finished by another process over the same root is
        seen at the next ``poll`` boundary.
        """
        deadline = time.monotonic() + float(poll)
        with self._done:
            while True:
                head = self.store.read_head(run_id)
                remaining = deadline - time.monotonic()
                if (
                    head["status"] in TERMINAL_KINDS
                    or remaining <= 0
                    or self._stop.is_set()
                ):
                    return head
                self._done.wait(remaining)


def serve_main(argv: Sequence[str] | None = None) -> int:
    """``repro-serve`` entry point: serve a run store until shut down.

    Prints ``REPRO-SERVE LISTENING <host> <port>`` on stdout once bound
    (port 0 resolves to the OS-assigned port) so spawners and shell
    scripts can scrape the address; then blocks until a ``shutdown``
    frame or Ctrl-C.  Restarting over the same ``--root`` auto-resumes
    every interrupted run.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "LS3DF SCF-as-a-service daemon over an event-sourced run "
            "store (trusted networks only)."
        ),
    )
    parser.add_argument("--root", required=True, help="run store root directory")
    parser.add_argument("--host", default="127.0.0.1", help=_HOST_HELP)
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = any)")
    parser.add_argument(
        "--job-slots", type=int, default=1, help="concurrent solves"
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "process"),
        default="serial",
        help="fragment executor each job slot owns",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="workers per slot executor"
    )
    args = parser.parse_args(argv)
    server = StoreServer(
        args.root,
        host=args.host,
        port=args.port,
        job_slots=args.job_slots,
        executor_factory=_make_executor_factory(args.backend, args.workers),
    )
    host, port = server.start()
    print(f"REPRO-SERVE LISTENING {host} {port}", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
    return 0
