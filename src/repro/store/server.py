"""``repro-serve``: the SCF job daemon over an event-sourced run store.

The daemon fronts one :class:`~repro.store.store.RunStore` with a TCP
request/response protocol on the same ``RPW1`` framing the remote
fragment workers speak (:func:`repro.parallel.remote.send_frame` /
:func:`~repro.parallel.remote.recv_frame`): a 4-byte magic, a length,
a pickled dict.  Clients (:mod:`repro.store.client`) submit problem
specs, query status/events/results and ``wait`` for a run to end (held
server-side, woken the moment a job slot finishes it); the daemon
multiplexes every admitted job onto a small pool of *job slots*, each a
forked process that solves one run at a time and dies with the daemon,
so N concurrent solves run on N cores instead of sharing one
interpreter lock.

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
import ctypes
import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Sequence

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

__all__ = ["SERVICE_PROTOCOL_VERSION", "StoreServer", "run_job", "serve_main"]

#: Bumped on any incompatible change to the request/response dicts.
SERVICE_PROTOCOL_VERSION = 2

_FORK = multiprocessing.get_context("fork")


def _die_with(parent: int) -> None:
    """Have the kernel SIGKILL this process when ``parent`` dies (Linux).

    The signal follows the *thread* that forked this process; the
    re-check covers a parent that died before ``prctl`` took effect.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):  # pragma: no cover - not Linux
        pass
    else:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def run_job(root: str | Path, run_id: str, slot: int) -> None:
    """Run one job to a terminal event, always via the resume path.

    The whole job of a slot process: ``scheduled``, the solver's
    ``iteration`` / ``checkpointed`` events and ``converged`` or
    ``failed`` go to the run's stream under its file lock.
    """
    store = RunStore(root)
    stream = store.stream(run_id)
    ckpt = store.checkpoint_dir(run_id)
    stream.append("scheduled", {"resumed": has_checkpoint(ckpt), "pid": os.getpid(), "slot": int(slot)})
    try:
        solver, run_kwargs = build_solver(store.spec(run_id))
        result = solver.run(
            checkpoint_dir=ckpt, resume=True, event_hook=lambda kind, data: stream.append(kind, data), **run_kwargs
        )
    except Exception as exc:
        error = {"error_type": type(exc).__name__, "error": str(exc), "traceback": traceback.format_exc(limit=20)}
        stream.append("failed", error)
    else:
        energy = float(result.total_energy)
        stream.append(
            "converged",
            {"converged": bool(result.converged), "iterations": int(result.iterations), "energy": energy},
            payload_arrays={"density": result.density, "potential": result.potential, "energy": np.float64(energy)},
        )


def _slot_main(root: Path, slot: int, parent: int, conn) -> None:
    """A job slot's process: solve each run id the daemon sends, then reply."""
    _die_with(parent)
    # Ctrl-C reaches the whole process group; a slot it killed first would
    # read as a dead slot and fail its run instead of leaving it to resume.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            run_id = conn.recv()
        except EOFError:
            return
        run_job(root, run_id, slot)
        conn.send(run_id)


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
        Number of concurrent solves, each in a process forked by
        :meth:`start` — call it from a thread that outlives the server,
        since the slots die with the thread that forked them.
    """

    def __init__(
        self, root: str | Path, host: str = "127.0.0.1", port: int = 0, job_slots: int = 1,
        max_frame_bytes: int = _DEFAULT_MAX_FRAME,
    ) -> None:
        if job_slots < 1:
            raise ValueError("job_slots must be positive")
        super().__init__(host, port, max_frame_bytes)
        self.store = RunStore(root)
        self.job_slots = int(job_slots)
        self.jobs_started = 0
        self.jobs_finished = 0
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._queued: set[str] = set()
        # Per slot: (process, the daemon's end of its pipe), None once dead.
        self._slots: list = [None] * self.job_slots
        # Notified whenever a job slot lets go of a run, and on stop.
        self._done = threading.Condition(self._lock)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Recover pending runs, fork the slots, bind, and serve.

        The startup scan is the auto-resume half of the crash story:
        every run whose stream is not terminal — submitted but never
        scheduled, or killed mid-solve — is re-enqueued before the
        socket even opens, so a restarted daemon needs no client help
        to finish interrupted work.  The slots are forked before the
        listener or any thread exists, so they inherit no socket and
        no held lock.
        """
        for run_id in self.store.pending_runs():
            self._enqueue(run_id)
        for slot in range(self.job_slots):
            self._fork(slot)
        address = super().start()
        for slot in range(self.job_slots):
            self._spawn(self._runner_loop, slot)
        return address

    def stop(self) -> None:
        """Stop serving, kill the slots and release every held ``wait``.

        An in-flight solve is not waited for: its run is not terminal,
        so the next daemon over the same root resumes it.
        """
        super().stop()
        with self._lock:  # no _fork after this: it checks _stop under the lock
            processes = [entry[0] for entry in self._slots if entry is not None]
        for process in processes:
            process.kill()
            process.join()
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

    def _fork(self, slot: int) -> bool:
        """Fork one slot's process; False once the server is stopping."""
        # Under the lock: a concurrent fork must not inherit this pipe's
        # child end, or the slot's death would never read as EOF here.  A
        # re-fork runs beside the daemon's threads; the child touches no
        # lock of theirs, only the store's files and the solver.
        with self._lock:
            if self._stop.is_set():
                return False
            conn, child = _FORK.Pipe()
            args = (self.store.root, slot, os.getpid(), child)
            process = _FORK.Process(target=_slot_main, args=args, daemon=True)
            process.start()
            child.close()
            self._slots[slot] = (process, conn)
            return True

    def _runner_loop(self, slot: int) -> None:
        while not self._stop.is_set():
            try:
                run_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                if self.store.read_head(run_id)["status"] not in TERMINAL_KINDS:
                    self._execute(run_id, slot)
            finally:
                with self._done:
                    self._queued.discard(run_id)
                    self._done.notify_all()

    def _execute(self, run_id: str, slot: int) -> None:
        """Have the slot's process run one job; its death fails only that run.

        A slot whose process died is forked afresh when it takes its
        next run, from the daemon's code as it is then.
        """
        if self._slots[slot] is None and not self._fork(slot):
            return
        process, conn = self._slots[slot]
        with self._lock:
            self.jobs_started += 1
        try:
            conn.send(run_id)
            conn.recv()
        except (EOFError, OSError):
            self._slots[slot] = None
            conn.close()
            process.join()
            stream = self.store.stream(run_id)
            if not self._stop.is_set() and not stream.is_terminal():
                error = f"job slot {slot} process {process.pid} died with exit code {process.exitcode}"
                stream.append("failed", {"error_type": "SlotProcessDied", "error": error, "exitcode": process.exitcode})
        finally:
            with self._lock:
                self.jobs_finished += 1

    # -- serving -------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request, _ = recv_frame(conn, self.max_frame_bytes)
                except (OSError, EOFError, RemoteProtocolError):
                    return
                try:
                    reply = self._handle(request)
                except Exception as exc:  # never kill the daemon on a request
                    reply = {"ok": False, "error_type": type(exc).__name__, "error": str(exc)}
                try:
                    send_frame(conn, reply, self.max_frame_bytes)
                except (ConnectionError, OSError):
                    return

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "hello":
            if request.get("version") != SERVICE_PROTOCOL_VERSION:
                return _refusal(
                    f"service protocol mismatch: client {request.get('version')} != server {SERVICE_PROTOCOL_VERSION}"
                )
            return {"ok": True, "pid": os.getpid(), "version": SERVICE_PROTOCOL_VERSION, "root": str(self.store.root)}
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            receipt = self.store.submit(request["spec"], client=str(request.get("client", "remote")))
            head = self.store.read_head(receipt.run_id)
            queued = head["status"] not in TERMINAL_KINDS and self._enqueue(receipt.run_id)
            return {
                "ok": True, "run_id": receipt.run_id, "signature": receipt.signature,
                "attached": receipt.attached, "queued": queued, "status": head["status"],
            }
        if op == "status":
            return {"ok": True, "head": self.store.read_head(request["run_id"])}
        if op == "wait":
            return {"ok": True, "head": self._wait(request["run_id"], request["poll"])}
        if op == "events":
            events = self.store.events(request["run_id"], since_seq=int(request.get("since_seq", 0)))
            return {"ok": True, "events": [e.to_json() for e in events]}
        if op == "result":
            return {"ok": True, "result": self.store.result(request["run_id"])}
        if op == "runs":
            return {"ok": True, "runs": {run_id: self.store.read_head(run_id)["status"] for run_id in self.store.run_ids()}}
        if op == "stats":
            with self._lock:
                return {
                    "ok": True, "jobs_started": self.jobs_started, "jobs_finished": self.jobs_finished,
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
                if head["status"] in TERMINAL_KINDS or remaining <= 0 or self._stop.is_set():
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
        description="LS3DF SCF-as-a-service daemon over an event-sourced run store (trusted networks only).",
    )
    parser.add_argument("--root", required=True, help="run store root directory")
    parser.add_argument("--host", default="127.0.0.1", help=_HOST_HELP)
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = any)")
    parser.add_argument("--job-slots", type=int, default=1, help="concurrent solves, one process each")
    parser.add_argument("--backend", choices=("serial",), default="serial", help="fragments run serially in a slot")
    args = parser.parse_args(argv)
    server = StoreServer(args.root, host=args.host, port=args.port, job_slots=args.job_slots)
    host, port = server.start()
    print(f"REPRO-SERVE LISTENING {host} {port}", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
    return 0
