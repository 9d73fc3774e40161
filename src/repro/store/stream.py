"""One run's append-only event stream, crash-safe and multi-writer-safe.

A stream is a directory::

    <run_dir>/
        events.log        # newline-framed checksummed records (events.py)
        stream.lock       # FileLock serialising writers
        payload-NNNNNN.npz  # sidecar arrays (one per payload-carrying event)

Durability ladder: one fsync commits an event.  A payload ``.npz`` is
written durably (``write_npz_atomic``) *before* the record that names
it; the record append is then flushed and fsynced, and that fsync is
the commit (the log's creation also fsyncs the directory).  A kill at
any byte leaves either a fully valid log, or a valid log plus a *torn
tail* that replay ignores and the next locked append truncates away —
never a lie.

``events.log`` is the run's only index: :meth:`EventStream.read_head`
folds it from byte 0 (:func:`fold_head`) without a lock and never opens
a payload ``.npz``.  A run's log holds a handful of small records, so
the fold is cheaper than keeping a snapshot file of it up to date.

Fault injection follows the :mod:`repro.parallel.faults` style: an
:class:`AppendFaultPlan` attached to a stream kills configured appends
after a configured number of bytes — deterministically, so the crash
battery in ``tests/test_store.py`` replays exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.io.gridio import fsync_directory, write_npz_atomic
from repro.store.events import (
    TERMINAL_KINDS,
    Event,
    TornRecordError,
    decode_record,
    encode_record,
)
from repro.store.lock import FileLock

__all__ = [
    "AppendFaultPlan",
    "EventStream",
    "KilledAppend",
    "StoreCorruptionError",
    "fold_head",
]

LOG_NAME = "events.log"
LOCK_NAME = "stream.lock"


class StoreCorruptionError(RuntimeError):
    """Invalid record bytes *before* the tail: real corruption, not a crash.

    A kill mid-append can only tear the final record; broken framing
    followed by more records means the log was damaged some other way,
    and replay refuses to guess.
    """


class KilledAppend(RuntimeError):
    """Raised by :class:`AppendFaultPlan` to simulate death mid-append."""


@dataclass
class AppendFaultPlan:
    """What goes wrong, and exactly when (by append sequence number).

    Attributes
    ----------
    torn_at:
        Event ``seq`` -> number of record bytes actually written before
        the simulated kill (0 = the process died before any byte
        landed).  The append writes exactly that prefix, fsyncs it, and
        raises :class:`KilledAppend` — the on-disk state is byte-for-
        byte what a real ``kill -9`` at that point leaves behind.
    """

    torn_at: Mapping[int, int] = field(default_factory=dict)

    def bytes_before_kill(self, seq: int) -> int | None:
        """Bytes to write for ``seq`` before dying, or None for no fault."""
        value = self.torn_at.get(int(seq))
        return None if value is None else int(value)


def _empty_head() -> dict:
    return {
        "seq": -1,
        "status": "empty",
        "kind": None,
        "clients": 0,
        "solves": 0,
        "iteration": 0,
        "checkpointed_iteration": 0,
        "potential_difference": None,
        "energy": None,
        "converged": None,
        "result_payload": None,
        "error": None,
        "updated_ts": 0.0,
    }


def fold_head(head: dict, event: Event) -> dict:
    """Fold one event into the run's head state (pure function).

    Parameters
    ----------
    head:
        The state before the event (not mutated).
    event:
        The event to fold.

    Returns
    -------
    dict
        The updated head: latest ``seq``, the derived
        lifecycle ``status``, client/solve counters, last iteration
        metrics, and the terminal result payload reference — everything
        a ``status`` query needs, none of it requiring a payload read.
    """
    out = dict(head)
    out["seq"] = event.seq
    out["kind"] = event.kind
    out["updated_ts"] = event.ts
    if event.kind == "submitted":
        out["status"] = "submitted"
        out["clients"] = out.get("clients", 0) + 1
    elif event.kind == "attached":
        out["clients"] = out.get("clients", 0) + 1
    elif event.kind == "scheduled":
        out["status"] = "scheduled"
        if not event.data.get("resumed", False):
            out["solves"] = out.get("solves", 0) + 1
    elif event.kind == "iteration":
        out["status"] = "running"
        out["iteration"] = int(event.data.get("iteration", out.get("iteration", 0)))
        out["potential_difference"] = event.data.get("potential_difference")
        out["energy"] = event.data.get("energy")
        if event.data.get("checkpointed"):
            out["checkpointed_iteration"] = out["iteration"]
    elif event.kind == "converged":
        out["status"] = "converged"
        out["converged"] = bool(event.data.get("converged", True))
        out["iteration"] = int(event.data.get("iterations", out.get("iteration", 0)))
        out["energy"] = event.data.get("energy", out.get("energy"))
        out["result_payload"] = event.payload
    elif event.kind == "failed":
        out["status"] = "failed"
        out["error"] = event.data.get("error")
    return out


class EventStream:
    """Append-only, crash-safe event log of one run.

    Parameters
    ----------
    run_dir:
        The run's directory (created on first append).
    lock_timeout:
        Seconds an append waits for a competing writer.
    fault_plan:
        Optional :class:`AppendFaultPlan` for the crash test battery.
    """

    def __init__(
        self,
        run_dir: str | Path,
        lock_timeout: float = 30.0,
        fault_plan: AppendFaultPlan | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.lock_timeout = float(lock_timeout)
        self.fault_plan = fault_plan

    # -- paths ---------------------------------------------------------
    @property
    def log_path(self) -> Path:
        """The record log file."""
        return self.run_dir / LOG_NAME

    def _lock(self) -> FileLock:
        return FileLock(self.run_dir / LOCK_NAME, timeout=self.lock_timeout)

    def payload_path(self, name: str) -> Path:
        """Absolute path of a payload file named by an event."""
        return self.run_dir / name

    # -- write side ----------------------------------------------------
    def append(
        self,
        kind: str | Callable[[list[Event]], tuple[str, dict]],
        data: dict | None = None,
        payload_arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Event:
        """Append one event under the stream's file lock.

        The append is serialised against every other writer (thread or
        process) by ``stream.lock``; inside the lock it first heals any
        torn tail a killed writer left (truncating to the last valid
        record), assigns the next contiguous ``seq``, writes the payload
        sidecar (if any) atomically, and appends + fsyncs the record (the
        commit).

        Parameters
        ----------
        kind:
            Event kind (see :data:`repro.store.events.EVENT_KINDS`), or a
            callable that takes the log's valid events, read under the
            same lock acquisition, and returns ``(kind, data)`` — a check
            and an append no other writer can come between; it may raise
            to refuse the append.
        data:
            Small JSON-serialisable mapping.
        payload_arrays:
            Optional bulk arrays; written to ``payload-<seq>.npz`` via
            :func:`repro.io.gridio.write_npz_atomic` and referenced by
            filename from the event.

        Returns
        -------
        Event
            The appended event (with its assigned ``seq``).
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with self._lock():
            events = self._recover_locked()
            seq = len(events)
            if callable(kind):
                kind, data = kind(events)
            payload_name = None
            if payload_arrays is not None:
                payload_name = f"payload-{seq:06d}.npz"
                write_npz_atomic(self.payload_path(payload_name), **payload_arrays)
            event = Event(
                seq=seq,
                kind=str(kind),
                ts=time.time(),
                data=dict(data or {}),
                payload=payload_name,
            )
            record = encode_record(event)
            created = not self.log_path.exists()
            kill_after = (
                self.fault_plan.bytes_before_kill(seq)
                if self.fault_plan is not None
                else None
            )
            with open(self.log_path, "ab") as handle:
                if kill_after is not None:
                    handle.write(record[:kill_after])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise KilledAppend(
                        f"injected kill after {kill_after} of {len(record)} "
                        f"bytes of event seq {seq}"
                    )
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
            if created:
                fsync_directory(self.run_dir)
            return event

    def _recover_locked(self) -> list[Event]:
        """Heal the log under the held lock; return its valid events.

        Scans the log from byte 0; a torn tail (the signature of a
        killed append) is truncated away.
        """
        events, valid, torn = self._scan()
        if torn:
            # Truncate the torn bytes: the killed append never happened.
            with open(self.log_path, "rb+") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
        return events

    # -- read side -----------------------------------------------------
    def _scan(self) -> tuple[list[Event], int, bool]:
        if not self.log_path.exists():
            return [], 0, False
        return _scan_records(self.log_path.read_bytes())

    def read_head(self) -> dict:
        """The run's current folded state — zero payload reads.

        Folds ``events.log`` from byte 0, torn tail ignored.  Purely a
        read: the log is never truncated or rewritten, no lock is taken,
        and no payload ``.npz`` is ever opened.
        """
        return reduce(fold_head, self._scan()[0], _empty_head())

    def replay(self, since_seq: int = 0) -> list[Event]:
        """All valid events with ``seq >= since_seq``, torn tail ignored."""
        return [e for e in self._scan()[0] if e.seq >= int(since_seq)]

    def is_terminal(self) -> bool:
        """Whether the run has converged or failed."""
        return self.read_head()["status"] in TERMINAL_KINDS

    def load_payload(self, event: Event) -> dict[str, np.ndarray]:
        """Materialise an event's sidecar arrays.

        Parameters
        ----------
        event:
            An event whose ``payload`` names a sidecar ``.npz``.

        Returns
        -------
        dict[str, np.ndarray]
            The stored arrays.
        """
        if event.payload is None:
            raise ValueError(f"event seq {event.seq} carries no payload")
        with np.load(self.payload_path(event.payload)) as payload:
            return {name: payload[name] for name in payload.files}


def _scan_records(raw: bytes) -> tuple[list[Event], int, bool]:
    """Decode a byte run of records, tolerating only a torn tail.

    Parameters
    ----------
    raw:
        The whole log.

    Returns
    -------
    tuple
        ``(events, valid_bytes, torn)`` — the valid events, the length
        of the prefix they fill, and whether torn tail bytes follow it.

    Raises
    ------
    StoreCorruptionError
        Invalid bytes *followed by* further newline-terminated data, or
        a sequence-number discontinuity — damage no crash can explain.
    """
    events: list[Event] = []
    pos = 0
    while pos < len(raw):
        newline = raw.find(b"\n", pos)
        if newline < 0:
            return events, pos, True  # torn tail: no newline
        line = raw[pos : newline + 1]
        try:
            event = decode_record(line)
        except TornRecordError as exc:
            if newline + 1 >= len(raw):
                return events, pos, True  # torn tail: last line invalid
            raise StoreCorruptionError(
                f"invalid record at byte {pos} followed by further data: {exc}"
            ) from exc
        if event.seq != len(events):
            raise StoreCorruptionError(
                f"record at byte {pos} carries seq {event.seq}, expected "
                f"{len(events)} (lost or duplicated append)"
            )
        events.append(event)
        pos = newline + 1
    return events, pos, False
