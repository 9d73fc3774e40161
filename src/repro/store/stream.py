"""One run's append-only event stream, crash-safe and multi-writer-safe.

A stream is a directory::

    <run_dir>/
        events.log        # newline-framed checksummed records (events.py)
        head.json         # snapshot cache: O(1) catch-up state
        stream.lock       # FileLock serialising writers
        payload-NNNNNN.npz  # sidecar arrays (one per payload-carrying event)

Durability ladder: one fsync commits an event.  A payload ``.npz`` is
written durably (``write_npz_atomic``) *before* the record that names
it; the record append is then flushed and fsynced, and that fsync is
the commit (the log's creation also fsyncs the directory).  A kill at
any byte leaves either a fully valid log, or a valid log plus a *torn
tail* that replay ignores and the next locked append truncates away —
never a lie.  ``head.json`` is a cache, not a commit: it is replaced by
a rename after the log fsync but never fsynced itself, so after a crash
it is at worst older than the log, absent or empty, and both readers
fold the log forward from whatever it holds.

``head.json`` is the snapshot index: the folded state of every event up
to a byte ``offset`` into the log.  :meth:`EventStream.read_head` reads
it and folds only the (typically zero) records past the offset, so a
``status`` query is O(1) in the run's history and never opens a
payload ``.npz``.

Fault injection follows the :mod:`repro.parallel.faults` style: an
:class:`AppendFaultPlan` attached to a stream kills configured appends
after a configured number of bytes — deterministically, so the crash
battery in ``tests/test_store.py`` replays exactly.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

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
HEAD_NAME = "head.json"
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
    skip_head_update_at:
        Event ``seq`` values whose append writes the full record but
        dies *before* the ``head.json`` snapshot update — the
        stale-snapshot crash window, which catch-up must absorb.
    """

    torn_at: Mapping[int, int] = field(default_factory=dict)
    skip_head_update_at: tuple = ()

    def bytes_before_kill(self, seq: int) -> int | None:
        """Bytes to write for ``seq`` before dying, or None for no fault."""
        value = self.torn_at.get(int(seq))
        return None if value is None else int(value)

    def kills_head_update(self, seq: int) -> bool:
        """Whether the ``seq`` append dies between log append and head write."""
        return int(seq) in self.skip_head_update_at


def _empty_head() -> dict:
    return {
        "format": "repro-run-head",
        "seq": -1,
        "offset": 0,
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


def fold_head(head: dict, event: Event, offset: int) -> dict:
    """Fold one event into the snapshot-index state (pure function).

    Parameters
    ----------
    head:
        The state before the event (not mutated).
    event:
        The event to fold.
    offset:
        Byte offset just past the event's record in the log.

    Returns
    -------
    dict
        The updated head: latest ``seq``/``offset``, the derived
        lifecycle ``status``, client/solve counters, last iteration
        metrics, and the terminal result payload reference — everything
        a ``status`` query needs, none of it requiring a payload read.
    """
    out = dict(head)
    out["seq"] = event.seq
    out["offset"] = int(offset)
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

    @property
    def head_path(self) -> Path:
        """The snapshot-index file."""
        return self.run_dir / HEAD_NAME

    def _lock(self) -> FileLock:
        return FileLock(self.run_dir / LOCK_NAME, timeout=self.lock_timeout)

    def payload_path(self, name: str) -> Path:
        """Absolute path of a payload file named by an event."""
        return self.run_dir / name

    # -- write side ----------------------------------------------------
    def append(
        self,
        kind: str,
        data: dict | None = None,
        payload_arrays: Mapping[str, np.ndarray] | None = None,
    ) -> Event:
        """Append one event under the stream's file lock.

        The append is serialised against every other writer (thread or
        process) by ``stream.lock``; inside the lock it first heals any
        torn tail a killed writer left (truncating to the last valid
        record), assigns the next contiguous ``seq``, writes the payload
        sidecar (if any) atomically, appends + fsyncs the record (the
        commit), and renames a fresh ``head.json`` cache into place.

        Parameters
        ----------
        kind:
            Event kind (see :data:`repro.store.events.EVENT_KINDS`).
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
            head, _ = self._recover_locked()
            seq = int(head["seq"]) + 1
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
                offset = handle.tell()
            if created:
                fsync_directory(self.run_dir)
            if self.fault_plan is not None and self.fault_plan.kills_head_update(seq):
                raise KilledAppend(
                    f"injected kill before the head update of event seq {seq}"
                )
            head = fold_head(head, event, offset)
            # The cache: whole for readers (the rename), never fsynced.
            tmp = self.head_path.with_name(HEAD_NAME + ".tmp")
            tmp.write_text(json.dumps(head, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, self.head_path)
            return event

    def _recover_locked(self) -> tuple[dict, list[Event]]:
        """Heal the log under the held lock; return the up-to-date head.

        Scans the records past the snapshot's verified ``offset``; a
        torn tail (the signature of a killed append) is truncated away,
        and any events a crashed writer appended without updating the
        snapshot are folded in.  Returns ``(head, tail_events)``.
        """
        head = self._load_snapshot()
        if not self.log_path.exists():
            return head, []
        with open(self.log_path, "rb") as handle:
            handle.seek(int(head["offset"]))
            tail = handle.read()
        events, valid, torn = _scan_records(tail, int(head["seq"]) + 1)
        offset = int(head["offset"])
        for event, end in zip(events, valid):
            head = fold_head(head, event, offset + end)
        if torn:
            # Truncate the torn bytes: the killed append never happened.
            with open(self.log_path, "rb+") as handle:
                handle.truncate(offset + (valid[-1] if valid else 0))
                handle.flush()
                os.fsync(handle.fileno())
        return head, events

    # -- read side -----------------------------------------------------
    def _load_snapshot(self) -> dict:
        if not self.head_path.is_file():
            return _empty_head()
        try:
            head = json.loads(self.head_path.read_text())
        except (OSError, json.JSONDecodeError):  # a torn cache: fold from byte 0
            return _empty_head()
        if head.get("format") != "repro-run-head":
            return _empty_head()
        return head

    def read_head(self) -> dict:
        """The run's current folded state — O(1), zero payload reads.

        Reads ``head.json`` and folds only the records the snapshot has
        not seen yet (normally none; bounded by the events of a single
        crashed append window).  Purely a read: the log is never
        truncated or rewritten, no lock is taken, and no payload
        ``.npz`` is ever opened.
        """
        head = self._load_snapshot()
        if not self.log_path.exists():
            return head
        size = self.log_path.stat().st_size
        if size <= int(head["offset"]):
            return head
        with open(self.log_path, "rb") as handle:
            handle.seek(int(head["offset"]))
            tail = handle.read()
        events, valid, _torn = _scan_records(tail, int(head["seq"]) + 1)
        offset = int(head["offset"])
        for event, end in zip(events, valid):
            head = fold_head(head, event, offset + end)
        return head

    def replay(self, since_seq: int = 0) -> list[Event]:
        """All valid events with ``seq >= since_seq``, torn tail ignored."""
        if not self.log_path.exists():
            return []
        raw = self.log_path.read_bytes()
        events, _valid, _torn = _scan_records(raw, 0)
        return [e for e in events if e.seq >= int(since_seq)]

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


def _scan_records(
    raw: bytes, first_seq: int
) -> tuple[list[Event], list[int], bool]:
    """Decode a byte run of records, tolerating only a torn tail.

    Parameters
    ----------
    raw:
        Record bytes starting at a record boundary.
    first_seq:
        The ``seq`` the first record must carry (contiguity check).

    Returns
    -------
    tuple
        ``(events, end_offsets, torn)`` — the valid events, each one's
        end offset relative to ``raw``, and whether torn tail bytes
        follow them.

    Raises
    ------
    StoreCorruptionError
        Invalid bytes *followed by* further newline-terminated data, or
        a sequence-number discontinuity — damage no crash can explain.
    """
    events: list[Event] = []
    ends: list[int] = []
    pos = 0
    expected = int(first_seq)
    while pos < len(raw):
        newline = raw.find(b"\n", pos)
        if newline < 0:
            return events, ends, True  # torn tail: no newline
        line = raw[pos : newline + 1]
        try:
            event = decode_record(line)
        except TornRecordError as exc:
            if newline + 1 >= len(raw):
                return events, ends, True  # torn tail: last line invalid
            raise StoreCorruptionError(
                f"invalid record at byte {pos} followed by further data: {exc}"
            ) from exc
        if event.seq != expected:
            raise StoreCorruptionError(
                f"record at byte {pos} carries seq {event.seq}, expected "
                f"{expected} (lost or duplicated append)"
            )
        events.append(event)
        ends.append(newline + 1)
        pos = newline + 1
        expected += 1
    return events, ends, False
