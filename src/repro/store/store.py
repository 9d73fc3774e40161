"""The run store facade: submit-with-dedup, queries, and run layout.

A store root looks like::

    <root>/
        runs/
            run-<sig16>/      # content-addressed: the directory is the index
                events.log    # the run's event stream (stream.py); its
                              # first record, "submitted", carries the spec
                stream.lock   # serialises the run's writers, submits too
                payload-*.npz
                checkpoint/   # LS3DFSCF checkpoints (repro.io.checkpoint)

A run id is ``run-`` plus the first 16 hex digits of the problem
signature, so dedup is a look at one directory: a submit never reads
another run's files or takes another run's lock, whatever the size of
the store, so submits of different specs never wait for each other.
A run exists once its ``submitted`` event — the canonical spec in its
``data["spec"]`` — is in the log; ``run_ids`` lists ``runs/``.

:class:`RunStore` is deliberately daemon-free: it is the persistence
layer both the ``repro-serve`` daemon and offline tools share.  Two
*processes* holding the same root cooperate purely through the file
locks — which is exactly what the crash/concurrency battery in
``tests/test_store.py`` exercises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.store.dedup import canonical_spec, problem_signature
from repro.store.events import TERMINAL_KINDS, Event, TornRecordError, decode_record
from repro.store.stream import EventStream

__all__ = ["RunStore", "SubmitReceipt", "UnknownRunError"]

RUNS_DIR = "runs"
_RUN_ID = re.compile(r"run-[0-9a-f]{16}")


class UnknownRunError(LookupError):
    """A run id that is malformed or names no submitted run."""


@dataclass(frozen=True)
class SubmitReceipt:
    """What a client gets back from :meth:`RunStore.submit`.

    Attributes
    ----------
    run_id:
        The run the submission landed on (new or existing).
    signature:
        The spec's content-addressed problem signature.
    attached:
        False when this submit created the run; True when it
        deduplicated onto an existing stream (an ``attached`` event was
        appended instead of a new run being born).
    """

    run_id: str
    signature: str
    attached: bool


class RunStore:
    """Event-sourced store of LS3DF runs under one root directory.

    Parameters
    ----------
    root:
        Store root (created on first use).
    lock_timeout:
        Seconds to wait for a run's stream lock.
    """

    def __init__(self, root: str | Path, lock_timeout: float = 30.0) -> None:
        self.root = Path(root)
        self.lock_timeout = float(lock_timeout)

    # -- layout --------------------------------------------------------
    @property
    def runs_root(self) -> Path:
        """Directory holding one subdirectory per run."""
        return self.root / RUNS_DIR

    def run_dir(self, run_id: str) -> Path:
        """A run's directory (existence not checked, the id's form is)."""
        if not isinstance(run_id, str) or _RUN_ID.fullmatch(run_id) is None:
            raise UnknownRunError(f"malformed run id {run_id!r}")
        return self.runs_root / run_id

    def checkpoint_dir(self, run_id: str) -> Path:
        """Where a run's SCF checkpoints live."""
        return self.run_dir(run_id) / "checkpoint"

    def stream(self, run_id: str) -> EventStream:
        """The run's event stream."""
        return EventStream(self.run_dir(run_id), lock_timeout=self.lock_timeout)

    # -- write side ----------------------------------------------------
    def submit(self, spec: dict, client: str = "anonymous") -> SubmitReceipt:
        """Submit a problem, deduplicating on its signature.

        In one acquisition of the lock of the run the signature names,
        look at its log: if it opens with a ``submitted`` event of the
        same spec, append an ``attached`` event and report
        ``attached=True``; otherwise append the ``submitted`` event
        carrying the spec — the commit point — so a kill at any point
        leaves either a complete run or a directory the next identical
        submit simply reuses.

        Parameters
        ----------
        spec:
            Problem spec (see :func:`repro.store.dedup.canonical_spec`).
        client:
            Free-form client label recorded in the event.

        Returns
        -------
        SubmitReceipt

        Raises
        ------
        ValueError
            The run's ``submitted`` event holds a different spec (a
            16-hex-digit signature prefix collision).
        """
        spec = canonical_spec(spec)
        signature = problem_signature(spec)
        run_id = f"run-{signature[:16]}"
        data = {"client": client, "signature": signature}

        def submitted_or_attached(events: list[Event]) -> tuple[str, dict]:
            if not events or events[0].kind != "submitted":
                return "submitted", dict(data, spec=spec)
            if events[0].data.get("spec") != spec:
                raise ValueError(f"run id {run_id} already holds a different spec")
            return "attached", data

        event = self.stream(run_id).append(submitted_or_attached)
        return SubmitReceipt(run_id=run_id, signature=signature, attached=event.kind == "attached")

    # -- read side -----------------------------------------------------
    def _submitted(self, run_id: str) -> Event | None:
        """The run's ``submitted`` event, or None if not committed."""
        try:
            with open(self.stream(run_id).log_path, "rb") as handle:
                first = decode_record(handle.readline())
        except (OSError, TornRecordError):
            return None
        return first if first.kind == "submitted" else None

    def run_ids(self) -> list[str]:
        """All submitted runs, oldest first."""
        if not self.runs_root.is_dir():
            return []
        stamped = []
        for entry in self.runs_root.iterdir():
            if _RUN_ID.fullmatch(entry.name) is None:
                continue
            submitted = self._submitted(entry.name)
            if submitted is not None:
                stamped.append((submitted.ts, entry.name))
        return [run_id for _, run_id in sorted(stamped)]

    def spec(self, run_id: str) -> dict:
        """A run's canonical spec, from its ``submitted`` event.

        Raises
        ------
        UnknownRunError
            The id is malformed or no run was submitted under it.
        """
        submitted = self._submitted(run_id)
        if submitted is None:
            raise UnknownRunError(f"no run {run_id!r} in {self.root}")
        return submitted.data["spec"]

    def read_head(self, run_id: str) -> dict:
        """The run's status, folded from its log — never touches payloads.

        Raises
        ------
        UnknownRunError
            The id is malformed or no run was submitted under it.
        """
        head = self.stream(run_id).read_head()
        if head["seq"] < 0:
            raise UnknownRunError(f"no run {run_id!r} in {self.root}")
        return head

    def events(self, run_id: str, since_seq: int = 0) -> list[Event]:
        """The run's events with ``seq >= since_seq``."""
        self.read_head(run_id)
        return self.stream(run_id).replay(since_seq=since_seq)

    def pending_runs(self) -> list[str]:
        """Runs whose streams are not terminal — the daemon's restart queue."""
        return [
            run_id
            for run_id in self.run_ids()
            if self.read_head(run_id)["status"] not in TERMINAL_KINDS
        ]

    def result(self, run_id: str) -> dict | None:
        """A finished run's result arrays + scalars, or None if still going.

        Returns
        -------
        dict | None
            ``{"density": ndarray, "potential": ndarray, "energy": float,
            "converged": bool, "iterations": int}`` loaded from the
            ``converged`` event's payload; None while the run is not
            terminal; raises on a ``failed`` run.
        """
        head = self.read_head(run_id)
        if head["status"] == "failed":
            raise RuntimeError(f"run {run_id} failed: {head.get('error')}")
        if head["status"] != "converged" or head.get("result_payload") is None:
            return None
        event = Event(
            seq=int(head["seq"]),
            kind="converged",
            ts=float(head.get("updated_ts", 0.0)),
            data={},
            payload=head["result_payload"],
        )
        arrays = self.stream(run_id).load_payload(event)
        return {
            "density": arrays["density"],
            "potential": arrays["potential"],
            "energy": float(np.asarray(arrays["energy"])),
            "converged": bool(head.get("converged", True)),
            "iterations": int(head.get("iteration", 0)),
        }
