"""The run store's event record format.

A run's history is a flat file of newline-framed records, one event per
line::

    REV1 <crc32:08x> <length:08d> <json-body>\\n

The fixed-width header makes every record self-describing: ``length``
is the byte length of the JSON body, ``crc32`` its checksum.  A process
killed mid-append leaves a *torn tail* — a final line that is short,
checksum-broken, or missing its newline — which replay detects and
ignores (and the next locked append truncates away).  Torn bytes
anywhere *before* the tail mean real corruption and fail loudly.

The JSON body carries the :class:`Event` fields: a contiguous ``seq``
number (0-based position in the stream), the event ``kind``, a
wall-clock timestamp, a small JSON ``data`` mapping, and optionally the
filename of a sidecar ``.npz`` payload (written separately via
:func:`repro.io.gridio.write_npz_atomic` — bulk arrays never live in
the log itself, which is what keeps ``status`` queries payload-free).
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field

__all__ = [
    "EVENT_KINDS",
    "TERMINAL_KINDS",
    "Event",
    "TornRecordError",
    "decode_record",
    "encode_record",
]

RECORD_MAGIC = "REV1"
_HEADER_LEN = len(RECORD_MAGIC) + 1 + 8 + 1 + 8 + 1  # "REV1 crc8 len8 "
# Exactly what encode_record writes (lowercase hex, zero-padded decimal):
# a lenient int() would let a damaged header ("+", "_", upper case) pass.
_MAGIC = RECORD_MAGIC.encode("ascii") + b" "
_HEADER_RE = re.compile(re.escape(_MAGIC) + rb"([0-9a-f]{8}) ([0-9]{8}) ")

#: Lifecycle vocabulary of a run's event stream, in the order a healthy
#: run emits them.  ``attached`` records a deduplicated second client;
#: ``scheduled`` may repeat (a daemon restart re-schedules with
#: ``resumed: True``); ``iteration`` repeats once per outer iteration and
#: says whether that iteration's checkpoint was written (``checkpointed``).
EVENT_KINDS = (
    "submitted",
    "attached",
    "scheduled",
    "iteration",
    "converged",
    "failed",
)

#: Kinds that end a run: no further solve work follows them.
TERMINAL_KINDS = frozenset({"converged", "failed"})


class TornRecordError(ValueError):
    """A record failed framing or checksum validation.

    At the very end of a log this is the expected signature of a kill
    mid-append (the replayer ignores it); anywhere else it is real
    corruption and surfaces loudly.
    """


@dataclass
class Event:
    """One record of a run's append-only history.

    Attributes
    ----------
    seq:
        0-based, contiguous position in the stream (the append under the
        stream's file lock assigns it).
    kind:
        One of :data:`EVENT_KINDS`.
    ts:
        Wall-clock POSIX timestamp of the append (informational only —
        ordering is ``seq``, never the clock).
    data:
        Small JSON-serialisable mapping (iteration counters, convergence
        metrics, error strings — never bulk arrays).
    payload:
        Filename (relative to the run directory) of a sidecar ``.npz``
        holding this event's bulk arrays, or ``None``.
    """

    seq: int
    kind: str
    ts: float
    data: dict = field(default_factory=dict)
    payload: str | None = None

    def to_json(self) -> dict:
        """Plain-dict form (what rides in the record body and over the wire)."""
        body = {"seq": int(self.seq), "kind": self.kind, "ts": float(self.ts),
                "data": self.data}
        if self.payload is not None:
            body["payload"] = self.payload
        return body

    @classmethod
    def from_json(cls, body: dict) -> "Event":
        """Rebuild an event from its :meth:`to_json` form."""
        return cls(
            seq=int(body["seq"]),
            kind=str(body["kind"]),
            ts=float(body["ts"]),
            data=dict(body.get("data", {})),
            payload=body.get("payload"),
        )


def encode_record(event: Event) -> bytes:
    """Frame one event as a checksummed log line.

    Returns
    -------
    bytes
        ``REV1 <crc32> <length> <json>\\n`` — the exact bytes appended
        to the log.
    """
    body = json.dumps(event.to_json(), sort_keys=True, separators=(",", ":"))
    raw = body.encode("utf-8")
    crc = zlib.crc32(raw) & 0xFFFFFFFF
    return f"{RECORD_MAGIC} {crc:08x} {len(raw):08d} ".encode("ascii") + raw + b"\n"


def decode_record(line: bytes) -> Event:
    """Decode one framed line back into an :class:`Event`.

    Parameters
    ----------
    line:
        One record's bytes, trailing newline included.

    Raises
    ------
    TornRecordError
        Missing newline, malformed header, short body, checksum mismatch
        or a body that is not an event object — the signatures of a
        write cut short.  No other exception escapes, whatever the bytes.
    """
    if not line.endswith(b"\n"):
        raise TornRecordError("record is missing its terminating newline")
    if not line.startswith(_MAGIC):
        raise TornRecordError(f"bad record magic {line[:len(_MAGIC)]!r}")
    header = _HEADER_RE.fullmatch(line[:_HEADER_LEN])
    if header is None:
        raise TornRecordError(f"unparsable record header {line[:_HEADER_LEN]!r}")
    expected_crc = int(header.group(1), 16)
    body_len = int(header.group(2), 10)
    raw = line[_HEADER_LEN:-1]
    if len(raw) != body_len:
        raise TornRecordError(
            f"record body is {len(raw)} bytes, header promised {body_len}"
        )
    if (zlib.crc32(raw) & 0xFFFFFFFF) != expected_crc:
        raise TornRecordError("record checksum mismatch")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TornRecordError("record body is not valid JSON") from exc
    try:
        return Event.from_json(body)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TornRecordError("record body is not an event object") from exc
