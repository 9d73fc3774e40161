"""The ``RPW1`` wire format: the one module that knows how a frame looks.

Every message between a driver and a ``repro-worker``
(:mod:`repro.parallel.remote`) and between a client and the
``repro-serve`` daemon (:mod:`repro.store.server`,
:mod:`repro.store.client`) is one *frame*: a 4-byte magic ``b"RPW1"``,
an 8-byte big-endian unsigned payload length, then a pickled python
object.  This module imports nothing from the solver, so a process that
only talks to a daemon (``repro-submit``) loads the framing and nothing
else.

Security: frames are pickles — speak this protocol only with hosts and
networks you trust, exactly like ``multiprocessing`` or MPI.
"""

from __future__ import annotations

import pickle
import socket
import struct

__all__ = [
    "PROTOCOL_VERSION",
    "SERVICE_PROTOCOL_VERSION",
    "RemoteProtocolError",
    "recv_frame",
    "send_frame",
]

#: Version of the ``repro-worker`` ops, checked by the ``hello`` handshake.
PROTOCOL_VERSION = 1
#: Version of the ``repro-serve`` request/response dicts; bumped on any
#: incompatible change to them.
SERVICE_PROTOCOL_VERSION = 4

_MAGIC = b"RPW1"
_HEADER = struct.Struct(">4sQ")
_DEFAULT_MAX_FRAME = 1 << 30


class RemoteProtocolError(RuntimeError):
    """The byte stream violated the framing or handshake protocol."""


def send_frame(sock: socket.socket, obj, max_bytes: int = _DEFAULT_MAX_FRAME) -> int:
    """Pickle ``obj`` and send it as one length-prefixed frame.

    Parameters
    ----------
    sock:
        A connected stream socket.
    obj:
        Any picklable object.
    max_bytes:
        Refuse to send payloads larger than this (a guard against
        runaway task payloads, mirrored on the receive side).

    Returns
    -------
    int
        Bytes written, header included.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_bytes:
        raise RemoteProtocolError(
            f"frame of {len(payload)} bytes exceeds the {max_bytes}-byte limit"
        )
    data = _HEADER.pack(_MAGIC, len(payload)) + payload
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_bytes: int = _DEFAULT_MAX_FRAME):
    """Receive one frame and unpickle it.

    Returns
    -------
    tuple
        ``(obj, nbytes)`` — the decoded object and the total bytes read.

    Raises
    ------
    RemoteProtocolError
        Wrong magic, an over-limit length or a payload that does not
        unpickle (stream corruption).
    ConnectionError
        The peer closed the connection mid-frame.  A header may claim up
        to ``max_bytes``; memory grows only with the bytes that arrive.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise RemoteProtocolError(f"bad frame magic {magic!r}")
    if length > max_bytes:
        raise RemoteProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = _recv_exact(sock, int(length))
    try:
        obj = pickle.loads(payload)
    except Exception as exc:  # damage inside the pickle: any type can come out
        raise RemoteProtocolError(f"frame payload does not unpickle: {exc!r}") from exc
    return obj, _HEADER.size + int(length)
