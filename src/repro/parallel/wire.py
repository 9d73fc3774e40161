"""The ``RPW1`` endpoint: how a frame looks and how a request meets its reply.

Every message between a driver and a ``repro-worker``
(:mod:`repro.parallel.remote`) and between a client and the
``repro-serve`` daemon (:mod:`repro.store.server`,
:mod:`repro.store.client`) is one *frame*: a 4-byte magic ``b"RPW1"``,
an 8-byte big-endian unsigned payload length, then a pickled python
object.  This module imports nothing from the solver, so a process that
only talks to a daemon (``repro-submit``) loads the endpoint and nothing
else.

Wire protocol
-------------
A :class:`Connection` speaks a strict request/response alternation of
dicts with a string ``op``, served by the one loop of :class:`Listener`.
It answers the ops both daemons share itself: ``hello`` (the handshake:
pid and protocol version — :data:`PROTOCOL_VERSION` for a worker,
:data:`SERVICE_PROTOCOL_VERSION` for ``repro-serve`` — a mismatch is
refused and raised as :class:`RemoteProtocolError`) and ``ping``
(heartbeat).  Every other op goes to the daemon's own table.  A frame
that is not a mapping with a string ``op`` and the fields its op needs
gets the typed :func:`refusal`; an op that raises is answered
``{ok: False, error_type, error}``; a framing error or a closed peer
ends only that connection.

Security: frames are pickles — speak this protocol only with hosts and
networks you trust, exactly like MPI.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import sys
import threading

__all__ = [
    "HOST_HELP",
    "PROTOCOL_VERSION",
    "SERVICE_PROTOCOL_VERSION",
    "Connection",
    "Hangup",
    "Listener",
    "RemoteProtocolError",
    "fork_peer",
    "pin_blas",
    "reap",
    "recv_frame",
    "refusal",
    "send_frame",
    "spawn_daemon",
    "stop_daemon",
]

#: Version of the ``repro-worker`` ops, checked by the ``hello`` handshake.
PROTOCOL_VERSION = 3
#: Version of the ``repro-serve`` request/response dicts; bumped on any
#: incompatible change to them.
SERVICE_PROTOCOL_VERSION = 4

_MAGIC = b"RPW1"
_HEADER = struct.Struct(">4sQ")
_DEFAULT_MAX_FRAME = 1 << 30


#: ``--host`` help of both daemons (``repro-worker``, ``repro-serve``).
HOST_HELP = (
    "bind address; frames are unauthenticated pickles, so whoever can "
    "connect can run code as this user - keep the loopback default unless "
    "every host on the network is trusted"
)


class RemoteProtocolError(RuntimeError):
    """The byte stream violated the framing or handshake protocol."""


class Hangup(Exception):
    """Raised by an op to end its connection without a reply; ``stop=True``
    stops the daemon too (the fault injector of :mod:`repro.parallel.faults`)."""

    def __init__(self, stop: bool = False) -> None:
        self.stop = stop


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


def refusal(message: str) -> dict:
    """The typed reply to a request that breaks the protocol."""
    return {"ok": False, "error_type": "RemoteProtocolError", "error": message}


class Listener:
    """A TCP daemon: bind, accept loop, the one serve loop, ``stop``, ``join``.

    One accept loop feeds one daemon thread per connection, each running
    :meth:`_serve_connection` (see the module docstring for what it
    answers itself).  A subclass sets :attr:`VERSION`, lists the fields
    its ops need in :attr:`REQUIRED` and answers every other op in
    ``_handle(request) -> reply``.  Port 0 lets the OS pick a free port,
    published in :attr:`address` after :meth:`start`.
    """

    #: Protocol version a ``hello`` must carry.
    VERSION: int
    #: Fields a request must carry, per op; a frame without them is refused.
    REQUIRED: dict[str, tuple[str, ...]] = {}

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self.address: tuple[str, int] | None = None
        self.bytes_received = 0
        self.bytes_sent = 0
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def start(self) -> tuple[str, int]:
        """Bind, listen and serve in background threads; returns the address."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self.address = (self.host, int(sock.getsockname()[1]))
        self._spawn(self._accept_loop, sock)
        return self.address

    def serve_forever(self, banner: str) -> int:
        """Start, print ``<banner> LISTENING <host> <port>`` (the line
        :func:`spawn_daemon` reads) and block until stopped; returns 0."""
        host, port = self.start()
        print(f"{banner} LISTENING {host} {port}", flush=True)
        try:
            self.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()
        return 0

    def _spawn(self, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        """Stop accepting and close the listening socket (idempotent).

        Once this returns a connect is refused at once rather than parked
        in a backlog nobody serves.
        """
        self._stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                # Wakes the acceptor blocked on this socket, whose pending
                # poll would otherwise keep the backlog open until it times
                # out (Linux; elsewhere ENOTCONN, and the poll runs out).
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass

    def join(self, timeout: float | None = None) -> None:
        """Block until :meth:`stop` is called (the daemon's main wait)."""
        self._stop.wait(timeout)

    def __enter__(self):
        if self.address is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self, sock: socket.socket) -> None:
        # ``sock`` is the acceptor's own reference: stop() clears the
        # attribute from another thread.
        while not self._stop.is_set():
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    request, nbytes = recv_frame(conn)
                except (OSError, EOFError, RemoteProtocolError):
                    return
                self.bytes_received += nbytes
                try:
                    reply = self._reply(request)
                except Hangup as hangup:
                    if hangup.stop:
                        self.stop()
                    return
                except Exception as exc:  # never kill the daemon on a request
                    reply = {"ok": False, "error_type": type(exc).__name__, "error": str(exc)}
                try:
                    self.bytes_sent += send_frame(conn, reply)
                except OSError:
                    return

    def _reply(self, request) -> dict:
        op = request.get("op") if isinstance(request, dict) else None
        if not isinstance(op, str):
            return refusal(f"malformed request: no op in a {type(request).__name__} frame")
        missing = [name for name in self.REQUIRED.get(op, ()) if name not in request]
        if missing:
            return refusal(f"malformed {op!r} request: missing {', '.join(missing)}")
        if op == "hello":
            if request.get("version") != self.VERSION:
                return refusal(
                    f"protocol version mismatch: client {request.get('version')} != server {self.VERSION}"
                )
            return {"ok": True, "pid": os.getpid(), "version": self.VERSION}
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        return self._handle(request)


class Connection:
    """The client end of a daemon connection: ``hello``, then timed round trips.

    The stream opens on the first request (or :meth:`open`), and again
    after :meth:`close`; the byte counters run over every stream opened.
    ``connect_timeout`` bounds the TCP connect and the ``hello`` reply.
    Without an address (a :func:`fork_peer` end) it never reopens.
    """

    def __init__(self, address: tuple[str, int] | None, version: int, connect_timeout: float) -> None:
        self.address = None if address is None else (str(address[0]), int(address[1]))
        self.version = version
        self.connect_timeout = float(connect_timeout)
        self.sock: socket.socket | None = None
        self.bytes_sent = 0
        self.bytes_received = 0

    def open(self) -> None:
        """Connect and shake hands unless open; a refused ``hello`` raises
        :class:`RemoteProtocolError`, an address-less stream once closed
        :class:`ConnectionError`."""
        if self.sock is None:
            if self.address is None:
                raise ConnectionError("the socketpair stream is closed")
            self.sock = socket.create_connection(self.address, timeout=self.connect_timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                reply = self.request({"op": "hello", "version": self.version}, self.connect_timeout)
            except BaseException:
                self.close()
                raise
            if not reply.get("ok"):
                self.close()
                raise RemoteProtocolError(reply.get("error", "handshake refused"))

    def request(self, request: dict, timeout: float | None = None) -> dict:
        """One round trip within ``timeout`` seconds (``None`` blocks)."""
        self.open()
        self.sock.settimeout(timeout)
        try:
            self.bytes_sent += send_frame(self.sock, request)
            reply, nbytes = recv_frame(self.sock)
        except TimeoutError:
            # A late reply would answer the next request: drop the stream.
            self.close()
            raise TimeoutError(
                f"no reply to {request['op']!r} from {self.address} within {timeout:.1f}s"
            ) from None
        self.bytes_received += nbytes
        return reply

    def close(self) -> None:
        """Close the stream (idempotent)."""
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass


#: Environment variables that set a BLAS or OpenMP thread count.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Set numpy's bundled OpenBLAS to one thread unless the environment sets
    a count.  The one pin of every solving process: the solve kernel's
    module calls it at import (the driver) and :func:`fork_peer` in each
    child, which runs the library its parent loaded, out of reach of any
    environment variable.  A no-op while numpy is not loaded or bundles no
    such library."""
    numpy = sys.modules.get("numpy")
    if numpy is None or any(var in os.environ for var in _THREAD_VARS):
        return
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_(1)


def fork_peer(listener: Listener, die_with_parent: bool = False) -> tuple[int, Connection]:
    """Fork a child serving ``listener`` on a ``socketpair`` end until EOF;
    returns ``(pid, connection)``: the parent's end, no handshake.

    The child first closes every descriptor above stderr but its own end:
    the parent's end, its other peers' ends (whose EOF it would hold off),
    a daemon's listener and client sockets.  Like a :func:`spawn_daemon`
    child it runs one BLAS thread unless the environment sets a count.
    ``die_with_parent``: SIGKILL it when the forking *thread* dies
    (``PR_SET_PDEATHSIG``, Linux) and ignore Ctrl-C, which reaches the whole
    process group: the parent, not the signal, decides whether its job ends.
    """
    ours, theirs = socket.socketpair()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.closerange(3, theirs.fileno())
            os.closerange(theirs.fileno() + 1, os.sysconf("SC_OPEN_MAX"))
            pin_blas()
            if die_with_parent:
                import ctypes

                libc = ctypes.CDLL(None)
                if hasattr(libc, "prctl"):  # Linux
                    libc.prctl.argtypes, libc.prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
                    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                if os.getppid() != parent:  # it died before prctl took effect
                    os._exit(1)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
            listener._serve_connection(theirs)
            code = 0
        finally:
            os._exit(code)
    theirs.close()
    conn = Connection(None, listener.VERSION, 0.0)
    conn.sock = ours
    return pid, conn


def reap(pid: int, kill: bool = False) -> int:
    """Wait for a forked child, SIGKILLed first with ``kill``; its exit
    code, ``-N`` if signal N ended it."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def spawn_daemon(argv: list[str], banner: str, timeout: float = 60.0, **popen):
    """Start a daemon of this checkout's ``repro`` (``popen`` goes to
    :class:`subprocess.Popen`) and read the line its :meth:`Listener.serve_forever`
    prints: ``(process, (host, port))``, or the process stopped and a
    :class:`RuntimeError` when no ``<banner> LISTENING`` line comes within ``timeout`` s.
    The child's BLAS and OpenMP pools default to one thread (an explicit
    setting in the environment wins): a daemon is one of several
    processes sharing the host's cores, and the bit-identity contract
    holds for one BLAS thread.
    """
    import subprocess

    env = dict(os.environ)
    for var in _THREAD_VARS:
        env.setdefault(var, "1")
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, **popen)
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    parts = lines[0].split() if lines else []
    if len(parts) != 4 or parts[:2] != [banner, "LISTENING"]:
        stop_daemon(proc)
        raise RuntimeError(
            f"{banner} did not announce its address within {timeout:g} s: {lines[:1]!r}"
        )
    return proc, (parts[2], int(parts[3]))


def stop_daemon(proc) -> None:
    """Terminate a :func:`spawn_daemon` process, kill it after 10 s, reap
    it and close its stdout pipe."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=10.0)
    except Exception:  # pragma: no cover - last resort
        proc.kill()
        proc.wait()
    proc.stdout.close()
