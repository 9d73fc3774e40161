"""Tests for the socket-backed remote executor (ISSUE-7 tentpole).

Covers the wire protocol (framing, handshake, typed protocol errors),
the ``repro-worker`` server surface, and the driver-side
:class:`~repro.parallel.remote.RemoteExecutor` — bit-identical (``==``)
to the serial backend for all executor protocols (``run`` /
``run_pipeline`` / ``run_global``), with its submission
and byte counters.

The second half drives the failure model with the deterministic fault
harness (:mod:`repro.parallel.faults`): dropped connections, killed
workers, delayed and timed-out replies, unreachable addresses, total
worker loss with and without a fallback executor, and genuine kernel
errors.  The acceptance criterion from the ISSUE: every failure mode
ends in either a bit-identical result (after resubmission) or a loud
typed error — never a hang and never silent corruption.

The in-process workers (:func:`start_worker_thread`) speak the full TCP
protocol over loopback, so these tests exercise every byte of the wire
path while staying fast enough for tier-1.  The ``remote``-marked test
at the bottom uses real worker *subprocesses* (:class:`LocalWorkerPool`)
against the golden-regression systems; CI runs it in the dedicated
``remote-smoke`` job.
"""

import json
import os
import pickle
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _loopback import cluster as _cluster
from _loopback import config as _config
from repro.atoms.toy import cscl_binary
from repro.core import fragment_task
from repro.core.fragment_task import (
    FragmentExecutor,
    FragmentTask,
    solve_fragment_task,
)
from repro.core.scf import LS3DFSCF
from repro.parallel.executor import SerialFragmentExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.remote import (
    PROTOCOL_VERSION,
    LocalWorkerPool,
    NoRemoteWorkersError,
    RemoteExecutor,
    RemoteProtocolError,
    RemoteTaskError,
    WorkerServer,
    recv_frame,
    send_frame,
    start_worker_thread,
)
from repro.parallel.wire import Connection, Listener, fork_peer, reap, spawn_daemon, stop_daemon
from repro.pw.grid import FFTGrid


def _make_task(label="frag") -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, 0.02),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-4,
        max_iterations=40,
    )


def _tiny_scf(executor=None, structure=None, dims=(2, 1, 1), **kw) -> LS3DFSCF:
    return LS3DFSCF(
        structure or cscl_binary(dims, "Zn", "O", 6.0),
        grid_dims=dims,
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


def _assert_results_equal(got, want):
    """Bit-identity of fragment solve results (the `==` criterion)."""
    assert [r.label for r in got] == [r.label for r in want]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.eigenvalues, w.eigenvalues)
        np.testing.assert_array_equal(g.density, w.density)
        assert g.quantum_energy == w.quantum_energy


def test_one_worker_serves_two_drivers_and_holds_one_problem_scope():
    """A worker that moves to another run's problem releases the previous
    one: after two drivers with different structures, the process caches
    the last driver's problems only, and both solves are `==` to serial."""
    structures = [cscl_binary((2, 1, 1), "Zn", "O", a) for a in (6.0, 6.06)]
    serial = [_tiny_scf(structure=s).run(**_RUN_KW) for s in structures]
    with _cluster(1) as (executor, _):
        drivers = [_tiny_scf(executor, structure=s) for s in structures]
        remote = [driver.run(**_RUN_KW) for driver in drivers]
        assert list(fragment_task._PROBLEMS) == [drivers[1].fragment_solver.problem_signature]
    assert drivers[0].fragment_solver.problem_signature != drivers[1].fragment_solver.problem_signature
    for got, want in zip(remote, serial):
        np.testing.assert_array_equal(got.density, want.density)
        assert got.total_energy == want.total_energy


# --- framing ----------------------------------------------------------------------

def test_frame_roundtrip_with_arrays():
    a, b = socket.socketpair()
    try:
        payload = {"op": "task", "x": np.arange(6.0).reshape(2, 3), "s": "hi"}
        sent = send_frame(a, payload)
        obj, received = recv_frame(b)
        assert sent == received > 12  # 12-byte header + pickle
        np.testing.assert_array_equal(obj["x"], payload["x"])
        assert obj["op"] == "task" and obj["s"] == "hi"
    finally:
        a.close()
        b.close()


def test_frame_rejects_bad_magic():
    a, b = socket.socketpair()
    try:
        a.sendall(b"XXXX" + (5).to_bytes(8, "big") + b"12345")
        with pytest.raises(RemoteProtocolError, match="magic"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_size_limits_both_directions():
    a, b = socket.socketpair()
    try:
        with pytest.raises(RemoteProtocolError, match="exceeds"):
            send_frame(a, np.zeros(1000), max_bytes=100)
        send_frame(a, np.zeros(1000))
        with pytest.raises(RemoteProtocolError, match="exceeds"):
            recv_frame(b, max_bytes=100)
    finally:
        a.close()
        b.close()


def test_frame_connection_closed_mid_stream():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises((ConnectionError, OSError)):
            recv_frame(b)
    finally:
        b.close()


def _recv_after(data: bytes, **limits):
    """What :func:`recv_frame` makes of ``data`` followed by EOF.  The
    read side carries a timeout, so a decoder that waited for bytes that
    never come would fail the test with ``TimeoutError``, not hang it."""
    a, b = socket.socketpair()
    try:
        b.settimeout(10.0)
        a.sendall(data)
        a.close()
        return recv_frame(b, **limits)
    finally:
        a.close()
        b.close()


def _frame_bytes(obj) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return b"RPW1" + len(payload).to_bytes(8, "big") + payload


# Frames for the damage property are built from bytes below ``p``: pickle's
# explicit memo-index opcodes (``p``, ``q``, ``r``) size an allocation from
# a number instead of from the data that arrived, which no frame layer can
# bound — it is why ``--host`` documents frames as trusted.  Keeping those
# three bytes out of the stream aims the property at the RPW1 decoder.
_SAFE_TEXT = st.text(alphabet="abcdefgh_ ", max_size=12)
_SAFE_FRAMES = st.dictionaries(
    _SAFE_TEXT,
    st.one_of(st.integers(0, 100), _SAFE_TEXT, st.lists(st.integers(0, 100), max_size=4)),
    max_size=4,
).map(_frame_bytes)
_ANY_FRAMES = st.one_of(
    _SAFE_FRAMES,
    st.integers(0, 32).map(lambda n: _frame_bytes({"op": "task", "x": np.arange(float(n))})),
)


@settings(deadline=None, max_examples=60)
@given(_ANY_FRAMES, st.data())
def test_truncated_frame_is_a_connection_error(frame, data):
    assert _recv_after(frame)[1] == len(frame)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(ConnectionError):
        _recv_after(frame[:cut])


@settings(deadline=None, max_examples=200)
@given(_SAFE_FRAMES, st.data())
def test_single_byte_damage_gives_a_value_or_a_typed_error(frame, data):
    damaged = bytearray(frame)
    index = data.draw(st.integers(0, len(frame) - 1))
    damaged[index] ^= data.draw(st.integers(1, 255))
    assume(damaged[index] not in b"pqr")
    try:
        _, nbytes = _recv_after(bytes(damaged))
    except (RemoteProtocolError, ConnectionError):
        return
    assert nbytes <= len(frame)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 1 << 30), st.binary(max_size=4096))
def test_header_claim_allocates_only_what_arrives(claimed, arrived):
    """A header may claim anything up to ``max_bytes``; when the peer
    then closes, the error is typed and memory stayed with the bytes
    that came (plus one 1 MiB receive buffer)."""
    import tracemalloc

    data = b"RPW1" + claimed.to_bytes(8, "big") + arrived[: claimed - 1]
    tracemalloc.start()
    try:
        with pytest.raises(ConnectionError):
            _recv_after(data, max_bytes=1 << 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(data) + (2 << 20)


def test_undecodable_payload_is_a_protocol_error():
    payload = b"\x80\x05not a pickle"
    with pytest.raises(RemoteProtocolError, match="unpickle"):
        _recv_after(b"RPW1" + len(payload).to_bytes(8, "big") + payload)


# --- worker protocol surface ------------------------------------------------------

def _roundtrip(sock, obj):
    send_frame(sock, obj)
    reply, _ = recv_frame(sock)
    return reply


def test_worker_protocol_surface():
    with WorkerServer() as server:
        sock = socket.create_connection(server.address, timeout=5)
        try:
            hello = _roundtrip(sock, {"op": "hello", "version": PROTOCOL_VERSION})
            assert hello["ok"]
            assert hello["version"] == PROTOCOL_VERSION
            assert hello["pid"] == os.getpid()  # in-process worker
            # A version-mismatched driver is refused loudly, not garbled.
            bad = _roundtrip(sock, {"op": "hello", "version": 99})
            assert not bad["ok"] and "version mismatch" in bad["error"]
            assert _roundtrip(sock, {"op": "ping"})["ok"]
            unknown = _roundtrip(sock, {"op": "frobnicate"})
            assert not unknown["ok"]
            assert unknown["error_type"] == "RemoteProtocolError"
            badkind = _roundtrip(sock, {"op": "task", "kind": "nope", "task": 0})
            assert not badkind["ok"]
            assert badkind["error_type"] == "RemoteProtocolError"
            stats = _roundtrip(sock, {"op": "stats"})
            assert stats["ok"] and stats["tasks_served"] == 0
            assert stats["bytes_received"] > 0
            assert _roundtrip(sock, {"op": "shutdown"})["ok"]
        finally:
            sock.close()


@pytest.mark.parametrize("daemon, incomplete", [
    ("worker", [{"op": "task"}, {"op": "task", "kind": []}]),
    ("store", [{"op": "status"}, {"op": "submit"}, {"op": []}]),
], ids=["worker", "store"])
def test_a_frame_that_is_not_a_request_gets_the_typed_refusal(daemon, incomplete, tmp_path):
    """Both daemons answer a well-formed frame that is not a request (not
    a mapping, or missing a field its op needs) with the typed refusal,
    never a Python internal error, and the connection keeps serving."""
    from repro.store.server import StoreServer

    with WorkerServer() if daemon == "worker" else StoreServer(tmp_path) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            for junk in ([1, 2], None, *incomplete):
                refused = _roundtrip(sock, junk)
                assert not refused["ok"]
                assert refused["error_type"] == "RemoteProtocolError"
                assert _roundtrip(sock, {"op": "ping"})["ok"]


@pytest.mark.parametrize("daemon", ["worker", "store"])
def test_connect_right_after_stop_is_refused(daemon, tmp_path):
    """Both daemons share one listener: ``stop()`` shuts the socket down
    before closing it, so the acceptor's pending poll cannot keep a dead
    backlog open for a late connect to be parked in."""
    from repro.store.server import StoreServer

    for _ in range(5):  # the parked connect needs the acceptor mid-poll
        server = WorkerServer() if daemon == "worker" else StoreServer(tmp_path)
        with server:
            address = server.address
            socket.create_connection(address, timeout=5).close()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0).close()


_UNDECODABLE = b"\x80\x05not a pickle"


@pytest.mark.parametrize("daemon", ["worker", "store"])
@pytest.mark.parametrize("damage", [
    b"JUNK" + bytes(8),
    b"RPW1" + len(_UNDECODABLE).to_bytes(8, "big") + _UNDECODABLE,
], ids=["bad-magic", "undecodable"])
def test_a_broken_frame_ends_only_its_connection(daemon, damage, tmp_path):
    """A framing error closes that connection without a reply; the daemon
    serves the next connection."""
    from repro.store.server import StoreServer

    with WorkerServer() if daemon == "worker" else StoreServer(tmp_path) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(damage)
            assert sock.recv(1) == b""
        with socket.create_connection(server.address, timeout=5) as sock:
            assert _roundtrip(sock, {"op": "ping"})["ok"]


@pytest.mark.parametrize("daemon", ["worker", "store"])
def test_a_wrong_version_hello_is_refused_with_the_typed_error(daemon, tmp_path):
    from repro.store.server import StoreServer

    with WorkerServer() if daemon == "worker" else StoreServer(tmp_path) as server:
        wrong = Connection(server.address, server.VERSION + 1, connect_timeout=5)
        with pytest.raises(RemoteProtocolError, match="protocol version mismatch"):
            wrong.open()
        assert wrong.sock is None
        right = Connection(server.address, server.VERSION, connect_timeout=5)
        assert right.request({"op": "ping"}, timeout=5)["pid"] == os.getpid()
        right.close()


def test_spawn_daemon_gives_up_within_its_deadline():
    """A child that never prints its banner is stopped and the spawner
    raises, within its deadline."""
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="REPRO-WORKER did not announce"):
        spawn_daemon([sys.executable, "-c", "import time; time.sleep(60)"], "REPRO-WORKER", timeout=1.0)
    assert time.monotonic() - t0 < 10.0


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: A daemon stub whose LISTENING line carries its BLAS pins as the "host".
_ENV_STUB = (
    "import os; print('REPRO-WORKER LISTENING', "
    f"','.join(os.environ.get(v, '-') for v in {_BLAS_VARS!r}), 0, flush=True)"
)


def test_spawn_daemon_pins_blas_threads_unless_the_caller_did(monkeypatch):
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    proc, (pins, _) = spawn_daemon([sys.executable, "-c", _ENV_STUB], "REPRO-WORKER")
    stop_daemon(proc)
    assert pins == "1,1,1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    proc, (pins, _) = spawn_daemon([sys.executable, "-c", _ENV_STUB], "REPRO-WORKER")
    stop_daemon(proc)
    assert pins == "3,1,1"


def _openblas_threads():
    """``(get, set)`` of numpy's bundled OpenBLAS thread count, or a skip."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    pytest.skip("numpy bundles no scipy-openblas64")


class _BlasThreads(Listener):
    """Answers ``threads`` with this process's OpenBLAS thread count."""

    VERSION = PROTOCOL_VERSION

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0)

    def _handle(self, request: dict) -> dict:
        return {"ok": True, "threads": _openblas_threads()[0]()}


def test_a_forked_peer_runs_one_blas_thread_unless_the_caller_set_one(monkeypatch):
    get, set_threads = _openblas_threads()
    before = get()
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    try:
        set_threads(2)
        if get() < 2:
            pytest.skip("OpenBLAS cannot run more than one thread here")
        counts = {}
        for setting in (None, "2"):
            if setting is not None:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
            pid, conn = fork_peer(_BlasThreads())
            counts[setting] = conn.request({"op": "threads"}, timeout=30)["threads"]
            conn.close()
            assert reap(pid) == 0
    finally:
        set_threads(before)
    assert counts == {None: 1, "2": 2}


# --- executor basics --------------------------------------------------------------

def test_remote_executor_satisfies_protocols():
    executor = RemoteExecutor([])
    assert isinstance(executor, FragmentExecutor)
    assert executor.n_workers == 1  # never degenerates


def test_remote_run_matches_local_kernels():
    tasks = [_make_task(f"f{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2) as (executor, _):
        assert executor.heartbeat() == 2
        report = executor.run(tasks)
        assert report.worker_count == 2
        assert executor.tasks_submitted == 3
        assert executor.workers_lost == 0 and executor.degraded_tasks == 0
        assert executor.bytes_sent > 0 and executor.bytes_received > 0
        _assert_results_equal(report.results, reference)


def test_shutdown_workers_then_degrade_to_local():
    tasks = [_make_task(f"s{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2, fallback=SerialFragmentExecutor()) as (executor, servers):
        assert executor.shutdown_workers() == 2
        # Shut-down workers are dead to the driver and refuse connections;
        # they were not *lost*, so that counter stays put.
        assert executor.heartbeat() == 0 and executor.n_workers == 1
        for server in servers:
            with pytest.raises(OSError):
                socket.create_connection(server.address, timeout=1.0).close()
        t0 = time.perf_counter()
        report = executor.run(tasks)  # everything falls through to serial
        elapsed = time.perf_counter() - t0
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 0
        assert executor.degraded_tasks == 2
        assert elapsed < 2.0  # no reconnect into a dead backlog, no timeout


def test_heartbeat_flags_dead_workers():
    with _cluster(2) as (executor, servers):
        assert executor.heartbeat() == 2
        servers[1].stop()
        for _ in range(3):  # the in-flight connection drains on first ping
            alive = executor.heartbeat()
        assert alive == 1
        assert executor.workers_lost == 1
        assert executor.n_workers == 1


# --- SCF equivalence through every protocol ---------------------------------------

@pytest.fixture(scope="module")
def remote_scf_runs():
    """Serial references + one remote run per protocol family.

    Module-scoped because the tiny SCF runs dominate this file's cost;
    every run crosses real loopback TCP for every task.
    """
    reference = _tiny_scf(SerialFragmentExecutor()).run(**_RUN_KW)
    runs = {"reference": (reference, None)}
    servers = [start_worker_thread() for _ in range(2)]
    try:
        for name, kw in [("pipeline", dict())]:
            with RemoteExecutor(
                [s.address for s in servers], config=_config()
            ) as executor:
                scf = _tiny_scf(executor, **kw)
                result = scf.run(**_RUN_KW)
                runs[name] = (
                    result,
                    dict(
                        tasks=executor.tasks_submitted,
                        sent=executor.bytes_sent,
                        received=executor.bytes_received,
                        lost=executor.workers_lost,
                        degraded=executor.degraded_tasks,
                        nfragments=scf.nfragments,
                    ),
                )
    finally:
        for server in servers:
            server.stop()
    return runs


def test_remote_scf_bit_identical_for_all_protocols(remote_scf_runs):
    """Acceptance criterion: remote == serial, bit for bit, for the
    fused pipeline, the one task shape of an SCF iteration."""
    for name in ("pipeline",):
        reference = remote_scf_runs["reference"][0]
        result, stats = remote_scf_runs[name]
        np.testing.assert_array_equal(
            result.density, reference.density, err_msg=name)
        np.testing.assert_array_equal(
            result.potential, reference.potential, err_msg=name)
        assert result.total_energy == reference.total_energy, name
        assert result.quantum_energy == reference.quantum_energy, name
        assert result.convergence_history == reference.convergence_history, name
        # Healthy cluster: nothing was lost or degraded along the way.
        assert stats["lost"] == 0 and stats["degraded"] == 0, name


def test_remote_scf_accounting(remote_scf_runs):
    result, stats = remote_scf_runs["pipeline"]
    # One submission per fragment per iteration, like every backend.
    assert stats["tasks"] == stats["nfragments"] * result.iterations
    assert stats["sent"] > 0 and stats["received"] > 0


# --- the failure model, scenario by scenario --------------------------------------

def test_dropped_connection_resubmits_bit_identically():
    """Worker 0 drops the connection mid-task; its task is resubmitted
    to the survivor and the batch result is unchanged."""
    tasks = [_make_task(f"d{i}") for i in range(4)]
    reference = [solve_fragment_task(t) for t in tasks]
    plans = {
        0: FaultPlan(drop_at=(0,)),
        1: FaultPlan(delay_at={0: 0.3}),  # keep the survivor busy so both
    }                                     # workers deterministically pop
    with _cluster(2, plans=plans) as (executor, servers):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert executor.degraded_tasks == 0
        assert servers[0].tasks_served == 1  # faulted before the kernel ran
        # The executor's counter is a running total, the one place it lives:
        # a clean batch after the healed one adds nothing to it.
        _assert_results_equal(executor.run(tasks).results, reference)
        assert executor.resubmissions == 1


def test_killed_worker_resubmits_bit_identically():
    tasks = [_make_task(f"k{i}") for i in range(4)]
    reference = [solve_fragment_task(t) for t in tasks]
    plans = {0: FaultPlan(kill_at=(0,)), 1: FaultPlan(delay_at={0: 0.3})}
    with _cluster(2, plans=plans) as (executor, servers):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert servers[0]._stop.is_set()  # the whole worker died


def test_delay_within_timeout_just_waits():
    tasks = [_make_task(f"w{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(2, plans={0: FaultPlan(delay_at={0: 0.2})}) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 0
        assert executor.resubmissions == 0


def test_reply_past_timeout_marks_worker_dead():
    """A hung worker cannot hang the driver: the bounded request timeout
    converts it into a dead worker, and the task runs elsewhere."""
    tasks = [_make_task(f"t{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(
        1, plans={0: FaultPlan(delay_at={0: 2.0})}, request_timeout=0.4,
        fallback=SerialFragmentExecutor(),
    ) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.resubmissions == 1
        assert executor.degraded_tasks == 2  # no survivors: local fallback


def test_all_workers_dead_degrades_to_serial():
    tasks = [_make_task(f"g{i}") for i in range(3)]
    reference = [solve_fragment_task(t) for t in tasks]
    with _cluster(
        1, plans={0: FaultPlan(kill_at=(0,))}, fallback=SerialFragmentExecutor()
    ) as (executor, _):
        report = executor.run(tasks)
        _assert_results_equal(report.results, reference)
        assert executor.workers_lost == 1
        assert executor.degraded_tasks == 3


def test_all_workers_dead_without_fallback_raises():
    tasks = [_make_task("n0")]
    with _cluster(1, plans={0: FaultPlan(kill_at=(0,))}) as (executor, _):
        with pytest.raises(NoRemoteWorkersError, match="no fallback executor"):
            executor.run(tasks)
    # No addresses at all is the same typed error, with no hang: without a
    # fallback executor given, there is none.
    with pytest.raises(NoRemoteWorkersError):
        RemoteExecutor([]).run(tasks)


def test_unreachable_address_falls_back():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()  # nothing listens here any more
    tasks = [_make_task(f"u{i}") for i in range(2)]
    reference = [solve_fragment_task(t) for t in tasks]
    executor = RemoteExecutor(
        [dead_address], config=_config(max_retries=0, connect_timeout=1.0),
        fallback=SerialFragmentExecutor(),
    )
    report = executor.run(tasks)
    _assert_results_equal(report.results, reference)
    assert executor.workers_lost == 1
    assert executor.degraded_tasks == 2


def test_kernel_error_is_typed_and_never_retried():
    """A deterministic kernel exception would fail on any worker, so it
    must surface as RemoteTaskError — no resubmission, worker stays up."""
    with _cluster(1) as (executor, _):
        with pytest.raises(RemoteTaskError, match="AttributeError"):
            executor.run([42])  # not a task: the kernel raises
        assert executor.resubmissions == 0
        assert executor.degraded_tasks == 0
        assert executor.heartbeat() == 1  # the worker survived the error


def test_remote_task_error_carries_worker_exception_type():
    with _cluster(1) as (executor, _):
        with pytest.raises(RemoteTaskError) as err:
            executor.run_pipeline([object()])
        assert err.value.error_type == "AttributeError"


def test_failed_batch_raises_and_leaves_nothing_queued(monkeypatch):
    """A kernel error surfaces from ``run_*`` as RemoteTaskError and the
    batch's still-queued tasks are dropped, so they cannot delay the next
    batch (every batch shares the executor's one queue)."""
    from repro.parallel import executor as executor_module
    from repro.parallel.distributed import GlobalStepTask

    release = threading.Event()
    ran = []

    def kernel(task):
        ran.append(task.label)
        if task.label == "bad":
            raise ValueError("boom")
        release.wait(30)
        return task.label

    monkeypatch.setitem(executor_module._KERNELS, "global", kernel)

    def task(label, size):
        return GlobalStepTask(
            kind="xc", shard=0, nshards=1, data=np.zeros(size), label=label
        )

    # Heaviest-first: "bad" is served first; the single worker can have
    # started at most slow0 by the time the driver sees the error.
    batch = [task("bad", 9)] + [task(f"slow{i}", 8 - i) for i in range(4)]
    with _cluster(1) as (executor, _):
        with pytest.raises(RemoteTaskError, match="boom"):
            executor.run_global(batch)
        release.set()
        report = executor.run_global([task("next", 1)])
        assert report.results == ["next"]
        assert executor.resubmissions == 0 and executor.degraded_tasks == 0
    assert len([label for label in ran if label.startswith("slow")]) <= 1


# --- real subprocess workers (the CI remote-smoke job) ----------------------------

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(_GOLDEN_DIR))


@pytest.mark.remote
def test_spawn_daemon_returns_a_real_workers_address():
    proc, address = spawn_daemon([sys.executable, "-m", "repro.parallel.remote", "--port", "0"], "REPRO-WORKER")
    try:
        conn = Connection(address, PROTOCOL_VERSION, connect_timeout=10)
        assert conn.request({"op": "ping"}, timeout=10)["pid"] == proc.pid
        conn.close()
    finally:
        stop_daemon(proc)
    assert proc.returncode is not None and proc.stdout.closed


@pytest.mark.remote
def test_terminate_reaps_every_worker_and_closes_its_pipe():
    pool = LocalWorkerPool(2).start()
    processes = list(pool.processes)
    assert len(processes) == 2 and len(pool.addresses) == 2
    pool.terminate()
    assert all(proc.returncode is not None and proc.stdout.closed for proc in processes)


@pytest.mark.remote
@pytest.mark.parametrize("name", ["zno_2x1x1", "gaas_1x1x2"])
def test_remote_subprocess_workers_match_golden_systems(name):
    """Two real ``repro-worker`` subprocesses run the golden-regression
    protocol through the remote backend: bit-identical to the in-process
    serial run, and anchored to the stored golden numbers."""
    from generate import PROTOCOL, SYSTEMS
    from repro.core.driver import LS3DF

    spec = SYSTEMS[name]
    structure = cscl_binary(
        spec["dims"], spec["cation"], spec["anion"], spec["lattice"])

    def build(executor=None):
        return LS3DF(
            structure,
            grid_dims=spec["dims"],
            ecut=PROTOCOL["ecut"],
            buffer_cells=PROTOCOL["buffer_cells"],
            n_empty=PROTOCOL["n_empty"],
            mixer=PROTOCOL["mixer"],
            executor=executor,
        )

    serial = build().run(**PROTOCOL["run"])
    with LocalWorkerPool(2) as pool:
        with RemoteExecutor(pool.addresses, config=_config()) as executor:
            remote = build(executor).run(**PROTOCOL["run"])
            assert executor.workers_lost == 0
            assert executor.degraded_tasks == 0
            assert executor.bytes_sent > 0
    np.testing.assert_array_equal(remote.density, serial.density)
    np.testing.assert_array_equal(remote.potential, serial.potential)
    assert remote.total_energy == serial.total_energy
    assert remote.convergence_history == serial.convergence_history
    golden = json.loads((_GOLDEN_DIR / f"{name}.json").read_text())
    assert remote.iterations == golden["iterations"]
    assert remote.total_energy == pytest.approx(
        golden["total_energy"], rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(
        remote.convergence_history, golden["convergence_history"],
        rtol=1e-10, atol=1e-12)
