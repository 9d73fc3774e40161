"""SCF-as-a-service: daemon/client tests, in-process and kill -9.

The in-process half boots :class:`repro.store.server.StoreServer`
inside the test process (real loopback sockets, job slots forked from
it, tiny 0.25 s solves) and proves the service contract: submit/status/
events/result round-trips, two identical submissions sharing one solve, a
service result bit-identical (``==``, no tolerances) to a direct
:class:`~repro.core.scf.LS3DFSCF` run, and auto-resume of interrupted
runs at startup.  These run in tier 1 — they are also what puts the
``repro/store`` server/client files under the coverage gate.

The ``service``-marked half (CI service-smoke job) boots real
``repro-serve`` subprocesses and enacts the acceptance criterion:
``kill -9`` the daemon mid-solve, restart it over the same store, and
the resumed run's final density equals an uninterrupted run's exactly.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io.checkpoint import load_checkpoint
from repro.parallel.remote import recv_frame, send_frame
from repro.parallel.wire import spawn_daemon, stop_daemon
from repro.pw.grid import FFTGrid
from repro.store import RunStore, build_solver, canonical_spec
from repro.store.client import ServiceClient, ServiceError, client_main
from repro.store.server import SERVICE_PROTOCOL_VERSION, StoreServer, iteration_event, run_job, serve_main

SPEC_FAST = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [1, 1, 1], "cation": "Zn", "anion": "O",
                     "lattice_constant": 6.0},
    "solver": {"grid_dims": [1, 1, 1], "ecut": 2.0, "n_empty": 1,
               "mixer": "linear"},
    # Genuinely converges at iteration 2 (|dV| drops 23.4 -> 11.6), so a
    # run checkpoints once and then ends with converged: True.
    "run": {"max_iterations": 4, "potential_tolerance": 12.0,
            "eigensolver_tolerance": 1e-4, "eigensolver_iterations": 40},
}

# Long enough (~1 s/iteration, 3 iterations) that a kill -9 reliably
# lands mid-solve after the first checkpoint.
SPEC_KILL = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [2, 1, 1], "cation": "Zn", "anion": "O",
                     "lattice_constant": 6.0},
    "solver": {"grid_dims": [2, 1, 1], "ecut": 2.2, "buffer_cells": 0.5,
               "n_empty": 2, "mixer": "kerker"},
    "run": {"max_iterations": 3, "potential_tolerance": 1e-9,
            "eigensolver_tolerance": 1e-4, "eigensolver_iterations": 40},
}


# A job slot's life in one process: 36 distinct specs, lattice constants
# drawn as the service_burst workload draws them, through run_job.
_SLOT_MEMORY_SCRIPT = """
import json, sys
from bench.gen import service_burst
from repro.core import fragment_task
from repro.store import RunStore, build_solver
from repro.store.server import run_job

def vmrss_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:")) / 1024

store = RunStore(sys.argv[1])
specs, _ = service_burst(0, 1, 36, 0)
rss = {}
for job, spec in enumerate(specs, 1):
    run_job(store.root, store.submit(spec).run_id, 0)
    rss[job] = vmrss_mb()
cached = {scope: sorted(problems) for scope, problems in fragment_task._PROBLEMS.items()}
last, _ = build_solver(specs[-1])
expected = sorted(last.fragment_solver.build_problem(f).fingerprint for f in last.fragments)
print(json.dumps({"growth_mb": rss[35] - rss[5], "cached": cached,
                  "expected": {last.fragment_solver.problem_signature: expected}}))
"""


def _direct_result(spec):
    """Reference solve: the same spec run directly, no service, no store."""
    solver, run_kwargs = build_solver(spec)
    return solver.run(**run_kwargs)


def _spec_variant(spec, max_iterations):
    out = json.loads(json.dumps(spec))
    out["run"]["max_iterations"] = max_iterations
    return out


# ---------------------------------------------------------------------------
# In-process service (tier 1)
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    srv = StoreServer(tmp_path / "store")
    srv.start()
    yield srv
    srv.stop()


def _client(server, name="test"):
    return ServiceClient(server.address, client=name)


class TestServiceInProcess:
    def test_submit_streams_events_to_result(self, server):
        with _client(server) as client:
            reply = client.submit(SPEC_FAST)
            assert not reply["attached"] and reply["queued"]
            head = client.wait(reply["run_id"], timeout=60)
            assert head["status"] == "converged"
            assert "offset" not in head and "format" not in head
            events = client.events(reply["run_id"])
            assert [e["kind"] for e in events] == [
                "submitted", "scheduled", "iteration", "iteration", "converged"]
            assert events[0]["data"]["spec"] == canonical_spec(SPEC_FAST)
            # One record per iteration; the checkpoint rides the first.
            assert [(e["data"]["checkpointed"], e["data"]["converged"])
                    for e in events[2:4]] == [(True, False), (False, True)]
            result = client.result(reply["run_id"])
            assert result["converged"] and result["iterations"] == head["iteration"]
            assert result["density"].ndim == 3

    def test_two_identical_submissions_share_one_solve(self, server):
        # Acceptance criterion: one event stream, dedup counter == 1.
        with _client(server, "alice") as alice, _client(server, "bob") as bob:
            first = alice.submit(SPEC_FAST)
            second = bob.submit(SPEC_FAST)
            assert first["run_id"] == second["run_id"]
            assert not first["attached"] and second["attached"]
            head = alice.wait(first["run_id"], timeout=60)
            assert head["clients"] == 2
            assert head["solves"] == 1  # the dedup counter
            events = alice.events(first["run_id"])
            fresh_schedules = [
                e for e in events
                if e["kind"] == "scheduled" and not e["data"]["resumed"]
            ]
            assert len(fresh_schedules) == 1
            assert len(alice.runs()) == 1
            assert alice.stats()["jobs_started"] == 1

    def test_distinct_problem_gets_its_own_run(self, server):
        with _client(server) as client:
            first = client.submit(SPEC_FAST)
            second = client.submit(_spec_variant(SPEC_FAST, 3))
            assert first["run_id"] != second["run_id"]
            assert not second["attached"]
            client.wait(first["run_id"], timeout=60)
            client.wait(second["run_id"], timeout=60)
            assert sorted(client.runs().values()) == ["converged", "converged"]

    def test_service_result_equals_direct_solve_bitwise(self, server):
        reference = _direct_result(SPEC_FAST)
        with _client(server) as client:
            run_id = client.submit(SPEC_FAST)["run_id"]
            client.wait(run_id, timeout=60)
            result = client.result(run_id)
        assert np.array_equal(result["density"], reference.density)
        assert np.array_equal(result["potential"], reference.potential)
        assert result["energy"] == reference.total_energy

    def test_startup_scan_resumes_interrupted_run(self, tmp_path):
        # A run killed mid-solve (here: a job that stops iterating after
        # one checkpointed iteration) must be picked up by a fresh daemon
        # with no client involvement and finish bit-identical to a
        # never-interrupted run.
        root = tmp_path / "store"
        store = RunStore(root)
        receipt = store.submit(SPEC_FAST, client="alice")
        stream = store.stream(receipt.run_id)
        stream.append("scheduled", {"resumed": False, "pid": os.getpid()})
        solver, run_kwargs = build_solver(SPEC_FAST)
        ckpt = store.checkpoint_dir(receipt.run_id)
        for step in solver.iterate(checkpoint_dir=ckpt, resume=True, **run_kwargs):
            stream.append("iteration", iteration_event(step))
            break  # the "interrupted" first leg
        assert not step.converged and load_checkpoint(ckpt).iteration == 1
        assert store.pending_runs() == [receipt.run_id]

        srv = StoreServer(root)
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                head = client.wait(receipt.run_id, timeout=60)
                events = client.events(receipt.run_id)
        finally:
            srv.stop()
        assert head["status"] == "converged"
        resumed = [e for e in events if e["kind"] == "scheduled"
                   and e["data"]["resumed"]]
        assert len(resumed) == 1
        reference = _direct_result(SPEC_FAST)
        result = RunStore(root).result(receipt.run_id)
        assert np.array_equal(result["density"], reference.density)
        assert result["energy"] == reference.total_energy

    def test_dead_slot_fails_only_its_run(self, tmp_path, monkeypatch):
        # A slot process that dies mid-solve: its run ends failed with
        # the exit code, the daemon keeps serving, and the slot is
        # forked afresh (from the restored code) for the next run.
        import repro.store.server as server_module

        monkeypatch.setattr(server_module, "build_solver", lambda spec: os._exit(3))
        srv = StoreServer(tmp_path / "store")
        srv.start()  # the forked slot inherits the patch
        try:
            with ServiceClient(srv.address) as client:
                run_id = client.submit(SPEC_FAST)["run_id"]
                head = client.wait(run_id, timeout=60)
                failed = client.events(run_id)[-1]["data"]
                with pytest.raises(ServiceError):
                    client.result(run_id)
                monkeypatch.undo()
                second = client.submit(_spec_variant(SPEC_FAST, 3))["run_id"]
                assert client.wait(second, timeout=60)["status"] == "converged"
        finally:
            srv.stop()
        assert head["status"] == "failed"
        assert failed["error_type"] == "SlotProcessDied"
        assert failed["exitcode"] == 3

    def test_a_slot_killed_mid_job_fails_its_run_and_is_forked_again(self, tmp_path):
        # The slot is an RPW1 peer: SIGKILL reads as EOF on the daemon's
        # request, the exit code comes from reaping it, and the next run
        # goes to a fresh slot process.
        srv = StoreServer(tmp_path / "store", job_slots=1)
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                run_id = client.submit(SPEC_KILL)["run_id"]
                deadline = time.monotonic() + 60.0
                while not (scheduled := [e for e in client.events(run_id) if e["kind"] == "scheduled"]):
                    assert time.monotonic() < deadline, "the run was never scheduled"
                    time.sleep(0.02)
                killed = scheduled[0]["data"]["pid"]
                os.kill(killed, signal.SIGKILL)
                head = client.wait(run_id, timeout=60)
                failed = client.events(run_id)[-1]["data"]
                second = client.submit(SPEC_FAST)["run_id"]
                assert client.wait(second, timeout=60)["status"] == "converged"
                rescheduled = [e for e in client.events(second) if e["kind"] == "scheduled"]
        finally:
            srv.stop()
        assert head["status"] == "failed"
        assert failed["error_type"] == "SlotProcessDied"
        assert failed["exitcode"] == -signal.SIGKILL
        assert rescheduled[0]["data"]["pid"] not in (killed, os.getpid())

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="reads Linux /proc")
    def test_a_slot_forked_again_holds_only_its_own_socket(self, tmp_path):
        # A slot forked afresh after a death is forked by the running
        # daemon, beside its listener and a connected client (both ends in
        # this process): it closes every inherited descriptor but its own
        # end of the socketpair.
        srv = StoreServer(tmp_path / "store", job_slots=1)
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                first = srv._slots[0][0]
                os.kill(first, signal.SIGKILL)
                lost = client.submit(SPEC_FAST)["run_id"]
                assert client.wait(lost, timeout=60)["status"] == "failed"
                second = client.submit(_spec_variant(SPEC_FAST, 3))["run_id"]
                assert client.wait(second, timeout=60)["status"] == "converged"
                pid = srv._slots[0][0]
                links = [os.readlink(fd) for fd in Path(f"/proc/{pid}/fd").iterdir()]
        finally:
            srv.stop()
        assert pid != first
        assert sum(link.startswith("socket:") for link in links) == 1

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="Linux job slots")
    def test_a_slot_forked_while_a_thread_derives_a_grid_still_solves(self, tmp_path):
        # A slot forked afresh runs beside the daemon's threads.  One of them
        # paused inside a grid's |G|^2 derivation must leave the child no
        # held lock: the new slot derives its own grids' |G|^2 and finishes.
        entered, release = threading.Event(), threading.Event()

        def pause_in_g2(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "g2" and frame.f_code.co_filename.endswith("grid.py"):
                entered.set()
                release.wait(120)

        def derive():
            sys.settrace(pause_in_g2)  # this thread only
            try:
                FFTGrid((4.0, 4.0, 4.0), (4, 4, 4)).g2
            finally:
                sys.settrace(None)

        paused = threading.Thread(target=derive, daemon=True)
        srv = StoreServer(tmp_path / "store", job_slots=1)
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                os.kill(srv._slots[0][0], signal.SIGKILL)
                lost = client.submit(SPEC_FAST)["run_id"]
                assert client.wait(lost, timeout=60)["status"] == "failed"
                paused.start()
                assert entered.wait(30)
                run_id = client.submit(_spec_variant(SPEC_FAST, 3))["run_id"]
                head = client.wait(run_id, timeout=30)
        finally:
            release.set()
            paused.join(30)
            srv.stop()
        assert head["status"] == "converged"

    def test_a_store_error_does_not_retire_the_slot(self, tmp_path):
        # ENOSPC (or a damaged log) surfacing from one job must not end the
        # slot's runner thread: the next job on the only slot still runs,
        # and the failed one, left non-terminal, runs when submitted again.
        srv = StoreServer(tmp_path / "store", job_slots=1)
        execute, raised = srv._execute, []

        def disk_full_once(run_id, slot):
            if not raised:
                raised.append(run_id)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            execute(run_id, slot)

        srv._execute = disk_full_once
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                first = client.submit(SPEC_FAST)["run_id"]
                second = client.submit(_spec_variant(SPEC_FAST, 3))["run_id"]
                assert client.wait(second, timeout=30)["status"] == "converged"
                assert client.status(first)["status"] == "submitted"
                assert client.submit(SPEC_FAST)["queued"]
                assert client.wait(first, timeout=30)["status"] == "converged"
        finally:
            srv.stop()
        assert raised == [first]

    def test_slots_are_processes_that_solve_concurrently(self, tmp_path):
        srv = StoreServer(tmp_path / "store", job_slots=2)
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                runs = [client.submit(spec)["run_id"]
                        for spec in (SPEC_FAST, _spec_variant(SPEC_FAST, 3))]
                spans = []
                for run_id in runs:
                    assert client.wait(run_id, timeout=60)["status"] == "converged"
                    events = client.events(run_id)
                    scheduled = [e for e in events if e["kind"] == "scheduled"]
                    spans.append((scheduled[0]["data"]["pid"],
                                  scheduled[0]["ts"], events[-1]["ts"]))
        finally:
            srv.stop()
        (pid_a, begin_a, end_a), (pid_b, begin_b, end_b) = spans
        assert len({pid_a, pid_b, os.getpid()}) == 3
        assert begin_a < end_b and begin_b < end_a

    def test_run_job_is_the_whole_job(self, tmp_path):
        # What a slot process runs, here in the test process: one call
        # takes a submitted run to its terminal event.
        store = RunStore(tmp_path / "store")
        ok = store.submit(SPEC_FAST).run_id
        bad = store.submit(_spec_variant(SPEC_FAST, 0)).run_id
        for run_id in (ok, bad):
            run_job(store.root, run_id, slot=0)
        assert store.read_head(ok)["status"] == "converged"
        assert store.read_head(bad)["status"] == "failed"
        scheduled = store.events(ok)[1]
        assert scheduled.kind == "scheduled"
        assert scheduled.data == {"resumed": False, "pid": os.getpid(), "slot": 0}

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
    def test_a_slot_holds_the_static_problems_of_one_run(self, tmp_path):
        # A slot serves many runs: after 36 distinct specs its problem
        # cache holds the last spec's fragments only, and its resident set
        # does not grow with the number of runs it has served.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        proc = subprocess.run(
            [sys.executable, "-c", _SLOT_MEMORY_SCRIPT, str(tmp_path / "store")],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        assert report["cached"] == report["expected"]
        assert report["growth_mb"] < 3.0, report["growth_mb"]

    def test_zero_iteration_spec_lands_as_failed_event(self, server):
        # Not a converged run with an all-zero density: the solver refuses
        # the spec's run parameters and the stream records why.
        with _client(server) as client:
            run_id = client.submit(_spec_variant(SPEC_FAST, 0))["run_id"]
            head = client.wait(run_id, timeout=60)
            kinds = [e["kind"] for e in client.events(run_id)]
        assert head["status"] == "failed"
        assert "max_iterations" in head["error"]
        assert "iteration" not in kinds and kinds[-1] == "failed"

    def test_bad_requests_surface_as_service_errors(self, server):
        with _client(server) as client:
            with pytest.raises(ServiceError, match="unknown builder"):
                client.submit({"builder": "nope"})
            with pytest.raises(ServiceError, match="unknown op"):
                client._request({"op": "bogus"})
            assert client.ping()["ok"]

    def test_wait_returns_when_the_run_finishes_not_at_the_poll(self, server):
        # The request is held server-side and woken by the job slot: a
        # status+sleep loop would take at least one 5 s poll here.
        with _client(server) as client:
            run_id = client.submit(SPEC_FAST)["run_id"]
            t0 = time.monotonic()
            head = client.wait(run_id, timeout=60, poll=5.0)
            elapsed = time.monotonic() - t0
            assert head["status"] == "converged"
            assert elapsed < 2.0
            # A terminal run answers at once, whatever the poll.
            t0 = time.monotonic()
            assert client.wait(run_id, poll=30.0)["status"] == "converged"
            assert time.monotonic() - t0 < 1.0

    def test_stop_releases_a_held_wait(self, tmp_path):
        # A run submitted straight into the store after the startup scan
        # is never scheduled, so it holds its waiter until stop(), which
        # must let go of it at once.
        srv = StoreServer(tmp_path / "store")
        srv.start()
        run_id = srv.store.submit(SPEC_FAST).run_id  # never enqueued
        outcome = []
        client = ServiceClient(srv.address)
        client.ping()

        def waiter():
            try:
                client.wait(run_id, timeout=120, poll=30.0)
            except Exception as exc:  # the daemon closes the connection
                outcome.append(exc)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()
        t0 = time.monotonic()
        srv.stop()
        thread.join(timeout=5.0)
        client.close()
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 1.0
        assert outcome and not isinstance(outcome[0], TimeoutError)

    def test_wait_times_out_on_a_daemon_that_stops_answering(self):
        """A daemon that shakes hands and then swallows every request:
        ``wait`` gives up after its hold plus ``connect_timeout`` and drops
        the out-of-step connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        swallowed = []

        def wedged_daemon():
            conn, _ = listener.accept()
            with conn:
                hello, _ = recv_frame(conn)
                send_frame(conn, {"ok": True, "version": hello["version"]})
                try:
                    while True:
                        swallowed.append(recv_frame(conn)[0]["op"])
                except (ConnectionError, OSError):
                    pass

        daemon = threading.Thread(target=wedged_daemon, daemon=True)
        daemon.start()
        client = ServiceClient(listener.getsockname(), connect_timeout=0.5)
        outcome = []

        def waiter():
            try:
                client.wait("run-0123456789abcdef", timeout=0.5, poll=0.1)
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        listener.close()
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], TimeoutError)
        assert swallowed == ["wait"]
        daemon.join(timeout=2.0)  # the client closed the stream: EOF ends it
        assert not daemon.is_alive()

    @pytest.mark.parametrize("run_id",["run-0123456789abcdef", "run-typo",
                                        "../../etc"])
    def test_unknown_run_ids_are_refused(self, server, run_id):
        with _client(server) as client:
            for query in (client.status, client.events, client.result,
                          lambda rid: client.wait(rid, timeout=300)):
                with pytest.raises(ServiceError) as info:
                    query(run_id)
                assert info.value.error_type == "UnknownRunError"

    def test_old_protocol_hello_is_refused(self, server):
        assert SERVICE_PROTOCOL_VERSION == 4
        with socket.create_connection(server.address, timeout=10) as sock:
            send_frame(sock, {"op": "hello", "version": 3})
            reply, _ = recv_frame(sock)
        assert not reply["ok"]
        assert reply["error_type"] == "RemoteProtocolError"
        assert "protocol version mismatch" in reply["error"]

    def test_shutdown_op_stops_the_server(self, server):
        with _client(server) as client:
            assert client.shutdown()["ok"]
        server.join(timeout=5.0)
        assert server._stop.is_set()


class TestCommandLineClients:
    def test_serve_and_submit_cli_round_trip(self, tmp_path, capsys):
        # serve_main in a thread (port picked beforehand), client_main
        # driving it: the exact shell workflow of the README quickstart.
        import socket as socketlib

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        thread = threading.Thread(
            target=serve_main,
            args=(["--root", str(tmp_path / "store"), "--port", str(port)],),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with ServiceClient(("127.0.0.1", port)) as client:
                    client.ping()
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        # Drain serve_main's own "REPRO-SERVE LISTENING" line so each
        # client_main call below reads back pure JSON.
        time.sleep(0.2)
        capsys.readouterr()

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC_FAST))
        assert client_main(["--port", str(port), "submit", str(spec_file),
                            "--wait"]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["head"]["status"] == "converged"
        run_id = reply["run_id"]

        assert client_main(["--port", str(port), "status", run_id]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"

        assert client_main(["--port", str(port), "events", run_id]) == 0
        kinds = [e["kind"] for e in json.loads(capsys.readouterr().out)]
        assert kinds[-1] == "converged"

        saved = tmp_path / "out.npz"
        assert client_main(["--port", str(port), "result", run_id,
                            "--save", str(saved)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] and summary["saved"] == str(saved)
        with np.load(saved) as data:
            assert data["density"].ndim == 3

        assert client_main(["--port", str(port), "runs"]) == 0
        assert json.loads(capsys.readouterr().out) == {run_id: "converged"}

        assert client_main(["--port", str(port), "shutdown"]) == 0
        capsys.readouterr()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Real daemon subprocesses + kill -9 (service marker; CI service-smoke job)
# ---------------------------------------------------------------------------

_SERVE_STUB = (
    "import sys; from repro.store.server import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)


def _process_gone(pid):
    """No such process, or only its zombie (it can write nothing)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


def _boot_daemon(root):
    return spawn_daemon([sys.executable, "-c", _SERVE_STUB, "--root", str(root)], "REPRO-SERVE")


@pytest.mark.service
class TestDaemonKillBattery:
    def test_kill_nine_mid_solve_then_restart_is_bit_identical(self, tmp_path):
        # THE acceptance criterion: SIGKILL the daemon after the run's
        # first checkpoint, restart over the same store, and the resumed
        # solve must finish with a final density equal (==) to an
        # uninterrupted run's.
        root = tmp_path / "store"
        daemon, address = _boot_daemon(root)
        try:
            with ServiceClient(address, client="alice") as client:
                run_id = client.submit(SPEC_KILL)["run_id"]
                deadline = time.monotonic() + 120.0
                while True:
                    head = client.status(run_id)
                    if head["checkpointed_iteration"] >= 1:
                        break
                    assert head["status"] not in ("converged", "failed"), head
                    assert time.monotonic() < deadline, "no checkpoint in time"
                    time.sleep(0.05)
        finally:
            daemon.kill()  # SIGKILL: no atexit, no cleanup, mid-iteration
            stop_daemon(daemon)
        killed_at = time.monotonic()

        # The slot process dies with the daemon: nothing writes to the
        # run the restarted daemon is about to resume.
        store = RunStore(root)
        events = store.events(run_id)
        slot_pid = [e for e in events if e.kind == "scheduled"][-1].data["pid"]
        assert slot_pid != daemon.pid
        while not _process_gone(slot_pid):
            assert time.monotonic() - killed_at < 5.0, "slot outlived the daemon"
            time.sleep(0.05)
        head = store.read_head(run_id)  # the store survived the kill readable
        assert head["status"] in ("scheduled", "running")
        assert head["checkpointed_iteration"] >= 1
        time.sleep(0.5)
        assert len(store.events(run_id)) == len(events)

        daemon2, address2 = _boot_daemon(root)
        try:
            with ServiceClient(address2, client="alice") as client:
                final = client.wait(run_id, timeout=240)
                events = client.events(run_id)
                result = client.result(run_id)
                client.shutdown()
        finally:
            daemon2.kill()
            stop_daemon(daemon2)

        assert final["status"] == "converged"
        resumed = [e for e in events if e["kind"] == "scheduled"
                   and e["data"]["resumed"]]
        assert len(resumed) >= 1
        reference = _direct_result(SPEC_KILL)
        assert np.array_equal(result["density"], reference.density)
        assert np.array_equal(result["potential"], reference.potential)
        assert result["energy"] == reference.total_energy

    def test_kill_before_first_schedule_still_recovers(self, tmp_path):
        # Kill in the submit->schedule window: the restarted daemon's
        # startup scan must find the never-started run and solve it.
        root = tmp_path / "store"
        store = RunStore(root)
        receipt = store.submit(SPEC_FAST, client="alice")  # no daemon at all
        daemon, address = _boot_daemon(root)
        try:
            with ServiceClient(address) as client:
                head = client.wait(receipt.run_id, timeout=120)
                result = client.result(receipt.run_id)
                client.shutdown()
        finally:
            daemon.kill()
            stop_daemon(daemon)
        assert head["status"] == "converged"
        reference = _direct_result(SPEC_FAST)
        assert np.array_equal(result["density"], reference.density)
