"""Crash/concurrency battery for the event-sourced run store.

Three families of proof:

* **Durability unit tests** — the record framing round-trips and every
  torn-byte prefix is detected; ``write_npz_atomic`` follows the full
  tmp-write -> fsync(file) -> rename -> fsync(directory) sequence (the
  rename itself lives in the directory entry table, so skipping the
  directory fsync can lose the *name* of a perfectly synced file); and
  the fsync budget: one fsync commits an event, a checkpoint costs two,
  and a run directory holds nothing but its log, lock, payloads and
  checkpoint.
* **Kill-mid-append** — a fault-injecting append dies after an exact
  byte count; replay must land on the last consistent state, and the
  next locked append must truncate the torn tail and continue with a
  contiguous sequence.
* **Multi-process contention** — two real writer processes hammer one
  stream's lock (no lost, duplicated or reordered events), and two
  concurrent submits of one problem signature produce exactly one run.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.io.gridio as gridio
from bench.gen import SERVICE_SPEC
from repro.core.genpot import GlobalPotentialSolver
from repro.io.checkpoint import SCFCheckpoint, save_checkpoint
from repro.io.gridio import write_npz_atomic
from repro.store import (
    AppendFaultPlan,
    Event,
    EventStream,
    FileLock,
    KilledAppend,
    LockTimeoutError,
    RunStore,
    TornRecordError,
    UnknownRunError,
    build_solver,
    canonical_spec,
    decode_record,
    encode_record,
    problem_signature,
)
from repro.store.server import run_job
from repro.store.stream import StoreCorruptionError

SPEC = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [1, 1, 1], "cation": "Zn", "anion": "O",
                     "lattice_constant": 6.0},
    "solver": {"grid_dims": [1, 1, 1], "ecut": 2.0, "n_empty": 1,
               "mixer": "linear"},
    "run": {"max_iterations": 2, "potential_tolerance": 1e-9,
            "eigensolver_tolerance": 1e-4, "eigensolver_iterations": 40},
}


def _event(seq: int, kind: str = "iteration", **data) -> Event:
    return Event(seq=seq, kind=kind, ts=123.25, data=data)


def _frame(raw: bytes) -> bytes:
    """Valid REV1 framing (length, checksum, newline) around any body bytes."""
    crc = zlib.crc32(raw) & 0xFFFFFFFF
    return f"REV1 {crc:08x} {len(raw):08d} ".encode("ascii") + raw + b"\n"


_HEADER_LEN = len(_frame(b"")) - 1
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
_EVENTS = st.builds(
    Event,
    seq=st.integers(min_value=0),
    kind=st.text(),
    ts=st.floats(allow_nan=False, allow_infinity=False),
    data=st.dictionaries(st.text(), _JSON, max_size=4),
    payload=st.none() | st.text(),
)


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


class TestRecordFormat:
    def test_roundtrip(self):
        event = _event(3, "iteration", iteration=3, potential_difference=0.5)
        assert decode_record(encode_record(event)) == event

    def test_payload_roundtrip(self):
        event = Event(seq=0, kind="converged", ts=1.0, data={"energy": -1.5},
                      payload="payload-000000.npz")
        assert decode_record(encode_record(event)).payload == "payload-000000.npz"

    @pytest.mark.parametrize("cut", [0, 3, 5, 12, 22, 30])
    def test_every_torn_prefix_is_detected(self, cut):
        record = encode_record(_event(0, iteration=1))
        assert cut < len(record)
        with pytest.raises(TornRecordError):
            decode_record(record[:cut])

    def test_missing_newline_detected(self):
        record = encode_record(_event(0))
        with pytest.raises(TornRecordError, match="newline"):
            decode_record(record[:-1])

    def test_flipped_body_byte_fails_checksum(self):
        record = bytearray(encode_record(_event(0, iteration=7)))
        record[-3] ^= 0x01
        with pytest.raises(TornRecordError, match="checksum|JSON"):
            decode_record(bytes(record))

    def test_bad_magic_detected(self):
        record = b"XXX1" + encode_record(_event(0))[4:]
        with pytest.raises(TornRecordError, match="magic"):
            decode_record(record)

    @pytest.mark.parametrize(
        "line",
        [
            b"x" * _HEADER_LEN + b"\n",  # long enough, no field separators
            b"REV1 " + b"x" * (_HEADER_LEN - 5) + b"\n",
            _frame(b"[1,2]"),  # checksum-valid JSON that is no event object
            _frame(b"{}"),
            _frame(b'{"seq":"x","kind":"k","ts":0}'),
            _frame(b'{"seq":1e999,"kind":"k","ts":0}'),
            _frame(b'{"seq":0,"kind":"k","ts":0,"data":3}'),
            _frame(b"[" * 100_000),
        ],
        ids=["no-separators", "magic-only", "list-body", "empty-object",
             "seq-not-a-number", "seq-overflows", "data-not-a-mapping",
             "nesting-too-deep"],
    )
    def test_malformed_records_are_torn_not_crashes(self, line):
        # EventStream's tail scan only truncates on TornRecordError: any
        # other exception from a torn tail would crash replay.
        with pytest.raises(TornRecordError):
            decode_record(line)

    @settings(deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.binary(min_size=_HEADER_LEN, max_size=64).map(lambda b: b + b"\n"),
            st.binary(max_size=64).map(_frame),
            _JSON.map(lambda value: _frame(json.dumps(value).encode("utf-8"))),
        )
    )
    def test_any_bytes_decode_to_an_event_or_tear(self, line):
        try:
            event = decode_record(line)
        except TornRecordError:
            return
        assert isinstance(event, Event)

    @settings(deadline=None)
    @given(_EVENTS)
    def test_property_roundtrip(self, event):
        assert decode_record(encode_record(event)) == event

    @settings(deadline=None)
    @given(_EVENTS, st.data())
    def test_any_single_byte_change_is_detected(self, event, data):
        record = bytearray(encode_record(event))
        index = data.draw(st.integers(0, len(record) - 1))
        record[index] ^= data.draw(st.integers(1, 255))
        with pytest.raises(TornRecordError):
            decode_record(bytes(record))


# ---------------------------------------------------------------------------
# File lock
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_context_manager_and_reacquire(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            assert lock.held
        assert not lock.held
        with lock:
            assert lock.held

    def test_second_holder_times_out(self, tmp_path):
        first = FileLock(tmp_path / "x.lock").acquire()
        try:
            second = FileLock(tmp_path / "x.lock", timeout=0.2)
            start = time.monotonic()
            with pytest.raises(LockTimeoutError):
                second.acquire()
            assert time.monotonic() - start >= 0.15
        finally:
            first.release()

    def test_release_unblocks_waiter(self, tmp_path):
        first = FileLock(tmp_path / "x.lock").acquire()
        acquired = threading.Event()

        def waiter():
            with FileLock(tmp_path / "x.lock", timeout=5.0):
                acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        first.release()
        thread.join(timeout=5.0)
        assert acquired.is_set()

    def test_double_acquire_is_an_error(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock").acquire()
        try:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()
        finally:
            lock.release()

    def test_release_is_idempotent(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock").acquire()
        lock.release()
        lock.release()


# ---------------------------------------------------------------------------
# Durable writers (satellite: directory fsync after rename)
# ---------------------------------------------------------------------------


class _FsyncRecorder:
    """Traces the fsync/replace sequence beneath the atomic writers."""

    def __init__(self, monkeypatch, directory: Path):
        self.calls: list[tuple] = []
        self.directory = Path(directory)
        real_fsync, real_replace = os.fsync, os.replace
        real_open = os.open

        def traced_open(path, flags, *a, **k):
            fd = real_open(path, flags, *a, **k)
            if Path(path) == self.directory:
                self.dir_fds.add(fd)
            return fd

        def traced_fsync(fd):
            self.calls.append(("fsync_dir" if fd in self.dir_fds else "fsync_file",))
            real_fsync(fd)

        def traced_replace(src, dst):
            self.calls.append(("replace", str(src), str(dst)))
            real_replace(src, dst)

        self.dir_fds: set[int] = set()
        monkeypatch.setattr(os, "open", traced_open)
        monkeypatch.setattr(os, "fsync", traced_fsync)
        monkeypatch.setattr(os, "replace", traced_replace)

    @property
    def kinds(self) -> list[str]:
        return [c[0] for c in self.calls]


class TestAtomicWriters:
    def test_npz_fsync_rename_dirsync_sequence(self, tmp_path, monkeypatch):
        rec = _FsyncRecorder(monkeypatch, tmp_path)
        target = tmp_path / "state.npz"
        write_npz_atomic(target, rho=np.arange(6.0).reshape(2, 3))
        # The exact durability ladder: file flushed+fsynced, renamed into
        # place, then the *directory* fsynced (the rename lives there).
        assert rec.kinds == ["fsync_file", "replace", "fsync_dir"]
        replace = rec.calls[1]
        assert replace[2] == str(target)
        assert replace[1] != replace[2] and replace[1].startswith(str(tmp_path))
        with np.load(target) as data:
            np.testing.assert_array_equal(data["rho"], np.arange(6.0).reshape(2, 3))
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]  # no tmp left

    def test_fsync_directory_tolerates_missing_dir(self, tmp_path):
        gridio.fsync_directory(tmp_path / "nope")  # must not raise


class _FsyncTargets:
    """Records the path behind every ``os.fsync`` descriptor (Linux /proc)."""

    def __init__(self, monkeypatch):
        self.paths: list[Path] = []
        real_fsync = os.fsync

        def traced_fsync(fd):
            self.paths.append(Path(os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", traced_fsync)

    def take(self) -> list[Path]:
        """The targets since the last call, clearing them."""
        out, self.paths = self.paths, []
        return out


class TestFsyncBudget:
    """The fsynced log record is an event's only commit; nothing indexes it."""

    def test_append_to_an_existing_log_is_one_fsync(self, tmp_path, monkeypatch):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {})
        fsyncs = _FsyncTargets(monkeypatch)
        stream.append("scheduled", {"resumed": False})
        assert fsyncs.take() == [stream.log_path]

    def test_the_append_that_creates_the_log_adds_its_directory(self, tmp_path, monkeypatch):
        stream = EventStream(tmp_path / "run")
        fsyncs = _FsyncTargets(monkeypatch)
        stream.append("submitted", {})
        assert fsyncs.take() == [stream.log_path, stream.run_dir]

    def test_a_payload_append_syncs_the_payload_its_directory_and_the_log(
        self, tmp_path, monkeypatch
    ):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {})
        fsyncs = _FsyncTargets(monkeypatch)
        event = stream.append("converged", {"converged": True},
                              payload_arrays={"density": np.ones(3)})
        assert fsyncs.take() == [
            stream.payload_path(event.payload + ".tmp"), stream.run_dir, stream.log_path]

    def test_a_checkpoint_is_its_file_and_its_directory(self, tmp_path, monkeypatch):
        fsyncs = _FsyncTargets(monkeypatch)
        path = save_checkpoint(tmp_path, SCFCheckpoint(
            iteration=1, v_in=np.zeros((2, 2, 2)), mixer_kind="linear",
            division_signature="sig"))
        assert fsyncs.take() == [path.with_name(path.name + ".tmp"), tmp_path]

    def test_one_service_job_costs_ten_fsyncs(self, tmp_path, monkeypatch):
        # submit: the log-creating "submitted" 2; run_job: "scheduled" 1,
        # iteration 1's checkpoint 2 + its record 1, the converged
        # iteration's record 1, "converged" with its payload 3.
        store = RunStore(tmp_path / "store")
        fsyncs = _FsyncTargets(monkeypatch)
        run_id = store.submit(SERVICE_SPEC, client="a").run_id
        run_job(store.root, run_id, slot=0)
        assert store.result(run_id)["converged"]
        assert len(fsyncs.take()) == 10
        assert [e.kind for e in store.events(run_id)] == [
            "submitted", "scheduled", "iteration", "iteration", "converged"]
        assert store.submit(SERVICE_SPEC, client="b").attached
        assert fsyncs.take() == [store.stream(run_id).log_path]

    def test_a_run_directory_holds_its_log_lock_payloads_and_checkpoint(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_id = store.submit(SERVICE_SPEC, client="a").run_id
        run_job(store.root, run_id, slot=0)
        run_dir = store.run_dir(run_id)
        files = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())
        payloads = [name for name in files if name.startswith("payload-") and name.endswith(".npz")]
        assert payloads == ["payload-000004.npz"]
        assert sorted(set(files) - set(payloads)) == [
            "checkpoint/state-latest.npz", "events.log", "stream.lock"]


# ---------------------------------------------------------------------------
# Event stream: append / replay / snapshot catch-up
# ---------------------------------------------------------------------------


class TestEventStream:
    def test_append_replay_roundtrip(self, tmp_path):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {"client": "a"})
        stream.append("scheduled", {"resumed": False})
        stream.append("iteration", {"iteration": 1, "potential_difference": 0.5,
                                    "energy": -1.0})
        events = stream.replay()
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.kind for e in events] == ["submitted", "scheduled", "iteration"]
        assert stream.replay(since_seq=2)[0].data["iteration"] == 1

    def test_head_folds_counters_and_status(self, tmp_path):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {"client": "a"})
        stream.append("attached", {"client": "b"})
        stream.append("scheduled", {"resumed": False})
        stream.append("iteration", {"iteration": 1, "potential_difference": 0.5,
                                    "energy": -1.0, "checkpointed": True})
        stream.append("iteration", {"iteration": 2, "potential_difference": 0.1,
                                    "energy": -1.1, "checkpointed": False})
        head = stream.read_head()
        assert head["status"] == "running"
        assert head["clients"] == 2
        assert head["solves"] == 1
        assert head["iteration"] == 2
        assert head["checkpointed_iteration"] == 1
        assert "offset" not in head and "format" not in head
        assert not stream.is_terminal()

    def test_resumed_schedule_does_not_count_a_second_solve(self, tmp_path):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {"client": "a"})
        stream.append("scheduled", {"resumed": False})
        stream.append("scheduled", {"resumed": True})
        assert stream.read_head()["solves"] == 1

    def test_terminal_head_references_payload(self, tmp_path):
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {})
        event = stream.append("converged", {"converged": True, "iterations": 2,
                                            "energy": -2.5},
                              payload_arrays={"density": np.ones((2, 2))})
        head = stream.read_head()
        assert head["status"] == "converged"
        assert head["result_payload"] == event.payload
        assert stream.is_terminal()
        np.testing.assert_array_equal(stream.load_payload(event)["density"],
                                      np.ones((2, 2)))

    def test_read_head_never_opens_payloads(self, tmp_path, monkeypatch):
        # Regression (satellite): a status query is snapshot-only — it
        # must not load a single .npz payload however large the run.
        store = RunStore(tmp_path / "store")
        receipt = store.submit(SPEC, client="a")
        store.stream(receipt.run_id).append(
            "converged", {"converged": True, "iterations": 1, "energy": -1.0},
            payload_arrays={"density": np.ones((4, 4, 4))})

        def forbidden_load(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("read_head opened a payload .npz")

        monkeypatch.setattr(np, "load", forbidden_load)
        head = store.read_head(receipt.run_id)
        assert head["status"] == "converged"
        assert head["result_payload"] is not None

    def test_missing_head_is_rebuilt_from_log(self, tmp_path):
        # No file holds the head: every read folds it from the log.
        stream = EventStream(tmp_path / "run")
        for k in range(3):
            stream.append("iteration", {"iteration": k})
        assert sorted(p.name for p in stream.run_dir.iterdir()) == ["events.log", "stream.lock"]
        assert stream.read_head()["seq"] == 2
        assert stream.append("iteration", {"iteration": 3}).seq == 3
        assert EventStream(stream.run_dir).read_head()["iteration"] == 3

    def test_a_legacy_checkpointed_record_replays_and_folds_as_a_no_op(self, tmp_path):
        # Logs written before a checkpoint rode its iteration's record hold
        # a separate "checkpointed" event: an unknown kind, folded as such.
        stream = EventStream(tmp_path / "run")
        stream.append("submitted", {})
        stream.append("iteration", {"iteration": 1, "energy": -1.0})
        stream.append("checkpointed", {"iteration": 1})
        assert [e.kind for e in stream.replay()] == ["submitted", "iteration", "checkpointed"]
        head = stream.read_head()
        assert (head["seq"], head["status"], head["iteration"]) == (2, "running", 1)
        assert head["checkpointed_iteration"] == 0
        assert stream.append("iteration", {"iteration": 2}).seq == 3

    def test_corruption_before_tail_raises(self, tmp_path):
        stream = EventStream(tmp_path / "run")
        for k in range(3):
            stream.append("iteration", {"iteration": k})
        raw = bytearray(stream.log_path.read_bytes())
        raw[len(raw) // 3] ^= 0xFF  # flip a byte in an *interior* record
        stream.log_path.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError):
            stream.replay()
        with pytest.raises(StoreCorruptionError):
            stream.read_head()


# ---------------------------------------------------------------------------
# Kill-mid-append: the crash battery proper
# ---------------------------------------------------------------------------


class TestKillMidAppend:
    @pytest.mark.parametrize("torn_bytes", [0, 2, 10, 25, "all_but_newline"])
    def test_replay_lands_on_last_consistent_snapshot(self, tmp_path, torn_bytes):
        run_dir = tmp_path / "run"
        healthy = EventStream(run_dir)
        healthy.append("submitted", {"client": "a"})
        healthy.append("scheduled", {"resumed": False})
        victim_record = encode_record(_event(2, iteration=1))
        cut = len(victim_record) - 1 if torn_bytes == "all_but_newline" else torn_bytes
        victim = EventStream(run_dir, fault_plan=AppendFaultPlan(torn_at={2: cut}))
        with pytest.raises(KilledAppend):
            victim.append("iteration", {"iteration": 1})
        # The torn tail is on disk (a fresh reader sees it) ...
        survivor = EventStream(run_dir)
        assert [e.seq for e in survivor.replay()] == [0, 1]
        head = survivor.read_head()
        assert head["seq"] == 1 and head["status"] == "scheduled"

    def test_next_append_truncates_and_continues_contiguously(self, tmp_path):
        run_dir = tmp_path / "run"
        EventStream(run_dir).append("submitted", {"client": "a"})
        victim = EventStream(run_dir, fault_plan=AppendFaultPlan(torn_at={1: 17}))
        with pytest.raises(KilledAppend):
            victim.append("iteration", {"iteration": 1})
        clean_size_plus_tear = run_dir.joinpath("events.log").stat().st_size
        survivor = EventStream(run_dir)
        event = survivor.append("scheduled", {"resumed": True})
        assert event.seq == 1  # the torn event never happened
        assert run_dir.joinpath("events.log").stat().st_size < \
            clean_size_plus_tear + len(encode_record(event))
        events = survivor.replay()
        assert [e.seq for e in events] == [0, 1]
        assert events[1].kind == "scheduled"

    def test_resume_after_crash_is_bit_identical_to_uninterrupted(self, tmp_path):
        # The same post-crash append sequence must produce a log whose
        # decoded history equals the never-crashed one field for field
        # (timestamps excluded: they record wall-clock, not history).
        def history(run_dir, plan=None):
            stream = EventStream(run_dir, fault_plan=plan)
            stream.append("submitted", {"client": "a"})
            if plan is not None:
                with pytest.raises(KilledAppend):
                    stream.append("iteration", {"iteration": 1})
                stream = EventStream(run_dir)  # the restarted writer
            stream.append("iteration", {"iteration": 1})
            stream.append("converged", {"converged": True, "iterations": 1,
                                        "energy": -1.0})
            return [(e.seq, e.kind, e.data, e.payload)
                    for e in stream.replay()], stream.read_head()

        crashed, crashed_head = history(
            tmp_path / "crashed", AppendFaultPlan(torn_at={1: 30}))
        clean, clean_head = history(tmp_path / "clean")
        assert crashed == clean
        # Timestamps record wall-clock, so compare the folded history fields.
        for key in ("seq", "status", "iteration", "clients", "solves"):
            assert crashed_head[key] == clean_head[key]

    def test_killed_payload_write_leaves_no_dangling_reference(self, tmp_path):
        # Payloads are written *before* their event: a kill between the
        # two leaves an orphan .npz (harmless) but never an event whose
        # payload is missing.
        run_dir = tmp_path / "run"
        stream = EventStream(run_dir, fault_plan=AppendFaultPlan(torn_at={0: 0}))
        with pytest.raises(KilledAppend):
            stream.append("converged", {"converged": True},
                          payload_arrays={"density": np.ones(3)})
        assert (run_dir / "payload-000000.npz").exists()  # orphan
        assert EventStream(run_dir).replay() == []
        # The reused seq writes a fresh payload atomically over the orphan.
        event = EventStream(run_dir).append(
            "converged", {"converged": True},
            payload_arrays={"density": np.full(3, 2.0)})
        assert event.seq == 0
        np.testing.assert_array_equal(
            EventStream(run_dir).load_payload(event)["density"], np.full(3, 2.0))


# ---------------------------------------------------------------------------
# Multi-process contention
# ---------------------------------------------------------------------------

_WRITER_SCRIPT = """
import sys
from repro.store import EventStream
run_dir, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
stream = EventStream(run_dir, lock_timeout=60.0)
for n in range(count):
    stream.append("iteration", {"writer": writer, "n": n})
"""

_SUBMIT_SCRIPT = """
import json, sys
from repro.store import RunStore
root, client = sys.argv[1], sys.argv[2]
spec = json.loads(sys.stdin.read())
receipt = RunStore(root, lock_timeout=60.0).submit(spec, client=client)
print(json.dumps({"run_id": receipt.run_id, "attached": receipt.attached}))
"""

_STALLED_SUBMIT_SCRIPT = """
import json, sys
import repro.store.stream as stream
from repro.store import RunStore
encode = stream.encode_record

def stalled(event):  # called inside the append's lock, before the commit
    print("held", flush=True)
    sys.stdin.read()
    return encode(event)

stream.encode_record = stalled
print(RunStore(sys.argv[1]).submit(json.loads(sys.argv[2])).run_id)
"""


def _python_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestConcurrentWriters:
    def test_two_processes_share_one_stream_without_loss(self, tmp_path):
        # Satellite: two writer processes contend on one stream's lock;
        # afterwards the log holds every event exactly once, the
        # sequence is contiguous, and each writer's own events are in
        # its submission order.
        run_dir = tmp_path / "run"
        count = 25
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(run_dir), str(w),
                 str(count)],
                env=_python_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE)
            for w in (0, 1)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        events = EventStream(run_dir).replay()
        assert len(events) == 2 * count  # none lost, none duplicated
        assert [e.seq for e in events] == list(range(2 * count))  # no reorder
        for writer in (0, 1):
            ours = [e.data["n"] for e in events if e.data["writer"] == writer]
            assert ours == list(range(count))  # per-writer order preserved
        head = EventStream(run_dir).read_head()
        assert head["seq"] == 2 * count - 1

    def test_dedup_race_runs_exactly_one_solve(self, tmp_path):
        # Satellite: two processes submit the identical spec at once;
        # exactly one creates the run, the other attaches to it.
        root = tmp_path / "store"
        payload = json.dumps(SPEC).encode()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SUBMIT_SCRIPT, str(root), name],
                env=_python_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for name in ("alice", "bob")
        ]
        receipts = []
        for proc in procs:
            out, err = proc.communicate(payload, timeout=120)
            assert proc.returncode == 0, err.decode()
            receipts.append(json.loads(out))
        assert receipts[0]["run_id"] == receipts[1]["run_id"]
        assert sorted(r["attached"] for r in receipts) == [False, True]
        store = RunStore(root)
        assert store.run_ids() == [receipts[0]["run_id"]]  # one run
        events = store.events(receipts[0]["run_id"])
        assert [e.kind for e in events] == ["submitted", "attached"]
        head = store.read_head(receipts[0]["run_id"])
        assert head["clients"] == 2 and head["solves"] == 0

    def test_a_submit_waits_only_for_its_own_run(self, tmp_path):
        # Run directories are content-addressed, so a submit takes only the
        # lock of the run it names: spec B commits while another process
        # is stalled inside its submit of spec A, and only A's submit waits.
        store = RunStore(tmp_path / "store", lock_timeout=0.5)
        spec_b = json.loads(json.dumps(SPEC))
        spec_b["run"]["max_iterations"] = 3
        holder = subprocess.Popen(
            [sys.executable, "-c", _STALLED_SUBMIT_SCRIPT, str(store.root), json.dumps(SPEC)],
            env=_python_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            assert holder.stdout.readline() == b"held\n"
            receipt = store.submit(spec_b)
            assert not receipt.attached and store.run_ids() == [receipt.run_id]
            with pytest.raises(LockTimeoutError):
                store.submit(SPEC)
        finally:
            _, err = holder.communicate(timeout=60)  # EOF on stdin lets A commit
        assert holder.returncode == 0, err.decode()
        assert store.submit(SPEC).attached
        assert len(store.run_ids()) == 2


# ---------------------------------------------------------------------------
# Store facade / spec
# ---------------------------------------------------------------------------


class TestRunStore:
    def test_submit_creates_then_attaches(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = store.submit(SPEC, client="a")
        second = store.submit(SPEC, client="b")
        assert not first.attached and second.attached
        assert first.run_id == second.run_id
        assert first.run_id == f"run-{first.signature[:16]}"
        assert store.spec(first.run_id) == canonical_spec(SPEC)
        # The spec rides the submitted record only; nothing else is written.
        submitted, attached = store.events(first.run_id)
        assert submitted.data["spec"] == canonical_spec(SPEC)
        assert "spec" not in attached.data
        assert store.pending_runs() == [first.run_id]

    def test_different_run_params_get_different_runs(self, tmp_path):
        store = RunStore(tmp_path / "store")
        other = json.loads(json.dumps(SPEC))
        other["run"]["max_iterations"] = 3
        first = store.submit(SPEC)
        second = store.submit(other)
        assert first.run_id != second.run_id
        assert len(store.run_ids()) == 2

    def test_result_lifecycle(self, tmp_path):
        store = RunStore(tmp_path / "store")
        receipt = store.submit(SPEC)
        assert store.result(receipt.run_id) is None
        stream = store.stream(receipt.run_id)
        stream.append("converged", {"converged": True, "iterations": 2,
                                    "energy": -2.5},
                      payload_arrays={"density": np.ones((2, 2)),
                                      "potential": np.zeros((2, 2)),
                                      "energy": np.float64(-2.5)})
        result = store.result(receipt.run_id)
        assert result["energy"] == -2.5 and result["iterations"] == 2
        np.testing.assert_array_equal(result["density"], np.ones((2, 2)))
        assert store.pending_runs() == []

    def test_failed_run_raises_on_result(self, tmp_path):
        store = RunStore(tmp_path / "store")
        receipt = store.submit(SPEC)
        store.stream(receipt.run_id).append("failed", {"error": "boom"})
        with pytest.raises(RuntimeError, match="boom"):
            store.result(receipt.run_id)

    def test_prefix_collision_rejected(self, tmp_path):
        # Another problem's submitted record already opens the log the run
        # id names: a 16-hex-digit signature prefix collision, never an attach.
        store = RunStore(tmp_path / "store")
        run_id = f"run-{problem_signature(SPEC)[:16]}"
        other = json.loads(json.dumps(SPEC))
        other["run"]["max_iterations"] = 3
        store.stream(run_id).append("submitted", {"spec": canonical_spec(other)})
        with pytest.raises(ValueError, match="different spec"):
            store.submit(SPEC)
        assert len(store.events(run_id)) == 1

    def test_directory_without_submitted_event_is_reused(self, tmp_path):
        # A submit killed mid-append leaves a torn first record: the run
        # does not exist yet, and the next identical submit creates it.
        store = RunStore(tmp_path / "store")
        run_id = f"run-{problem_signature(SPEC)[:16]}"
        victim = EventStream(store.run_dir(run_id), fault_plan=AppendFaultPlan(torn_at={0: 40}))
        with pytest.raises(KilledAppend):
            victim.append("submitted", {"spec": canonical_spec(SPEC)})
        assert store.run_ids() == []
        with pytest.raises(UnknownRunError):
            store.spec(run_id)
        receipt = store.submit(SPEC, client="a")
        assert receipt.run_id == run_id and not receipt.attached
        assert [e.kind for e in store.events(run_id)] == ["submitted"]
        assert store.run_ids() == [run_id]
        assert store.spec(run_id) == canonical_spec(SPEC)

    def test_run_ids_are_oldest_submission_first(self, tmp_path):
        store = RunStore(tmp_path / "store")
        variants = []
        for n in (5, 3, 4):
            spec = json.loads(json.dumps(SPEC))
            spec["run"]["max_iterations"] = n
            variants.append(store.submit(spec).run_id)
        (store.runs_root / "not-a-run").mkdir()
        assert store.run_ids() == variants

    def test_submit_touches_only_its_own_run_directory(self, tmp_path, monkeypatch):
        # O(1) in the store size: with 200 runs (and a stale index.json
        # from an older layout) present, a submit opens nothing but files
        # inside the one run directory it names — its lock included.
        root = tmp_path / "store"
        store = RunStore(root)
        for n in range(200):
            spec = json.loads(json.dumps(SPEC))
            spec["run"]["potential_tolerance"] = 1e-9 * (n + 2)
            store.submit(spec)
        (root / "index.json").write_text("{}")
        opened = []
        real = {"builtins": builtins.open, "io": io.open, "os": os.open}

        def recording(key):
            def wrapped(path, *args, **kwargs):
                opened.append(Path(os.fsdecode(path)).resolve())
                return real[key](path, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(builtins, "open", recording("builtins"))
        monkeypatch.setattr(io, "open", recording("io"))
        monkeypatch.setattr(os, "open", recording("os"))
        receipt = store.submit(SPEC)
        again = store.submit(SPEC)
        monkeypatch.undo()
        assert not receipt.attached and again.attached
        run_dir = store.run_dir(receipt.run_id).resolve()
        inside = [p for p in opened if p.is_relative_to(root.resolve())]
        assert inside
        assert all(p.is_relative_to(run_dir) for p in inside), inside
        assert len(store.run_ids()) == 201

    @pytest.mark.parametrize("run_id", ["run-0123456789abcdef", "run-typo",
                                        "../../etc", "run-0123456789ABCDEF"])
    def test_unknown_or_malformed_run_ids_are_refused(self, tmp_path, run_id):
        store = RunStore(tmp_path / "store")
        store.submit(SPEC)
        for query in (store.read_head, store.events, store.result, store.spec):
            with pytest.raises(UnknownRunError):
                query(run_id)
        assert not (tmp_path / "etc").exists()


class TestSpecValidation:
    def test_signature_is_stable_across_key_order(self):
        shuffled = {"run": dict(SPEC["run"]), "solver": dict(SPEC["solver"]),
                    "builder_args": dict(SPEC["builder_args"]),
                    "builder": SPEC["builder"]}
        assert problem_signature(SPEC) == problem_signature(shuffled)

    def test_signature_salts_the_mixer_the_solver_runs(self, monkeypatch):
        """A spec without ``mixer`` runs the solver's default, so it must
        share that mixer's signature, whatever the default is."""
        import functools

        import repro.store.dedup as dedup

        monkeypatch.setattr(dedup, "LS3DFSCF", functools.partial(dedup.LS3DFSCF, mixer="anderson"))

        def signature(mixer):
            spec = json.loads(json.dumps(SPEC))
            spec["solver"].pop("mixer", None)
            if mixer is not None:
                spec["solver"]["mixer"] = mixer
            return problem_signature(spec)

        assert signature(None) == signature("anderson") != signature("kerker")

    @pytest.mark.parametrize("spec", [SERVICE_SPEC, {
        "builder": "simple_cubic", "builder_args": {"dims": [2, 1, 1], "lattice_constant": 5.0},
        "solver": {"grid_dims": [2, 1, 1], "ecut": 2.5, "buffer_cells": 0.25,
                   "mixer": "Anderson", "mixer_options": {"alpha": 0.3}},
        "run": {"max_iterations": 3},
    }], ids=["service", "simple_cubic"])
    def test_the_dedup_key_is_the_solvers_without_building_genpot(self, spec, monkeypatch):
        solver, run_kwargs = build_solver(spec)
        expected = hashlib.sha256(solver.fragment_solver.problem_signature.encode())
        salt = {"mixer": solver.genpot.mixer.kind, "mixer_options": spec["solver"].get("mixer_options"),
                "run": run_kwargs}
        expected.update(json.dumps(salt, sort_keys=True, separators=(",", ":")).encode())

        def no_genpot(*args, **kwargs):
            raise AssertionError("the dedup key built GENPOT")

        monkeypatch.setattr(GlobalPotentialSolver, "__init__", no_genpot)
        assert problem_signature(spec) == expected.hexdigest()

    def test_an_unknown_mixer_is_refused_at_submit(self, tmp_path):
        spec = json.loads(json.dumps(SPEC))
        spec["solver"]["mixer"] = "broyden"
        store = RunStore(tmp_path / "store")
        with pytest.raises(ValueError, match="unknown mixer kind 'broyden'"):
            store.submit(spec)
        assert store.run_ids() == []

    @pytest.mark.parametrize("mutate, match", [
        (lambda s: s.update(builder="nope"), "unknown builder"),
        (lambda s: s.update(extra=1), "unknown spec keys"),
        (lambda s: s["builder_args"].pop("dims"), "dims"),
        (lambda s: s["solver"].pop("grid_dims"), "grid_dims"),
        (lambda s: s["solver"].update(executor="x"), "unsupported solver"),
        # The solver and run keywords deleted with their code paths.
        *(
            pytest.param(lambda s, part=part, key=key: s[part].update({key: value}),
                         f"unsupported {part}", id=f"removed-{key}")
            for part, key, value in (
                ("solver", "eigensolver", "band_by_band"), ("solver", "passivate", False),
                ("solver", "polar_passivation", False), ("run", "checkpoint_every", 1))
        ),
        (lambda s: s["run"].update(resume=True), "unsupported run"),
    ])
    def test_invalid_specs_rejected(self, mutate, match):
        spec = json.loads(json.dumps(SPEC))
        mutate(spec)
        with pytest.raises(ValueError, match=match):
            canonical_spec(spec)

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            canonical_spec(["not", "a", "spec"])
