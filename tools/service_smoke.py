#!/usr/bin/env python
"""Boot a repro-serve daemon and prove the service contract end to end.

The CI ``service-smoke`` job's driver (and a runnable demo): starts a
real ``repro-serve`` subprocess over a throwaway store root, submits
two *identical* jobs plus one distinct job through
:class:`repro.store.client.ServiceClient`, and asserts

* the identical pair deduplicates — one run id, ``attached`` on the
  second submit, a dedup counter (``solves``) of exactly 1;
* the distinct job gets its own run;
* both runs stream their convergence events (``submitted -> scheduled
  -> iteration -> ... -> converged``, each non-final ``iteration``
  record carrying ``checkpointed: true``) and finish with a retrievable
  result.

It then pushes 30 distinct jobs through the daemon's one job slot and
checks the slot's peak resident set (``VmHWM``) grows by at most 3 MB
between job 10 and job 30: a slot keeps the static problems of the run
it solves, not of every run it has solved (skipped without ``/proc``).

With ``--kill-and-restart`` it additionally enacts the crash demo from
the README: SIGKILLs the daemon after the long job's first checkpoint,
restarts it over the same root, and checks the auto-resumed run
finishes bit-identical (``==``) to an uninterrupted reference solve.

Usage:  python tools/service_smoke.py [--kill-and-restart] [--root DIR]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.parallel.wire import spawn_daemon, stop_daemon  # noqa: E402
from repro.store import build_solver  # noqa: E402
from repro.store.client import ServiceClient  # noqa: E402

SPEC_A = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [1, 1, 1], "cation": "Zn", "anion": "O",
                     "lattice_constant": 6.0},
    "solver": {"grid_dims": [1, 1, 1], "ecut": 2.0, "n_empty": 1,
               "mixer": "linear"},
    "run": {"max_iterations": 4, "potential_tolerance": 12.0,
            "eigensolver_tolerance": 1e-4, "eigensolver_iterations": 40},
}

# The same problem under a different iteration budget is a different
# trajectory, hence a different signature: the "distinct" third job.
SPEC_B = json.loads(json.dumps(SPEC_A))
SPEC_B["run"]["max_iterations"] = 3

# Long enough (~1 s/iteration) for the kill demo to land mid-solve.
SPEC_LONG = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [2, 1, 1], "cation": "Zn", "anion": "O",
                     "lattice_constant": 6.0},
    "solver": {"grid_dims": [2, 1, 1], "ecut": 2.2, "buffer_cells": 0.5,
               "n_empty": 2, "mixer": "kerker"},
    "run": {"max_iterations": 3, "potential_tolerance": 1e-9,
            "eigensolver_tolerance": 1e-4, "eigensolver_iterations": 40},
}

# The slot memory check: distinct jobs, each with its own lattice constant
# (the service_burst workload's 1 % jitter), and the VmHWM growth bound.
MEMORY_JOBS = 30
MEMORY_GROWTH_MB = 3.0

_SERVE_STUB = (
    "import sys; from repro.store.server import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)


def boot_daemon(root: Path) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start one repro-serve subprocess; returns (process, address)."""
    proc, address = spawn_daemon(
        [sys.executable, "-c", _SERVE_STUB, "--root", str(root), "--job-slots", "1"],
        "REPRO-SERVE",
    )
    print(f"[smoke] daemon pid {proc.pid} listening on {address[0]}:{address[1]}")
    return proc, address


def check(condition: bool, message: str) -> None:
    """Assert with a smoke-log line (SystemExit keeps CI output clean)."""
    if not condition:
        raise SystemExit(f"[smoke] FAILED: {message}")
    print(f"[smoke] ok: {message}")


def dedup_and_convergence(address: tuple[str, int]) -> None:
    """Two identical submits + one distinct: dedup and event streaming."""
    with ServiceClient(address, client="alice") as alice, \
            ServiceClient(address, client="bob") as bob:
        first = alice.submit(SPEC_A)
        second = bob.submit(SPEC_A)  # identical: must attach, not resolve
        third = bob.submit(SPEC_B)  # distinct: its own run
        check(first["run_id"] == second["run_id"],
              "identical submissions share one run id")
        check(not first["attached"] and second["attached"],
              "second identical submission attached instead of resubmitting")
        check(third["run_id"] != first["run_id"],
              "distinct problem got its own run")

        shared = alice.wait(first["run_id"], timeout=120)
        other = alice.wait(third["run_id"], timeout=120)
        check(shared["status"] == "converged" and other["status"] == "converged",
              "both runs reached a terminal converged event")
        check(shared["solves"] == 1,
              f"dedup counter is 1 (one solve for two clients), "
              f"got {shared['solves']}")
        check(shared["clients"] == 2, "both clients recorded on the shared run")

        events = alice.events(first["run_id"])
        kinds = [e["kind"] for e in events]
        check(events[0]["kind"] == "submitted"
              and events[0]["data"]["spec"]["builder_args"] == SPEC_A["builder_args"],
              "the submitted event carries the spec")
        check("offset" not in shared and "format" not in shared,
              "the head is the folded log, with no snapshot bookkeeping")
        for needed in ("submitted", "scheduled", "iteration", "converged"):
            check(needed in kinds, f"shared run streamed a {needed!r} event")
        check(kinds.count("scheduled") == 1, "exactly one solve was scheduled")
        check([e["data"]["checkpointed"] for e in events if e["kind"] == "iteration"]
              == [True] * (kinds.count("iteration") - 1) + [False],
              "every iteration but the converged one recorded its checkpoint")

        result = alice.result(first["run_id"])
        check(result is not None and result["density"].ndim == 3,
              "result arrays retrievable over the wire")


def vmhwm_mb(pid: int) -> float:
    """A live process's resident-set high-water mark, from ``/proc``."""
    status = Path(f"/proc/{pid}/status").read_text()
    return next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")) / 1024


def slot_memory_stays_bounded(address: tuple[str, int]) -> None:
    """30 distinct jobs through one slot: its peak RSS stops growing."""
    if not Path("/proc/self/status").exists():
        print("[smoke] skipped: slot memory check (no /proc)")
        return
    rng = np.random.default_rng(0)
    peaks, statuses = {}, set()
    with ServiceClient(address, client="carol") as client:
        for job in range(1, MEMORY_JOBS + 1):
            spec = json.loads(json.dumps(SPEC_A))
            spec["builder_args"]["lattice_constant"] = 6.0 * (1.0 + 1e-2 * rng.uniform(-1.0, 1.0))
            run_id = client.submit(spec)["run_id"]
            statuses.add(client.wait(run_id, timeout=120)["status"])
            if job in (10, MEMORY_JOBS):
                pid = next(e["data"]["pid"] for e in client.events(run_id) if e["kind"] == "scheduled")
                peaks[job] = (pid, vmhwm_mb(pid))
    check(statuses == {"converged"}, f"{MEMORY_JOBS} distinct jobs converged")
    (pid10, peak10), (pid30, peak30) = peaks[10], peaks[MEMORY_JOBS]
    check(pid10 == pid30, "one slot process solved every memory job")
    check(peak30 - peak10 <= MEMORY_GROWTH_MB,
          f"slot VmHWM grew {peak30 - peak10:.2f} MB from job 10 to job {MEMORY_JOBS} "
          f"({peak10:.1f} -> {peak30:.1f} MB, bound {MEMORY_GROWTH_MB} MB)")


def kill_and_restart(root: Path) -> None:
    """SIGKILL mid-solve, restart, assert bit-identical completion."""
    daemon, address = boot_daemon(root)
    with ServiceClient(address, client="alice") as client:
        run_id = client.submit(SPEC_LONG)["run_id"]
        deadline = time.monotonic() + 120.0
        while client.status(run_id)["checkpointed_iteration"] < 1:
            if time.monotonic() >= deadline:
                raise SystemExit("[smoke] FAILED: no checkpoint before kill")
            time.sleep(0.05)
    daemon.kill()
    stop_daemon(daemon)
    print(f"[smoke] SIGKILLed daemon pid {daemon.pid} mid-solve")

    daemon2, address2 = boot_daemon(root)
    with ServiceClient(address2, client="alice") as client:
        final = client.wait(run_id, timeout=240)
        events = client.events(run_id)
        result = client.result(run_id)
        client.shutdown()
    daemon2.wait(timeout=30)
    stop_daemon(daemon2)
    check(final["status"] == "converged", "restarted daemon finished the run")
    check(any(e["kind"] == "scheduled" and e["data"]["resumed"]
              for e in events), "restart rescheduled with resumed: True")
    solver, run_kwargs = build_solver(SPEC_LONG)
    reference = solver.run(**run_kwargs)
    check(np.array_equal(result["density"], reference.density),
          "resumed final density is bit-identical to an uninterrupted run")
    check(result["energy"] == reference.total_energy,
          "resumed final energy equals the uninterrupted run's exactly")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", help="store root (default: a temp dir)")
    parser.add_argument("--kill-and-restart", action="store_true",
                        help="also run the SIGKILL + auto-resume demo")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.root) if args.root else Path(tmp) / "store"
        daemon, address = boot_daemon(root)
        try:
            dedup_and_convergence(address)
            slot_memory_stays_bounded(address)
            with ServiceClient(address) as client:
                client.shutdown()
            daemon.wait(timeout=30)
        finally:
            daemon.kill()
            stop_daemon(daemon)
        if args.kill_and_restart:
            kill_and_restart(root)
    print("[smoke] service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
