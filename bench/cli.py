"""The harness: spawns one pinned subprocess per workload and reports.

``python -m bench --workload NAME --seed N --seconds S --trace 0|1`` is the
form ``BENCHMARK.json`` names: one workload, and the last line of stdout is
the contract's result object (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Without ``--workload`` all five
workloads run in turn and a result file for :mod:`bench.compare` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.env import OUT_DIR, REPO_ROOT, child_environment
from bench.metrics import END_TO_END, OPS_FAILED, PER_LAYER, RUN_SECONDS, SERVICE_LATENCY, WORKLOADS

#: Set-ups timed per ``--trace 0`` invocation (the reported value is their median).
SETUP_SAMPLES = 3

#: Hard stop for one subprocess, below the contract's 180 s per invocation.
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A workload subprocess exited non-zero or printed no result."""


def _run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, *extra: str, pinned: bool = True) -> dict:
    """Run :mod:`bench.child` in its own session; never leaves processes behind."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--spawned-at", repr(time.monotonic()), *extra,
    ]
    if smoke:
        command.append("--smoke")
    proc = subprocess.Popen(
        command, cwd=REPO_ROOT, env=child_environment(pinned), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout, Ctrl-C or SIGTERM: let the child tear its workers down,
        # then make sure of it.
        proc.terminate()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
        raise
    finally:
        # The child is the leader of its own process group; whatever it
        # failed to reap (only possible after a crash) dies here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: subprocess exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool, serial_wall: float = 0.0) -> dict:
    """All numbers of one workload: end-to-end always, per-layer with ``trace``."""
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_child(workload, seed, 0, 0, smoke, "--setup-only")["setup_s"])
    extra = ["--serial-wall", repr(serial_wall)] if serial_wall else []
    report = _run_child(workload, seed, seconds, trace, smoke, *extra)
    setups.append(report["setup_s"])
    runs = report["runs"]
    walls = [r["wall_s"] for r in runs]
    cpus = [r["cpu_s"] for r in runs]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": report["peak_rss_mb"],
        OPS_FAILED.name: report["failed"] / report["attempted"],
    }
    if report["latency_samples"]:
        end_to_end.update(report["latency"])
    per_layer = report.get("per_layer")
    if per_layer is not None and workload == "scf_process" and not smoke:
        # Diagnostic, never gated: the same cold run with the BLAS pins removed.
        unpinned = _run_child(workload, seed, 0, 0, smoke, "--cold-run-only", pinned=False)
        per_layer["parallel.executor.unpinned_wall_s"] = unpinned["cold_run_s"]
    return {
        "workload": workload,
        "sizes": report["sizes"],
        "end_to_end": end_to_end,
        "samples": {"setup_s": setups, "wall_s": walls, "cpu_s": cpus},
        "runs": runs,
        "raw": {
            "wall_s": statistics.median(r["raw_wall_s"] for r in runs),
            "cpu_s": statistics.median(r["raw_cpu_s"] for r in runs),
            "host_slowdown": statistics.median(r["host_slowdown"] for r in runs),
        },
        "per_layer": per_layer,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "checks": report["checks"],
        "latency_samples": report["latency_samples"],
        "flags": report["flags"],
        "cold_run_s": report["cold_run_s"],
        "trace_file": report.get("trace_file"),
        "fingerprint": report["fingerprint"],
    }


def _units() -> dict[str, str]:
    return {m.name: m.unit for m in (*END_TO_END, *SERVICE_LATENCY, OPS_FAILED, *PER_LAYER)}


def print_report(result: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then the checks."""
    units = _units()
    print(f"== {result['workload']} ({result['sizes']}) ==", file=stream)
    for name, value in result["end_to_end"].items():
        print(f"  {name:<42s} {value:>14.6g} {units[name]}", file=stream)
    raw = result["raw"]
    print(
        f"  as measured: wall {raw['wall_s']:.6g} s, cpu {raw['cpu_s']:.6g} s, "
        f"host slow-down {raw['host_slowdown']:.3f} (1 = quiet build host)",
        file=stream,
    )
    print(
        f"  operations+checks attempted {result['attempted']}, failed {result['failed']}; "
        f"timed runs {len(result['samples']['wall_s'])}; latency samples {result['latency_samples']}",
        file=stream,
    )
    for name, (passed, total) in result["checks"].items():
        print(f"  check {name:<36s} {passed}/{total}", file=stream)
    for name, value in result["flags"].items():
        print(f"  flag  {name:<36s} {value}", file=stream)
    if result["per_layer"] is not None:
        for name, value in result["per_layer"].items():
            if value and name not in result["end_to_end"]:
                print(f"  {name:<42s} {value:>14.6g} {units[name]}", file=stream)
        print(f"  trace written to {result['trace_file']}", file=stream)


def contract_line(result: dict, trace: int) -> str:
    """The result object the benchmark contract wants as the last stdout line."""
    units = _units()
    if trace:
        metrics = {m.name: result["per_layer"][m.name] for m in PER_LAYER}
    else:
        metrics = {m.name: result["end_to_end"][m.name] for m in END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the program only sees generated inputs")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS), help="seconds of timed runs (at least 5 runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1, help="1: add the traced run and per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one timed run; refused by bench.compare")
    parser.add_argument("--out", type=Path, help="result file (default: bench/out/result-<workloads>-seed<N>.json)")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found next to bench/; nothing to measure", file=sys.stderr)
        return 2
    # Turn SIGTERM into an exception so _run_child's clean-up runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = 0.0 if args.smoke else args.seconds
    results = []
    serial_wall = 0.0
    try:
        for name in names:
            result = measure(name, args.seed, seconds, args.trace, args.smoke, serial_wall)
            if name == "scf_serial":
                serial_wall = result["end_to_end"]["wall_s"]
            results.append(result)
            print_report(result, sys.stderr if args.workload else sys.stdout)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    out = args.out or OUT_DIR / f"result-{args.workload or 'all'}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "label": "smoke" if args.smoke else "standard",
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {r["workload"]: r for r in results},
    }, indent=1) + "\n")
    failed = sum(r["failed"] for r in results)
    if args.workload:
        print(contract_line(results[0], args.trace))
    else:
        print(json.dumps({"correct": failed == 0, "failed": failed, "result": str(out)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
