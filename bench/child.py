"""One workload in a fresh process: set-up, warm-up, timed runs, traced run.

Started by :mod:`bench.cli` with the BLAS pins already in the environment,
so numpy (and every worker or daemon spawned from here) sees them.  Prints
one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

from bench.calibrate import NOMINAL_BURST_S, Calibrator
from bench.env import OUT_DIR, fingerprint, tree_cpu_seconds, tree_peak_rss_mb
from bench.metrics import PER_LAYER, WORKLOADS
from bench.trace import Tracer, layer_shares, summarize
from bench.workloads import SMOKE, STANDARD, latency_metrics, make_workload, pickle_metrics

#: Span name -> (metric prefix, fields taken from the span summary row).
_SPAN_METRICS = {
    "pw.apply_local": ("pw.apply_local", {"calls": "calls", "busy_s": "busy_s", "computed_bytes": "value"}),
    "pw.add_nonlocal": ("pw.add_nonlocal", {"calls": "calls", "busy_s": "busy_s"}),
    "pw.all_band_cg": ("pw.all_band_cg", {"calls": "calls", "busy_s": "busy_s", "self_s": "self_s"}),
    "pw.hartree": ("pw.hartree", {"busy_s": "busy_s"}),
    "pw.xc": ("pw.xc", {"busy_s": "busy_s"}),
    "core.genpot": ("core.genpot", {"calls": "calls", "busy_s": "busy_s", "self_s": "self_s"}),
    "core.scf": ("core.scf", {"self_s": "self_s"}),
    "parallel.executor": ("parallel.executor", {"batches": "calls", "self_s": "self_s"}),
    "parallel.remote.send": ("parallel.remote", {"send_s": "busy_s"}),
    "parallel.remote.recv": ("parallel.remote", {"recv_s": "busy_s"}),
    "io.checkpoint": ("io.checkpoint", {"saves": "calls", "busy_s": "busy_s", "bytes": "value"}),
    "io.npz_atomic": ("io.npz_atomic", {"calls": "calls", "busy_s": "busy_s"}),
    "io.fsync_dir": ("io.fsync_dir", {"calls": "calls", "busy_s": "busy_s"}),
    "store.submit": ("store.submit", {"calls": "calls", "busy_s": "busy_s"}),
    "store.append": ("store.append", {"calls": "calls", "busy_s": "busy_s", "bytes": "value"}),
    "store.read_head": ("store.read_head", {"calls": "calls", "busy_s": "busy_s"}),
    "store.replay": ("store.replay", {"calls": "calls", "busy_s": "busy_s"}),
}

#: Executor counter -> per-layer metric fed by its change over the traced run.
_COUNTER_METRICS = {
    "tasks_submitted": "parallel.executor.tasks",
    "pool_submissions": "parallel.executor.pool_submissions",
    "install_broadcasts": "parallel.executor.install_broadcasts",
    "bytes_sent": "parallel.remote.bytes_sent",
    "bytes_received": "parallel.remote.bytes_received",
    "resubmissions": "parallel.remote.resubmissions",
    "workers_lost": "parallel.remote.workers_lost",
    "degraded_tasks": "parallel.remote.degraded_tasks",
}


def span_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics read straight off the span summary."""
    out: dict[str, float] = {}
    for span_name, (prefix, fields) in _SPAN_METRICS.items():
        row = summary.get(span_name)
        if row is not None:
            for suffix, column in fields.items():
                out[f"{prefix}.{suffix}"] = float(row[column])
    frames = sum(summary.get(name, {}).get("calls", 0) for name in ("parallel.remote.send", "parallel.remote.recv"))
    out["parallel.remote.frames"] = float(frames)
    return out


class _Tally:
    """Operations and correctness checks attempted / failed so far."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed_ops = 0
        self.checks: dict[str, list[int]] = {}
        self.latencies: list[float] = []

    def add(self, workload, outcome, slowdown: float | None = None) -> None:
        """Count one run; its job latencies are pooled when ``slowdown`` is given."""
        self.ops += outcome.ops
        self.failed_ops += outcome.failed_ops
        if slowdown is not None:
            self.latencies.extend(t / slowdown for t in outcome.latencies)
        for name, passed in workload.check(outcome).items():
            entry = self.checks.setdefault(name, [0, 0])
            entry[0] += bool(passed)
            entry[1] += 1

    @property
    def attempted(self) -> int:
        return self.ops + sum(total for _, total in self.checks.values())

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(total - passed for passed, total in self.checks.values())


class _Clock:
    """Times runs between two samples of the host-speed reference kernel.

    Every time it returns is divided by the host's slow-down over that run
    (mean of the samples before and after it, over the nominal burst), wall
    by the kernel's wall and CPU by the kernel's CPU: seconds of a quiet
    host, see :mod:`bench.calibrate`.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.last = calibrator.sample()

    def timed(self, call, *args) -> tuple[object, dict]:
        before = self.last
        cpu0 = tree_cpu_seconds()
        t0 = time.perf_counter()
        result = call(*args)
        wall = time.perf_counter() - t0
        cpu = tree_cpu_seconds() - cpu0
        self.last = self.calibrator.sample()
        slow_wall, slow_cpu = ((b + a) / 2 / NOMINAL_BURST_S for b, a in zip(before, self.last))
        return result, {
            "wall_s": wall / slow_wall, "cpu_s": cpu / slow_cpu,
            "raw_wall_s": wall, "raw_cpu_s": cpu, "host_slowdown": slow_wall,
        }


def _traced_pass(workload, index: int, tally: _Tally, clock: _Clock, runs: list[dict], cold: float, serial_wall: float) -> tuple[dict, str]:
    """One run under the span recorder; returns per-layer metrics and the trace path."""
    from repro.pw import fftcache

    tracer = Tracer()
    with workload.trace_host():
        counters = workload.counters()
        cache = fftcache.stats()
        tracer.install()
        try:
            outcome, traced = clock.timed(workload.run, index)
        finally:
            tracer.restore()
        delta = {k: v - counters[k] for k, v in workload.counters().items()}
        cache = {k: v - cache[k] for k, v in fftcache.stats().items() if k in ("hits", "misses")}
        tally.add(workload, outcome)
        summary = summarize(tracer.spans)
        layer = span_metrics(summary)
        layer.update(workload.layer_metrics(outcome, tracer.spans))
    for counter, metric in _COUNTER_METRICS.items():
        if counter in delta:
            layer[metric] = delta[counter]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    layer["pw.fftcache.hits"] = float(cache.get("hits", 0))
    layer["pw.fftcache.misses"] = float(cache.get("misses", 0))
    layer["pw.fftcache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    pickled, kinds = pickle_metrics(tracer.samples)
    layer.update(pickled)
    layer.update(latency_metrics(tally.latencies))
    walls = [r["wall_s"] for r in runs]
    median_wall = statistics.median(walls)
    layer["harness.cold_run_s"] = cold
    # Against the run just before it, as measured: seconds apart, so the
    # host's speed cancels without a second calibration error.
    layer["harness.trace_overhead_frac"] = traced["raw_wall_s"] / runs[-1]["raw_wall_s"] - 1.0
    layer["harness.run_spread"] = (max(walls) - min(walls)) / median_wall
    layer["harness.raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in runs)
    layer["harness.host_slowdown"] = statistics.median(r["host_slowdown"] for r in runs)
    if serial_wall > 0:
        layer["parallel.executor.speedup_vs_serial"] = serial_wall / median_wall
    path = OUT_DIR / f"trace-{workload.name}.json"
    tracer.dump(path, extra={
        "workload": workload.name,
        "traced_wall_s": traced["raw_wall_s"],
        "host_slowdown": traced["host_slowdown"],
        "layer_self_s": layer_shares(tracer.spans, workload.trace_root),
        "span_summary": summary,
        "pickle_kinds": kinds,
    })
    return {m.name: float(layer.get(m.name, 0.0)) for m in PER_LAYER}, str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the harness spawned this process")
    parser.add_argument("--setup-only", action="store_true", help="set up, report setup_s, tear down")
    parser.add_argument("--cold-run-only", action="store_true", help="set up, time one cold run, tear down")
    parser.add_argument("--serial-wall", type=float, default=0.0, help="scf_serial median wall of the same suite, for the speed-up")
    args = parser.parse_args(argv)

    # Tear down through the finally blocks on SIGTERM too: no orphan workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sizes = SMOKE if args.smoke else STANDARD
    workload = make_workload(args.workload, args.seed, sizes)
    report: dict = {"workload": args.workload, "sizes": sizes.label}
    calibrator = None
    if workload.workers == 1:
        # The two CPUs of the shared host are seldom equally fast; a
        # single-process workload stays on the one its helper samples.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        workload.setup()
        raw_setup = time.monotonic() - args.spawned_at
        # As many helpers as the workload keeps processes busy; started
        # after set-up so they are not part of it.
        calibrator = Calibrator(workload.workers)
        clock = _Clock(calibrator)
        report["raw_setup_s"] = raw_setup
        report["setup_s"] = raw_setup / (clock.last[0] / NOMINAL_BURST_S)
        if args.cold_run_only:
            report["cold_run_s"] = clock.timed(workload.run, 0)[1]["raw_wall_s"]
        elif not args.setup_only:
            _, prepared = clock.timed(workload.prepare)
            tally = _Tally()
            index = 0
            cold = 0.0
            if sizes.warmup:
                outcome, run = clock.timed(workload.run, index)
                cold = run["raw_wall_s"]
                tally.add(workload, outcome)
                index += 1
            runs = []
            begin = time.perf_counter()
            while len(runs) < sizes.min_runs or time.perf_counter() - begin < args.seconds:
                outcome, run = clock.timed(workload.run, index)
                tally.add(workload, outcome, slowdown=run["host_slowdown"])
                runs.append(run)
                index += 1
                if len(runs) == sizes.min_runs:
                    # Sampled after a fixed amount of work: further runs in
                    # the time box must not move it (resident sets can grow
                    # run by run).
                    report["peak_rss_mb"] = tree_peak_rss_mb()
            if args.trace:
                serial_wall = args.serial_wall or workload.reference_wall / prepared["host_slowdown"]
                report["per_layer"], report["trace_file"] = _traced_pass(
                    workload, index, tally, clock, runs, cold or runs[0]["raw_wall_s"], serial_wall
                )
            report.update({
                "runs": runs,
                "cold_run_s": cold,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "checks": tally.checks,
                "latency_samples": len(tally.latencies),
                "latency": latency_metrics(tally.latencies),
                "flags": workload.flags,
                "fingerprint": fingerprint(args.seed, sys.argv),
            })
    finally:
        workload.close()
        if calibrator is not None:
            calibrator.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
