"""Remote-executor benchmark: dispatch latency and wire bytes.

The multi-node backend pays a per-task round-trip over TCP; this
benchmark measures what that costs on a real (loopback) wire:

* **dispatch latency** — median round-trip of a no-op ``ping`` frame,
  the floor under every remote task;
* **pipeline bytes** — bytes on the wire for a 2-iteration run, where
  every fused fragment task carries the iteration's global potential
  inline, as every task does.

Results land in ``benchmarks/results/remote_executor.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.atoms.toy import cscl_binary
from repro.core.scf import LS3DFSCF
from repro.io.results import ResultRecord, save_records
from repro.io.tables import format_table
from repro.parallel.remote import (
    RemoteExecutor,
    RemoteExecutorConfig,
    start_worker_thread,
)


def _tiny_scf(executor=None, **kw) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=2,
    potential_tolerance=1e-9,  # never met: fixed work per run
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)

_CONFIG = dict(
    connect_timeout=2.0,
    request_timeout=60.0,
    max_retries=1,
    backoff=0.01,
)


def _remote_run(n_workers=2):
    servers = [start_worker_thread() for _ in range(n_workers)]
    try:
        with RemoteExecutor(
            [s.address for s in servers], config=RemoteExecutorConfig(**_CONFIG)
        ) as executor:
            scf = _tiny_scf(executor)
            result = scf.run(**_RUN_KW)
            stats = dict(
                tasks=executor.tasks_submitted,
                bytes_sent=executor.bytes_sent,
                bytes_received=executor.bytes_received,
                nfragments=scf.nfragments,
            )
    finally:
        for server in servers:
            server.stop()
    return result, stats


def test_bench_remote_executor(results_dir):
    # -- dispatch latency: the ping round-trip floor under every task.
    server = start_worker_thread()
    try:
        with RemoteExecutor(
            [server.address], config=RemoteExecutorConfig(**_CONFIG)
        ) as executor:
            executor.heartbeat()  # connect + handshake outside the timing
            samples = []
            for _ in range(50):
                t0 = time.perf_counter()
                executor.heartbeat()
                samples.append(time.perf_counter() - t0)
    finally:
        server.stop()
    latency_us = float(np.median(samples) * 1e6)

    # -- pipeline bytes: V_in rides inline in every fused task.
    result, run = _remote_run()
    assert run["tasks"] == run["nfragments"] * result.iterations

    rows = [
        {"metric": "ping round-trip (median, us)", "value": f"{latency_us:.0f}"},
        {"metric": "pipeline bytes sent", "value": f"{run['bytes_sent']:,}"},
        {"metric": "pipeline bytes received", "value": f"{run['bytes_received']:,}"},
    ]
    print()
    print(format_table(rows, ["metric", "value"]))

    save_records(
        [
            ResultRecord(
                "remote_executor",
                {
                    "ping_median_us": latency_us,
                    "pipeline_bytes_sent": run["bytes_sent"],
                    "pipeline_bytes_received": run["bytes_received"],
                    "tasks_submitted": run["tasks"],
                },
            )
        ],
        results_dir / "remote_executor.json",
    )
