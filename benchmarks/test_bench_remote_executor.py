"""Remote-executor benchmark: dispatch latency and wire bytes.

The ISSUE-7 multi-node backend pays a per-task round-trip over TCP; this
benchmark measures what that costs and what the install channel buys
back on a real (loopback) wire:

* **dispatch latency** — median round-trip of a no-op ``ping`` frame,
  the floor under every remote task;
* **install dedup** — bytes on the wire for a 2-iteration pipeline run
  with the fingerprint install channel on vs. off.  With it on, the
  global potential crosses once per worker per iteration instead of
  once per *fragment*, so the shipped-bytes ratio grows with the
  fragment count.

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


def _remote_run(n_workers=2, **scf_kw):
    servers = [start_worker_thread() for _ in range(n_workers)]
    try:
        with RemoteExecutor(
            [s.address for s in servers], config=RemoteExecutorConfig(**_CONFIG)
        ) as executor:
            scf = _tiny_scf(executor, **scf_kw)
            result = scf.run(**_RUN_KW)
            stats = dict(
                tasks=executor.tasks_submitted,
                installs=executor.install_broadcasts,
                bytes_sent=executor.bytes_sent,
                bytes_received=executor.bytes_received,
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

    # -- install dedup: shipped bytes with the fingerprint channel on/off.
    on_result, on = _remote_run()
    off_result, off = _remote_run(install_potentials=False)
    assert on_result.total_energy == off_result.total_energy  # same physics
    assert on["installs"] > 0 and off["installs"] == 0
    savings = 1.0 - on["bytes_sent"] / off["bytes_sent"]

    rows = [
        {"metric": "ping round-trip (median, us)", "value": f"{latency_us:.0f}"},
        {"metric": "pipeline bytes sent, install on", "value": f"{on['bytes_sent']:,}"},
        {"metric": "pipeline bytes sent, install off", "value": f"{off['bytes_sent']:,}"},
        {"metric": "wire savings from install dedup", "value": f"{100 * savings:.1f}%"},
    ]
    print()
    print(format_table(rows, ["metric", "value"]))

    save_records(
        [
            ResultRecord(
                "remote_executor",
                {
                    "ping_median_us": latency_us,
                    "pipeline_bytes_sent_install_on": on["bytes_sent"],
                    "pipeline_bytes_sent_install_off": off["bytes_sent"],
                    "pipeline_bytes_received": on["bytes_received"],
                    "install_broadcasts": on["installs"],
                    "install_dedup_savings": savings,
                    "tasks_submitted": on["tasks"],
                },
            )
        ],
        results_dir / "remote_executor.json",
    )

    # Qualitative shape: dedup must actually shrink the wire traffic
    # (even on this 4-fragment system, where the potential is small next
    # to the per-task geometry; the ratio grows with fragment count).
    assert savings > 0.05
