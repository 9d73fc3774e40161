"""Deterministic fault injection for the executor failure model.

The remote backend's robustness claims — every failure mode ends in a
bit-identical result or a loud typed error, never a hang or silent
corruption — are only worth something if the failures are reproducible.
This module provides seeded, deterministic fault injectors at both ends
of the wire:

* :class:`FaultPlan` — server-side faults: given as a
  :class:`repro.parallel.executor.WorkerServer`'s ``fault_plan``, the worker
  kills itself, drops the connection, or delays its reply at configured
  task indices.
* :class:`FlakyExecutor` — driver-side faults: wraps any executor and
  raises :class:`repro.parallel.executor.WorkerDiedError` or sleeps at
  configured batch indices, so SCF-level recovery (a band-grouped drain
  killed mid-iteration, then resumed from its checkpoint) can be tested
  without sockets.

Both are plain counters over served work — no wall-clock or RNG state
leaks into the injected schedule, so a failing test replays exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.parallel.executor import WorkerDiedError
from repro.parallel.wire import Hangup

__all__ = ["FaultPlan", "FlakyExecutor"]


@dataclass
class FaultPlan:
    """What goes wrong, and exactly when (by served-task index).

    Attributes
    ----------
    kill_at:
        Task indices at which the worker dies: the whole server stops
        and the connection closes without a reply (the driver sees a
        dead worker and resubmits elsewhere).
    drop_at:
        Task indices at which only the connection drops; the server
        survives, the driver sees a mid-task connection loss.
    delay_at:
        Task index -> seconds to sleep before replying (drive it past
        the driver's ``request_timeout`` to simulate a hung worker).

    Indices count tasks *served by this worker* (0-based), not batch
    positions — with several workers racing over one queue, pin the
    faulty worker's schedule, not the global one, for determinism.
    """

    kill_at: Sequence[int] = ()
    drop_at: Sequence[int] = ()
    delay_at: Mapping[int, float] = field(default_factory=dict)

    def apply(self, index: int) -> None:
        """Inject the configured fault for served-task ``index`` (if any)."""
        delay = self.delay_at.get(index)
        if delay:
            time.sleep(delay)
        if index in self.kill_at or index in self.drop_at:
            raise Hangup(stop=index in self.kill_at)


class FlakyExecutor:
    """Wrap a local executor with deterministic driver-side failures.

    Counts the batches flowing through each ``run*`` protocol (one
    counter across all four) and, at the configured batch indices,
    raises ``error_type`` *instead of* dispatching — the sharpest model
    of a worker group dying between submissions.  ``delay_at`` sleeps
    before dispatching instead.  Everything else (counters, install
    channel, worker count) delegates to the wrapped executor.

    Parameters
    ----------
    inner:
        Any executor from :mod:`repro.parallel.executor` or
        :mod:`repro.parallel.remote`.
    kill_at:
        Batch indices (0-based, per this wrapper) that raise.
    delay_at:
        Batch index -> seconds to sleep before dispatching.
    error_type:
        Exception class raised at ``kill_at`` indices.
    """

    def __init__(
        self,
        inner,
        kill_at: Sequence[int] = (),
        delay_at: Mapping[int, float] | None = None,
        error_type=WorkerDiedError,
    ) -> None:
        self.inner = inner
        self.kill_at = tuple(int(i) for i in kill_at)
        self.delay_at = dict(delay_at or {})
        self.error_type = error_type
        self.batches = 0
        self._lock = threading.Lock()

    # -- fault core ----------------------------------------------------
    def _tick(self) -> None:
        with self._lock:
            index = self.batches
            self.batches += 1
        delay = self.delay_at.get(index)
        if delay:
            time.sleep(delay)
        if index in self.kill_at:
            raise self.error_type(
                f"injected fault: batch {index} of {type(self.inner).__name__}"
            )

    # -- executor protocol ---------------------------------------------
    def run(self, tasks):
        """Dispatch a solve batch unless this batch index is scheduled to fail."""
        self._tick()
        return self.inner.run(tasks)

    def run_pipeline(self, tasks):
        """Dispatch a pipeline batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_pipeline(tasks)

    def run_global(self, tasks):
        """Dispatch a global-step batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_global(tasks)

    def run_bands(self, tasks):
        """Dispatch a band-slice batch unless scheduled to fail."""
        self._tick()
        return self.inner.run_bands(tasks)

    def __getattr__(self, name):
        # Counters, install_state, n_workers, close, ... all delegate.
        return getattr(self.inner, name)
