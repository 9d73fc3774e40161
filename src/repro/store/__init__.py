"""SCF-as-a-service: the event-sourced run store and job daemon.

Every LS3DF solve handled by this layer is a first-class persistent
object — an append-only *event stream* (``submitted -> scheduled ->
iteration(k) -> ... -> converged | failed``) on disk whose first
record carries the problem spec, advisory file locking for concurrent
writers, and content-addressed run ids as dedup keys: two clients
submitting the identical problem attach to one in-flight solve and both
stream its events.

Layers (bottom up):

* :mod:`repro.store.events` — the record format: checksummed,
  newline-framed JSON events whose torn tails are detectable.
* :mod:`repro.store.lock` — advisory file locks
  (:class:`~repro.store.lock.FileLock`) serialising concurrent writers.
* :mod:`repro.store.stream` — :class:`~repro.store.stream.EventStream`,
  one run's append-only log (one fsync commits an event), folded for
  its head on every read — the run's only index.
* :mod:`repro.store.dedup` — serialisable problem specs, solver
  construction and the content-addressed signature.
* :mod:`repro.store.store` — :class:`~repro.store.store.RunStore`, the
  facade tying streams, locks and dedup together.
* :mod:`repro.store.server` / :mod:`repro.store.client` — the
  ``repro-serve`` daemon (an op table on the ``RPW1`` endpoint of
  :mod:`repro.parallel.wire`) and the ``repro-submit`` client/CLI.
"""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "dedup": "build_solver canonical_spec problem_signature",
    "events": "EVENT_KINDS TERMINAL_KINDS Event TornRecordError decode_record encode_record",
    "lock": "FileLock LockTimeoutError",
    "store": "RunStore SubmitReceipt UnknownRunError",
    "stream": "AppendFaultPlan EventStream KilledAppend",
})
