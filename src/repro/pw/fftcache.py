"""Shape-keyed FFT workspace pool for the hot-path kernels (PR 6).

The fragment kernels perform thousands of FFTs on identically-shaped
arrays per SCF iteration (every band block of every fragment shares the
fragment grid shape), and every ``np.fft.fftn`` call allocates a fresh
complex output plus intermediates.  numpy >= 2.0 pocketfft accepts an
``out=`` array and writes *bit-identical* results into it (verified
empirically by ``tests/test_kernel_pack.py``), which makes a workspace
pool safe for this codebase's bit-identity discipline: reusing a buffer
changes *where* results live, never what they are.

Usage pattern (the only safe one)::

    with fftcache.scratch(shape) as w1, fftcache.scratch(shape) as w2:
        field_g = fftcache.fftn(field_r, out=w1)
        ...
        result = make_fresh_array_from(w2)   # never return pooled buffers

Pooled buffers are only ever *intermediates*; anything returned to a
caller must be freshly allocated (or an explicit copy), because the pool
will hand the buffer to the next acquirer.

The pool is process-global and lock-guarded (the thread backend runs
kernels concurrently).  Disable it with ``REPRO_FFT_CACHE=0`` or
``fftcache.configure(enabled=False)``: the wrappers then ignore ``out=``
and every call allocates, which is exactly the un-cached reference path
the equivalence tests compare against.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_FALSEY = {"0", "false", "off", "no"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_FFT_CACHE", "1").strip().lower() not in _FALSEY


_LOCK = threading.Lock()
_ENABLED: bool = _env_enabled()
_MAX_PER_KEY: int = 4
_MAX_KEYS: int = 32
_POOL: "OrderedDict[tuple, list[np.ndarray]]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0, "reused_bytes": 0, "evictions": 0}


def enabled() -> bool:
    """True when the workspace pool is active."""
    return _ENABLED


def configure(
    enabled: bool | None = None,
    max_per_key: int | None = None,
    max_keys: int | None = None,
) -> None:
    """Adjust pool behaviour; disabling also drops all pooled buffers."""
    global _ENABLED, _MAX_PER_KEY, _MAX_KEYS
    with _LOCK:
        if enabled is not None:
            _ENABLED = bool(enabled)
            if not _ENABLED:
                _POOL.clear()
        if max_per_key is not None:
            _MAX_PER_KEY = int(max_per_key)
        if max_keys is not None:
            _MAX_KEYS = int(max_keys)


def clear() -> None:
    """Drop every pooled buffer (stats are kept)."""
    with _LOCK:
        _POOL.clear()


def reset_stats() -> None:
    """Zero the hit/miss counters."""
    with _LOCK:
        for k in _STATS:
            _STATS[k] = 0


def stats() -> dict:
    """Snapshot of pool counters plus current pooled memory."""
    with _LOCK:
        snap = dict(_STATS)
        snap["pooled_buffers"] = sum(len(b) for b in _POOL.values())
        snap["pooled_bytes"] = sum(
            buf.nbytes for bucket in _POOL.values() for buf in bucket
        )
        return snap


def _key(shape: tuple, dtype) -> tuple:
    return (tuple(int(s) for s in shape), np.dtype(dtype).str)


def acquire(shape, dtype=np.complex128) -> np.ndarray:
    """Take a buffer of ``shape``/``dtype`` from the pool (contents dirty).

    Falls back to a fresh allocation on a pool miss or when disabled.
    """
    key = _key(shape, dtype)
    if _ENABLED:
        with _LOCK:
            bucket = _POOL.get(key)
            if bucket:
                _POOL.move_to_end(key)
                buf = bucket.pop()
                _STATS["hits"] += 1
                _STATS["reused_bytes"] += buf.nbytes
                return buf
            _STATS["misses"] += 1
    return np.empty(key[0], dtype=dtype)


def release(buf: np.ndarray) -> None:
    """Return a buffer to the pool.  No-op when disabled or for views."""
    if not _ENABLED or not isinstance(buf, np.ndarray):
        return
    if buf.base is not None or not buf.flags.c_contiguous:
        return
    key = _key(buf.shape, buf.dtype)
    with _LOCK:
        bucket = _POOL.setdefault(key, [])
        _POOL.move_to_end(key)
        if len(bucket) < _MAX_PER_KEY:
            bucket.append(buf)
        while len(_POOL) > _MAX_KEYS:
            _POOL.popitem(last=False)
            _STATS["evictions"] += 1


@contextmanager
def scratch(shape, dtype=np.complex128) -> Iterator[np.ndarray]:
    """Context-managed :func:`acquire`/:func:`release` pair."""
    buf = acquire(shape, dtype)
    try:
        yield buf
    finally:
        release(buf)


# -- np.fft wrappers ---------------------------------------------------------
# Each forwards ``out=`` only while the pool is enabled, so disabling the
# pool reproduces the plain allocating numpy path exactly.

def fftn(a, axes=None, out=None) -> np.ndarray:
    if out is not None and _ENABLED:
        return np.fft.fftn(a, axes=axes, out=out)
    return np.fft.fftn(a, axes=axes)


def ifftn(a, axes=None, out=None) -> np.ndarray:
    if out is not None and _ENABLED:
        return np.fft.ifftn(a, axes=axes, out=out)
    return np.fft.ifftn(a, axes=axes)


def fft(a, axis=-1, out=None) -> np.ndarray:
    if out is not None and _ENABLED:
        return np.fft.fft(a, axis=axis, out=out)
    return np.fft.fft(a, axis=axis)


def ifft(a, axis=-1, out=None) -> np.ndarray:
    if out is not None and _ENABLED:
        return np.fft.ifft(a, axis=axis, out=out)
    return np.fft.ifft(a, axis=axis)
