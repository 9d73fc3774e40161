"""Shape-keyed FFT workspace pool for the hot-path kernels.

The global-grid kernels (Hartree, Kerker mixing, the GENPOT slab stages)
transform identically-shaped arrays every SCF iteration, and every
``np.fft.fftn`` call without ``out=`` allocates a fresh complex output;
the plane-wave basis keeps its band-transform workspace here too.
numpy >= 2.0 pocketfft accepts an ``out=`` array and writes
*bit-identical* results into it (checked against the allocating call by
``tests/test_kernel_pack.py``), which makes a workspace pool safe for
this codebase's bit-identity discipline: reusing a buffer changes
*where* results live, never what they are.

Usage pattern (the only safe one)::

    with fftcache.scratch(shape) as w1, fftcache.scratch(shape) as w2:
        field_g = fftcache.fftn(field_r, out=w1)
        ...
        result = make_fresh_array_from(w2)   # never return pooled buffers

Pooled buffers are only ever *intermediates*; anything returned to a
caller must be freshly allocated (or an explicit copy), because the pool
will hand the buffer to the next acquirer.  The pool is process-global
and lock-guarded (in-process workers run kernels concurrently).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_LOCK = threading.Lock()
_MAX_PER_KEY: int = 4
_MAX_KEYS: int = 32
_POOL: "OrderedDict[tuple, list[np.ndarray]]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0, "reused_bytes": 0, "evictions": 0}

# The transforms the pooled kernels call, ``out=`` included.
fftn, ifftn, fft, ifft = np.fft.fftn, np.fft.ifftn, np.fft.fft, np.fft.ifft


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

    Falls back to a fresh allocation on a pool miss.
    """
    key = _key(shape, dtype)
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
    """Return a buffer to the pool.  No-op for views and non-arrays."""
    if not isinstance(buf, np.ndarray):
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
