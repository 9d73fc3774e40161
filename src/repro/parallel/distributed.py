"""The 1D-slab layout of the global grid and its per-slab global-step tasks.

The paper runs the *global* steps of every LS3DF iteration — GENPOT's
Poisson solve, exchange-correlation and potential mixing — on a second
data layout: while fragments live on processor groups, the global fields
are split into 1D slabs along the z-axis, and explicit data movement
converts between the two layouts every iteration (Section IV; the dual
fragment/slab layout is what keeps the o(N) global work off the fragment
groups' critical path).

This module holds the pieces of that layout the executors ship around:

* :func:`slab_bounds` — the deterministic block distribution of planes
  over slabs; depends only on ``(n, nshards)``, so every backend and
  worker count sees identical slab boundaries.
* :class:`GlobalStepTask` / :func:`run_global_step_task` — picklable
  per-slab units of global-step work (FFT stages, the Poisson reciprocal-
  space kernel, LDA XC, the fused finish stage), executed through the
  same executor backends that run fragment solves (``submit_global`` /
  ``run_global`` on every backend in :mod:`repro.parallel.executor` and
  :mod:`repro.parallel.remote`).  The stages apply the 1D transforms in
  the order ``numpy.fft.fftn`` uses (last axis first), and each 1D
  transform is independent of how the other axes are batched, so a
  slab-transposed transform is **bit-identical** to the single-array one
  for any shard count.
* :class:`GlobalStepExecutor` — the protocol a backend must satisfy to
  run them.

The orchestration — which stage runs when, and the slab transposes
between them — lives in :mod:`repro.parallel.streaming`.

Layering: this module depends only on :mod:`numpy`, :mod:`repro.constants`
and the plane-wave substrate; the executors import the task kernel from
here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.constants import FOUR_PI
from repro.pw import fftcache
from repro.pw.xc import lda_xc


def slab_bounds(n: int, nshards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` ranges splitting ``n`` planes.

    The first ``n % nshards`` shards get one extra plane — the standard
    deterministic block distribution.  ``nshards`` may exceed ``n``; the
    trailing shards are then empty, which the FFT stages handle (zero
    transforms).  The decomposition depends only on ``(n, nshards)``, so
    every backend and worker count sees identical slab boundaries.

    Parameters
    ----------
    n:
        Number of planes along the distributed axis.
    nshards:
        Number of shards to split them into.

    Returns
    -------
    list[tuple[int, int]]
        ``nshards`` half-open ``[lo, hi)`` ranges covering ``0..n``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if nshards < 1:
        raise ValueError("nshards must be positive")
    base, extra = divmod(n, nshards)
    bounds = []
    lo = 0
    for k in range(nshards):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ---------------------------------------------------------------------------
# Per-slab global-step tasks (the picklable unit the executors run)


@dataclass
class GlobalStepTask:
    """One slab's worth of a GENPOT global step (picklable).

    Mirrors :class:`repro.core.fragment_task.FragmentTask` for the global
    layer: a self-contained description the executor backends can ship to
    worker threads/processes.  ``kind`` selects the kernel (see
    :func:`run_global_step_task`); ``data`` is the shard's primary slab,
    ``aux`` an optional second per-slab input (the Poisson ``|G|^2`` slab,
    the XC slab of the finish stage).
    """

    kind: str
    shard: int
    nshards: int
    data: np.ndarray
    aux: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = f"{self.kind}[{self.shard}/{self.nshards}]"

    def cost(self) -> float:
        """Relative cost for LPT scheduling (slab volume; slabs are near-equal)."""
        return float(self.data.size)


@dataclass(eq=False)
class GlobalStepResult:
    """Result of one executed global-step task.

    Attributes
    ----------
    label:
        The task's label (``kind[shard/nshards]`` by default).
    shard:
        Shard index, so reductions can re-order results defensively.
    data:
        The kernel's primary output slab.
    extra:
        Optional secondary output (``eps_xc`` from the XC kernel,
        ``v_out`` from the finish stage); ``None`` for the other kinds.
    wall_time:
        In-worker wall-clock seconds of the kernel.
    worker_pid:
        PID of the process that executed the task.
    """

    label: str
    shard: int
    data: np.ndarray
    extra: np.ndarray | None
    wall_time: float
    worker_pid: int


def _kernel_fft_planes(task: GlobalStepTask):
    # Forward FFT over the two locally complete axes of an x-slab, in the
    # same order numpy's fftn uses (last axis first).  The half-transformed
    # intermediate lives in a pooled workspace buffer (bit-identical reuse,
    # see repro.pw.fftcache); the returned slab is always fresh because the
    # caller retains it.
    with fftcache.scratch(task.data.shape) as w:
        a = fftcache.fft(task.data, axis=2, out=w)
        return np.fft.fft(a, axis=1), None


def _kernel_poisson_lines(task: GlobalStepTask):
    # Complete the forward transform, then apply the reciprocal-space
    # Poisson kernel 4 pi / |G|^2 with the G = 0 component zeroed —
    # element for element the arithmetic of repro.pw.hartree.
    with fftcache.scratch(task.data.shape) as w:
        rho_g = fftcache.fft(task.data, axis=0, out=w)
        g2 = task.aux
        vg = np.zeros(rho_g.shape, dtype=rho_g.dtype)
        nonzero = g2 > 1e-12
        vg[nonzero] = FOUR_PI * rho_g[nonzero] / g2[nonzero]
        return vg, None


def _kernel_ifft_planes(task: GlobalStepTask):
    with fftcache.scratch(task.data.shape) as w:
        a = fftcache.ifft(task.data, axis=2, out=w)
        return np.fft.ifft(a, axis=1), None


def _kernel_xc(task: GlobalStepTask):
    # LDA exchange-correlation is pointwise, hence embarrassingly slab-
    # parallel.  Returns (v_xc, eps_xc) for the shard.
    eps_xc, v_xc = lda_xc(task.data)
    return v_xc, eps_xc


def _kernel_genpot_finish(task: GlobalStepTask):
    # Fused final stage of GENPOT: finish the inverse Poisson transform
    # on this resident slab and add its XC slab (``aux``) — one task
    # instead of a gather and a driver-side elementwise pass.  Returns
    # (v_es, v_out) for the shard; the mix runs on the gathered driver
    # arrays.
    with fftcache.scratch(task.data.shape) as w:
        v_es = fftcache.ifft(task.data, axis=0, out=w).real.copy()
    return v_es, v_es + task.aux


_STEP_KERNELS = {
    "fft_planes": _kernel_fft_planes,
    "poisson_lines": _kernel_poisson_lines,
    "ifft_planes": _kernel_ifft_planes,
    "xc": _kernel_xc,
    "genpot_finish": _kernel_genpot_finish,
}


def run_global_step_task(task: GlobalStepTask) -> GlobalStepResult:
    """Execute one global-step task — the shared per-slab GENPOT kernel.

    Like :func:`repro.core.fragment_task.solve_fragment_task` for
    fragments, this runs identically in the calling process and inside
    pool workers; every backend's ``submit_global`` / ``run_global``
    dispatches here.

    Parameters
    ----------
    task:
        The per-slab work unit; its ``kind`` selects the kernel
        (``fft_planes``, ``poisson_lines``, ``xc``, ``genpot_finish``,
        ...), unknown kinds raise ``ValueError``.

    Returns
    -------
    GlobalStepResult
        The transformed slab (plus the secondary ``extra``), with
        wall time and worker PID for the timing accounting.
    """
    t0 = time.perf_counter()
    try:
        kernel = _STEP_KERNELS[task.kind]
    except KeyError:
        raise ValueError(f"unknown global step kind {task.kind!r}") from None
    data, extra = kernel(task)
    return GlobalStepResult(
        label=task.label,
        shard=task.shard,
        data=data,
        extra=extra,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
    )


@runtime_checkable
class GlobalStepExecutor(Protocol):
    """A fragment-execution backend that also runs global-step tasks.

    All backends in :mod:`repro.parallel.executor` and
    :class:`repro.parallel.remote.RemoteExecutor` implement this.
    ``submit_global`` is what sharded GENPOT runs on
    (:func:`repro.parallel.streaming.stream_genpot` issues each per-slab
    stage the moment its inputs exist); ``run_global`` is the same
    submission for a whole batch, gathered in task order.
    """

    n_workers: int

    def submit_global(self, task: GlobalStepTask):
        """Submit one per-slab global-step task.

        Returns
        -------
        A future (``done`` / ``result`` / ``add_done_callback``) that
        resolves to the task's :class:`GlobalStepResult`.
        """
        ...

    def run_global(self, tasks: Sequence[GlobalStepTask]):
        """Execute a batch of per-slab global-step tasks.

        Parameters
        ----------
        tasks:
            One :class:`GlobalStepTask` per shard of one stage.

        Returns
        -------
        ExecutionReport
            With ``results`` (:class:`GlobalStepResult`) in task order.
        """
        ...
