"""Streaming GENPOT: resident slabs, dataflow stages, incremental exchange.

The paper's production GENPOT keeps each processor's slab resident
through the Poisson/XC chain and posts its all-to-all contributions as
soon as they exist, overlapping the layout conversion with compute
(Section IV's "the conversion is overlapped with the computation").
This module is that engine — the one way sharded GENPOT runs — on top of
the executor backends' futures surface (``submit_global`` on every
backend in :mod:`repro.parallel.executor` and
:mod:`repro.parallel.remote`):

* :class:`SlabExchangeBuffer` — the incremental slab transpose.  Target
  slabs are preallocated; every arriving source slab is copied straight
  into all of them, and a target whose last contribution lands is handed
  to the next stage immediately.  The assembled bytes are exactly the
  target's plane range of the global field, so downstream FFTs see the
  same inputs a single-array transform would.
* :func:`stream_genpot` — the fields of one GENPOT evaluation as a
  dataflow graph over per-slab
  :class:`~repro.parallel.distributed.GlobalStepTask` units: XC runs
  concurrently with the Poisson transform chain, and the fused
  ``genpot_finish`` stage (inverse transform + ``v_es + v_xc``) fires
  per slab the moment both of its inputs exist.  Every 1D transform runs
  in the order ``numpy.fft.fftn`` uses on the same values, so the
  gathered ``v_es`` / ``v_out`` / ``eps_xc`` are **bit-identical** to the
  unsharded single-array path on every backend, for any shard count.
  The mix and all o(N) scalar reductions run on the driver's gathered
  arrays (:meth:`repro.core.genpot.GlobalPotentialSolver.evaluate`).

Timing: the driver loop attributes its wall time to ``wait`` (blocked on
the completion queue) versus busy work, and separately meters
``layout_conversion`` (scatter / exchange-copy / gather seconds) — the
quantity the paper's overlap hides.  See
:class:`repro.core.genpot.GenpotStepTimings`.
"""

from __future__ import annotations

import queue
import time

import numpy as np

from repro.parallel.distributed import (
    GlobalStepTask,
    slab_bounds,
)

__all__ = ["SlabExchangeBuffer", "stream_genpot"]


class SlabExchangeBuffer:
    """Incremental slab transpose between two distributed axes.

    Instead of waiting for every source slab and concatenating, the
    target slabs are preallocated and each source slab is scattered into
    all of them on arrival.  Target ``j`` receives exactly the plane range
    ``slab_bounds(shape[dst_axis], nshards)[j]`` from every source, so
    the completed target equals that slice of the global field value for
    value, whatever order the sources arrive in.

    Parameters
    ----------
    shape:
        Global shape of the exchanged field.
    src_axis, dst_axis:
        Distributed axis of the incoming slabs / of the assembled
        targets (0 and 2 in some order for the GENPOT chains).
    nshards:
        Number of slabs on both sides.
    dtype:
        Element type of the assembled targets.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        src_axis: int,
        dst_axis: int,
        nshards: int,
        dtype=np.complex128,
    ) -> None:
        if src_axis == dst_axis:
            raise ValueError("exchange needs two distinct axes")
        self.src_axis = src_axis
        self.dst_axis = dst_axis
        self.src_bounds = slab_bounds(shape[src_axis], nshards)
        self.dst_bounds = slab_bounds(shape[dst_axis], nshards)
        self._targets: list[np.ndarray | None] = []
        for lo, hi in self.dst_bounds:
            tshape = list(shape)
            tshape[dst_axis] = hi - lo
            self._targets.append(np.empty(tuple(tshape), dtype=dtype))
        self._remaining = [nshards] * nshards

    def add(self, src_shard: int, slab: np.ndarray) -> list[int]:
        """Copy one arrived source slab into every target.

        Parameters
        ----------
        src_shard:
            Index of the arriving slab along ``src_axis``.
        slab:
            Its data: full extent on every axis except ``src_axis``.

        Returns
        -------
        list[int]
            Indices of targets completed by this contribution (each is
            returned exactly once; fetch them with :meth:`take`).
        """
        slo, shi = self.src_bounds[src_shard]
        ready = []
        for j, (lo, hi) in enumerate(self.dst_bounds):
            src_index: list[slice] = [slice(None)] * 3
            src_index[self.dst_axis] = slice(lo, hi)
            dst_index: list[slice] = [slice(None)] * 3
            dst_index[self.src_axis] = slice(slo, shi)
            self._targets[j][tuple(dst_index)] = slab[tuple(src_index)]
            self._remaining[j] -= 1
            if self._remaining[j] == 0:
                ready.append(j)
        return ready

    def take(self, j: int) -> np.ndarray:
        """Hand over completed target ``j`` (the buffer drops its ref)."""
        target = self._targets[j]
        if target is None:
            raise RuntimeError(f"target slab {j} already taken")
        if self._remaining[j] > 0:
            raise RuntimeError(f"target slab {j} is not complete yet")
        self._targets[j] = None
        return target


# Driver-loop tags -> the GenpotStepTimings bucket their task walls land in.
_TAG_CATEGORY = {
    "xc": "xc",
    "pf": "poisson",
    "pl": "poisson",
    "pi": "poisson",
    "fin": "poisson",
}


class _StreamEngine:
    """One GENPOT field evaluation as an event-driven slab dataflow.

    Built per call by :func:`stream_genpot`; holds the exchange buffers,
    per-slab result stores and the completion queue the executor's
    done-callbacks feed.  Handlers submit downstream tasks the moment
    their inputs are assembled — there is no stage barrier anywhere.
    """

    def __init__(self, net, rho, g2, nshards, executor):
        self.net = net
        self.rho = rho
        self.g2 = g2
        self.S = int(nshards)
        self.executor = executor
        self.shape = tuple(int(s) for s in net.shape)

        self._done: queue.Queue = queue.Queue()
        self._inflight = 0
        self.wait = 0.0
        self.conv = 0.0
        self.walls = {"poisson": 0.0, "xc": 0.0}
        self.task_times: list[float] = []

        S = self.S
        self.v_xc_slabs: list = [None] * S
        self.eps_slabs: list = [None] * S
        self.spec_ready: list = [None] * S  # finish-stage spectral input
        self._fin_submitted = [False] * S
        self.v_es_slabs: list = [None] * S
        self.v_out_slabs: list = [None] * S

        self._handlers = {
            "xc": self._on_xc,
            "pf": self._on_pf,
            "pl": self._on_pl,
            "pi": self._on_pi,
            "fin": self._on_fin,
        }

    # -- submission / driver loop --------------------------------------
    def _submit(self, tag, kind, shard, data, aux=None):
        task = GlobalStepTask(
            kind=kind,
            shard=shard,
            nshards=self.S,
            data=data,
            aux=aux,
        )
        self._inflight += 1
        future = self.executor.submit_global(task)
        future.add_done_callback(
            lambda f, tag=tag, shard=shard: self._done.put((tag, shard, f))
        )

    def _drain(self) -> None:
        while self._inflight:
            t0 = time.perf_counter()
            tag, shard, future = self._done.get()
            self.wait += time.perf_counter() - t0
            self._inflight -= 1
            result = future.result()
            self.task_times.append(result.wall_time)
            self.walls[_TAG_CATEGORY[tag]] += result.wall_time
            self._handlers[tag](shard, result)

    def _scatter(self, array, axis):
        """Contiguous slab copies of a global array along ``axis``."""
        t0 = time.perf_counter()
        index: list[slice] = [slice(None)] * 3
        slabs = []
        for lo, hi in slab_bounds(self.shape[axis], self.S):
            index[axis] = slice(lo, hi)
            slabs.append(np.ascontiguousarray(array[tuple(index)]))
        self.conv += time.perf_counter() - t0
        return slabs

    def _add(self, buffer, shard, slab):
        """Timed incremental-exchange contribution."""
        t0 = time.perf_counter()
        ready = buffer.add(shard, slab)
        self.conv += time.perf_counter() - t0
        return ready

    # -- graph construction --------------------------------------------
    def run(self):
        S, shape = self.S, self.shape
        self.ex_fwd = SlabExchangeBuffer(shape, 0, 2, S)
        self.ex_inv1 = SlabExchangeBuffer(shape, 2, 0, S)
        self.ex_inv2 = SlabExchangeBuffer(shape, 0, 2, S)
        # Read-only z-slab views of |G|^2 (pickled per task if shipped).
        self.g2_slabs = [self.g2[:, :, lo:hi] for lo, hi in slab_bounds(shape[2], S)]

        # Roots of the dataflow: XC on the resident z-slabs, and the
        # forward transform on x-slabs of the net density (scattered
        # directly on the transform's first axis).
        for j, slab in enumerate(self._scatter(self.rho, 2)):
            self._submit("xc", "xc", j, slab)
        for i, slab in enumerate(self._scatter(self.net, 0)):
            self._submit("pf", "fft_planes", i, slab)
        self._drain()
        return self._gather()

    # -- stage handlers -------------------------------------------------
    def _on_xc(self, j, r):
        self.v_xc_slabs[j] = r.data
        self.eps_slabs[j] = r.extra
        self._maybe_finish(j)

    def _on_pf(self, i, r):
        for j in self._add(self.ex_fwd, i, r.data):
            self._submit(
                "pl", "poisson_lines", j, self.ex_fwd.take(j), aux=self.g2_slabs[j]
            )

    def _on_pl(self, j, r):
        for i in self._add(self.ex_inv1, j, r.data):
            self._submit("pi", "ifft_planes", i, self.ex_inv1.take(i))

    def _on_pi(self, i, r):
        for j in self._add(self.ex_inv2, i, r.data):
            self.spec_ready[j] = self.ex_inv2.take(j)
            self._maybe_finish(j)

    def _maybe_finish(self, k):
        if self._fin_submitted[k]:
            return
        if self.v_xc_slabs[k] is None or self.spec_ready[k] is None:
            return
        self._fin_submitted[k] = True
        self._submit(
            "fin", "genpot_finish", k, self.spec_ready[k], aux=self.v_xc_slabs[k]
        )
        self.spec_ready[k] = None

    def _on_fin(self, k, r):
        self.v_es_slabs[k] = r.data
        self.v_out_slabs[k] = r.extra

    # -- reduction -------------------------------------------------------
    def _gather(self):
        t0 = time.perf_counter()
        v_es = np.concatenate(self.v_es_slabs, axis=2)
        v_out = np.concatenate(self.v_out_slabs, axis=2)
        eps_xc = np.concatenate(self.eps_slabs, axis=2)
        self.conv += time.perf_counter() - t0
        return v_es, v_out, eps_xc


def stream_genpot(
    net: np.ndarray,
    rho: np.ndarray,
    g2: np.ndarray,
    nshards: int,
    executor,
    timings=None,
):
    """Run one streamed GENPOT field evaluation (Poisson + XC).

    Parameters
    ----------
    net:
        Net (electron minus ionic) charge density on the global grid.
    rho:
        Clipped, renormalised electron density (XC input).
    g2:
        The grid's ``|G|^2`` array.
    nshards:
        Number of 1D slabs.
    executor:
        Any backend with ``submit_global``
        (:class:`repro.parallel.distributed.GlobalStepExecutor`).
    timings:
        Optional :class:`repro.core.genpot.GenpotStepTimings` to fill:
        per-category task walls, ``task_times``, ``wait`` / ``busy`` and
        ``layout_conversion``.

    Returns
    -------
    tuple
        ``(v_es, v_out, eps_xc)`` on the global grid — bit-identical to
        the unsharded single-array evaluation.
    """
    t_start = time.perf_counter()
    engine = _StreamEngine(net, rho, g2, nshards, executor)
    v_es, v_out, eps_xc = engine.run()
    wall = time.perf_counter() - t_start
    if timings is not None:
        timings.poisson += engine.walls["poisson"]
        timings.xc += engine.walls["xc"]
        timings.task_times.extend(engine.task_times)
        timings.wait += engine.wait
        timings.busy += max(wall - engine.wait, 0.0)
        timings.layout_conversion += engine.conv
    return v_es, v_out, eps_xc
