"""Band-parallel distributed eigensolver: worker groups inside a fragment.

The paper's two-level hierarchy gives every fragment group ``Np`` cores, so
the all-band CG *inside one fragment* is itself distributed: each core owns
a share of the heavy per-band work while the small dense cross-band
reductions run group-wide every sweep.  This is the local-machine analogue,
built on the same executor machinery as the fragment and global-step tasks:

* :func:`band_slices` / :class:`BandSlice` — deterministic contiguous
  partition of a block's rows (the block distribution of
  :func:`repro.parallel.distributed.slab_bounds`).
* :class:`BandBlockTask` / :func:`run_band_block_task` — the picklable
  per-slice unit, executed through ``run_bands`` on every backend: the
  slice's rows of H·psi, the one expensive per-band operation of PEtot_F and
  the only thing a group worker does.
* :class:`BandGroup` — the handle one grouped eigensolve holds
  (:func:`repro.core.fragment_task.solve_fragment_task` takes it as
  ``group=``, :func:`repro.pw.eigensolver.all_band_cg` as ``band_groups=``):
  it scatters a block into slices and gathers the rows back.  The rows it
  sees are the solver's *packed* rows — two real orbitals ``a + i b`` per
  complex row, packed on the root before the scatter — so a stage over the
  ``m`` active bands ships ``ceil(m / 2)`` rows each way.

Why the split is drawn there: a *variable-shape* BLAS product is not
row-slice stable (a 1-row GEMM may dispatch to GEMV with a different
accumulation order), so the cross-band algebra — Gram matrices, rotations,
Rayleigh-Ritz — and the elementwise residual step (32 bytes moved per ~10
flops, never worth shipping) stay on the group root, on full blocks of
identical shape.  The slice kernel is **row-independent bit for bit**:
elementwise products, box-restricted DFT products with the band index as a
batch dimension and the Kleinman-Bylander term as fixed-shape GEMMs over
globally-aligned band blocks
(:meth:`repro.pw.hamiltonian.Hamiltonian.add_nonlocal`), so concatenated
slices equal the full-block result for any slice count.  The paper divides
the same way: q-space data parallelism scales with Np, the group-wide
reductions erode intra-group efficiency
(:meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`).

Layering: depends on :mod:`repro.core.fragment_task` (the per-process
static-problem cache keyed by task fingerprints) and :mod:`repro.pw`; the
executor backends import the task kernel from here, and the solve kernel
receives a :class:`BandGroup` as an argument, so it never imports this
module.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.fragment_task import (
    FragmentTask,
    TaskProblem,
    get_task_problem,
    potential_fingerprint,
    resolve_screening_potential,
)
from repro.parallel.distributed import slab_bounds


@dataclass(frozen=True)
class BandSlice:
    """One worker's contiguous share of a fragment's band block.

    Attributes
    ----------
    index:
        Slice index (0-based position within the group).
    nslices:
        Total number of slices the block is split into.
    lo, hi:
        Half-open ``[lo, hi)`` band-row range this slice owns.  Empty
        slices (``lo == hi``) are legal when there are more workers than
        bands, matching the empty trailing slabs of
        :func:`repro.parallel.distributed.slab_bounds`.
    """

    index: int
    nslices: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.nslices:
            raise ValueError("slice index out of range")
        if self.lo > self.hi:
            raise ValueError("slice bounds must satisfy lo <= hi")

    @property
    def nbands(self) -> int:
        """Number of band rows this slice owns."""
        return self.hi - self.lo


def band_slices(nbands: int, nslices: int) -> list[BandSlice]:
    """Deterministic contiguous partition of ``nbands`` rows into slices.

    The first ``nbands % nslices`` slices get one extra row — the same
    block distribution as the slab layout, so the partition depends only
    on ``(nbands, nslices)`` and every backend sees identical bounds.

    Parameters
    ----------
    nbands:
        Number of band rows to split.
    nslices:
        Number of slices (may exceed ``nbands``; trailing slices empty).

    Returns
    -------
    list[BandSlice]
        ``nslices`` slices covering ``0..nbands``.
    """
    return [
        BandSlice(index=k, nslices=nslices, lo=lo, hi=hi)
        for k, (lo, hi) in enumerate(slab_bounds(nbands, nslices))
    ]


@dataclass
class BandBlockTask:
    """One band slice's rows of H·psi to compute (picklable).

    Mirrors :class:`repro.core.fragment_task.FragmentTask` and
    :class:`repro.parallel.distributed.GlobalStepTask` for the band
    layer: a self-contained description the executor backends ship to
    worker threads/processes.

    Attributes
    ----------
    bands:
        The :class:`BandSlice` this task covers (bookkeeping for the
        gathers, and the global band offset the blocked nonlocal kernel
        aligns to; the arrays below already carry only the slice's rows).
    template:
        The owning fragment's solve task.  Its
        :meth:`~repro.core.fragment_task.FragmentTask.static_fingerprint`
        keys the per-process static-problem cache, so pool workers build
        each fragment's basis/Hamiltonian once and reuse it for every
        slice of every sweep; the iteration's screening potential rides
        either inline (``screening_potential``) or — with the install
        channel — as a fingerprint key (``screening_key``) the
        worker resolves from its installed-potential store, so the array
        is pickled once per (fragment, iteration, worker) instead of
        once per slice per stage.  :class:`BandGroup` strips the
        (never-read) warm-start block either way.
    block:
        The slice's rows of the band block H is applied to.
    label:
        Display/bookkeeping label, defaulting to
        ``<fragment>:apply_h[index/nslices]``.
    """

    bands: BandSlice
    template: FragmentTask
    block: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = (
                f"{self.template.label}:apply_h"
                f"[{self.bands.index}/{self.bands.nslices}]"
            )

    def cost(self) -> float:
        """Relative cost for LPT scheduling (rows x plane waves)."""
        return float(self.block.size)

    def with_potential_payload(self, key: str, payload: np.ndarray) -> "BandBlockTask":
        """Copy of this task with the installed potential attached inline.

        The executor's retry path for
        :class:`~repro.core.fragment_task.PotentialNotInstalledError`;
        returns ``self`` unchanged when the key does not match.
        """
        t = self.template
        if t.screening_key != key or t.screening_potential is not None:
            return self
        return replace(self, template=replace(t, screening_potential=payload))


@dataclass(eq=False)
class BandBlockResult:
    """Result of one executed band-slice task.

    Attributes
    ----------
    label:
        The task's label.
    index:
        Slice index, so gathers can re-order results defensively.
    data:
        The slice's rows of H·psi.
    wall_time:
        In-worker wall-clock seconds of the kernel.
    worker_pid:
        PID of the process that executed the task.
    """

    label: str
    index: int
    data: np.ndarray
    wall_time: float
    worker_pid: int


def run_band_block_task(
    task: BandBlockTask, problem: TaskProblem | None = None
) -> BandBlockResult:
    """Execute one band-slice task — the shared per-slice eigensolver kernel.

    Like :func:`repro.core.fragment_task.solve_fragment_task` for whole
    fragments, this runs identically in the calling process and inside
    pool workers; every backend's ``run_bands`` dispatches here.

    Concurrency note: unlike the whole-fragment kernel this does **not**
    take the problem lock, although a worker group's roots interleave
    slices of different fragments on the same workers.  That is safe
    because (1) a task sets its fragment's potential and applies H in
    one go, (2) a worker serves one request at a time (per connection /
    pool worker) and in-process workers running side by side hold
    different Hamiltonians, and (3) roots of fragments sharing a
    ``static_fingerprint`` serialise on ``problem.lock``, which
    :func:`~repro.core.fragment_task.solve_fragment_task` holds for the
    whole grouped solve — so slices in flight on one problem all install
    the same potential (an idempotent assignment).

    Parameters
    ----------
    task:
        The per-slice work unit.
    problem:
        Optional pre-built static problem, bypassing the per-process
        cache lookup.

    Returns
    -------
    BandBlockResult
        The slice's rows of H·psi, with wall time and worker PID for the
        timing accounting.
    """
    t0 = time.perf_counter()
    if problem is None:
        problem = get_task_problem(task.template)
    h = problem.hamiltonian
    # Raises PotentialNotInstalledError for an uninstalled key — the
    # executor retries this task with the payload attached.
    v_screen = resolve_screening_potential(task.template)
    # Idempotent across the slices of one grouped solve (same array).
    h.set_effective_potential(v_screen)
    cblock = np.asarray(task.block, dtype=complex)
    # Blocked fixed-shape KB kernel aligned to the GLOBAL band index —
    # concatenated slices match the full-block bits.
    data = h.add_nonlocal(h.apply_local(cblock), cblock, band_offset=task.bands.lo)
    return BandBlockResult(
        label=task.label,
        index=task.bands.index,
        data=data,
        wall_time=time.perf_counter() - t0,
        worker_pid=os.getpid(),
    )


@runtime_checkable
class BandGroupExecutor(Protocol):
    """A fragment-execution backend that also runs band-slice tasks.

    All backends in :mod:`repro.parallel.executor` implement this;
    ``run_bands`` takes a batch of :class:`BandBlockTask` and returns an
    execution report whose ``results`` are :class:`BandBlockResult`
    objects in task order (the deterministic slice order the gathers
    rely on).
    """

    n_workers: int

    def run_bands(self, tasks: Sequence[BandBlockTask]):
        """Execute a batch of per-slice band tasks.

        Parameters
        ----------
        tasks:
            One :class:`BandBlockTask` per slice of one H application.

        Returns
        -------
        ExecutionReport
            With ``results`` (:class:`BandBlockResult`) in task order.
        """
        ...


@dataclass
class BandGroupStats:
    """Accounting of one grouped eigensolve (per fragment).

    Attributes
    ----------
    nslices:
        Band-slice count (the local analogue of Np cores per group).
    stages:
        Number of H·psi applications the solve dispatched — each stage
        is one ``run_bands`` batch of ``nslices`` tasks.
    submissions:
        Total band tasks submitted (``stages * nslices``).
    task_times:
        In-worker wall time of every band task, in submission order —
        the parallel bucket of the Amdahl accounting.
    """

    nslices: int
    stages: int = 0
    submissions: int = 0
    task_times: list[float] = field(default_factory=list)

    @property
    def task_cpu(self) -> float:
        """Summed in-worker band-task time (serial-equivalent cost)."""
        return float(sum(self.task_times))


class BandGroup:
    """Driver-side handle of one band-parallel eigensolve.

    What :func:`repro.core.fragment_task.solve_fragment_task` receives as
    ``group=`` and :func:`repro.pw.eigensolver.all_band_cg` as
    ``band_groups=``: the kernel binds it to the fragment it is solving
    (:meth:`bind`), and the solver then calls :meth:`apply_h` instead of
    ``Hamiltonian.apply`` — this class scatters the block rows into
    :class:`BandBlockTask` batches and gathers the results in slice order.

    Parameters
    ----------
    executor:
        Backend implementing :class:`BandGroupExecutor` (``run_bands``).
    nslices:
        Number of band slices — the local analogue of the paper's Np
        cores per fragment group.
    root_lock:
        Lock the roots of the band-grouped drain share
        (:meth:`repro.core.scf.LS3DFSCF._drain_band_groups`); the solve
        kernel holds it over its root-local FFT section.  Private when
        omitted.

    Handles bound to different fragments may drive one executor at the
    same time (see :func:`run_band_block_task`).
    """

    def __init__(
        self,
        executor: BandGroupExecutor,
        nslices: int,
        root_lock: threading.Lock | None = None,
    ) -> None:
        if nslices < 1:
            raise ValueError("nslices must be positive")
        if not hasattr(executor, "run_bands"):
            raise TypeError(
                f"band groups need an executor with run_bands(); "
                f"{type(executor).__name__} does not provide one"
            )
        self.executor = executor
        self.nslices = int(nslices)
        self.root_lock = root_lock or threading.Lock()
        self.template: FragmentTask | None = None
        self.stats = BandGroupStats(nslices=self.nslices)

    def bind(self, task: FragmentTask) -> "BandGroup":
        """Attach the fragment solve whose band block this group slices.

        ``task`` must carry a real ``screening_potential`` or an installed
        ``screening_key``; a copy of it ships with every band task so pool
        workers can reach the cached static problem.
        """
        # Every band task of every stage ships this template (the process
        # backend pickles it each time), so drop the warm-start block —
        # the band kernel never reads it, and it is the largest field after
        # the screening potential, which the install channel strips next.
        template = replace(task, initial_coefficients=None)
        if hasattr(self.executor, "install_state") and template.screening_potential is not None:
            v = np.asarray(template.screening_potential)
            key = potential_fingerprint(v)
            self.executor.install_state(key, v)
            template = replace(template, screening_potential=None, screening_key=key)
        self.template = template
        return self

    def apply_h(self, block: np.ndarray) -> np.ndarray:
        """Group-distributed H·psi on a block of rows, bit-identical to serial.

        Each slice computes its rows' *full* H·psi (the Kleinman-Bylander
        share through the blocked kernel aligned to global row indices) and
        the root only concatenates: the same bits as ``h.apply``.  One call
        is one stage: one ``run_bands`` batch of ``nslices`` tasks.
        """
        if self.template is None:
            raise RuntimeError("BandGroup.bind(task) must precede the first stage")
        tasks = [
            BandBlockTask(bands=s, template=self.template, block=block[s.lo : s.hi])
            for s in band_slices(block.shape[0], self.nslices)
        ]
        results = list(self.executor.run_bands(tasks).results)
        self.stats.stages += 1
        self.stats.submissions += len(tasks)
        self.stats.task_times.extend(r.wall_time for r in results)
        return np.concatenate([r.data for r in results], axis=0)
