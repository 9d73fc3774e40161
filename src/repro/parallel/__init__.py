"""Parallel-machine substrate: the paper's performance evaluation, modelled.

The paper's evaluation (Table I, Figures 3-5) was produced on three
2008-era DOE machines — Franklin and Jaguar (Cray XT4) and Intrepid
(BlueGene/P) — with up to 131,072 cores.  None of that hardware is
available here, so this subpackage reproduces the evaluation through an
explicit execution model:

* :mod:`repro.parallel.machine`   — machine descriptions (cores, clock,
  flops/cycle, memory, network latency/bandwidth) for the three systems;
* :mod:`repro.parallel.groups`    — processor-group decomposition (Np cores
  per group, Ng groups) used by PEtot_F;
* :mod:`repro.parallel.scheduler` — assignment of fragments to groups with
  load balancing;
* :mod:`repro.parallel.flops`     — analytic floating-point operation counts
  of the four LS3DF kernels for a given physical problem;
* :mod:`repro.parallel.comm`      — communication cost models for the three
  generations of Gen_VF / Gen_dens data movement (file I/O, collective
  MPI, point-to-point isend/irecv);
* :mod:`repro.parallel.perfmodel` — the execution model that combines all of
  the above into per-iteration times, Tflop/s and %-of-peak figures;
* :mod:`repro.parallel.amdahl`    — Amdahl's-law fitting used for Figure 3;
* :mod:`repro.parallel.executor`  — *real* fragment-execution backends
  (serial, persistent process pool) behind the
  :class:`repro.core.fragment_task.FragmentExecutor` protocol, for
  running actual fragment solves concurrently on local cores;
* :mod:`repro.parallel.distributed` — the paper's 1D slab data layout for
  the *global* steps: the slab bounds and the per-slab
  :class:`~repro.parallel.distributed.GlobalStepTask` units (FFT stages
  in ``numpy.fft.fftn``'s axis order, Poisson kernel, XC, fused finish) the
  sharded GENPOT path pushes through the same executor backends;
* :mod:`repro.parallel.streaming` — the engine that runs them: one
  GENPOT evaluation as a slab dataflow with incremental transposes,
  bit-identical to the single-array path;
* :mod:`repro.parallel.bands` — the band-parallel distributed
  eigensolver: :class:`~repro.parallel.bands.BandSlice` partitions of a
  fragment's band block, per-slice
  :class:`~repro.parallel.bands.BandBlockTask` units (the slice's rows
  of H·psi, row-independent bit for bit) and the
  :class:`~repro.parallel.bands.BandGroup` root handle that makes
  ``all_band_cg`` run on a whole worker group — the paper's Np cores per
  fragment group — with bit-identical results;
* :mod:`repro.parallel.remote` — the *multi-node* backend: a
  length-prefixed-pickle wire protocol, the ``repro-worker`` daemon
  (:class:`~repro.parallel.remote.WorkerServer`) and the driver-side
  :class:`~repro.parallel.remote.RemoteExecutor` pool that runs fragment
  pipelines, GENPOT slabs and band slices on socket-connected workers —
  bit-identical to the serial backend, with heartbeats, timeouts,
  resubmission on worker death and an optional local fallback executor;
* :mod:`repro.parallel.faults` — seeded deterministic fault injection
  (:class:`~repro.parallel.faults.FlakyWorker`,
  :class:`~repro.parallel.faults.FlakyExecutor`) for testing the
  failure model end to end.
"""

from repro.parallel.machine import Machine, FRANKLIN, JAGUAR, INTREPID, machine_by_name
from repro.parallel.groups import GroupDecomposition, choose_group_size
from repro.parallel.scheduler import FragmentScheduler, ScheduleSummary
from repro.parallel.flops import LS3DFWorkload, FragmentWork
from repro.parallel.comm import CommunicationModel, CommScheme
from repro.parallel.perfmodel import LS3DFPerformanceModel, PerformancePoint, DirectDFTCostModel
from repro.parallel.amdahl import (
    amdahl_speedup,
    fit_amdahl,
    AmdahlFit,
    SerialFractionEstimate,
    intra_group_efficiency_history,
    measured_intra_group_efficiency,
    measured_serial_fraction,
    serial_fraction_history,
    sharded_genpot_estimate,
)
from repro.parallel.bands import (
    BandBlockResult,
    BandBlockTask,
    BandGroup,
    BandGroupExecutor,
    BandGroupStats,
    BandSlice,
    band_slices,
    run_band_block_task,
)
from repro.parallel.distributed import (
    GlobalStepExecutor,
    GlobalStepResult,
    GlobalStepTask,
    run_global_step_task,
    slab_bounds,
)
from repro.parallel.executor import (
    ExecutionReport,
    FragmentExecutor,
    FragmentPipelineTask,
    FragmentTask,
    FragmentTaskResult,
    ProcessPoolFragmentExecutor,
    SerialFragmentExecutor,
    run_fragment_pipeline_task,
    solve_fragment_task,
)
from repro.parallel.remote import (
    LocalWorkerPool,
    NoRemoteWorkersError,
    RemoteExecutor,
    RemoteExecutorConfig,
    RemoteProtocolError,
    RemoteTaskError,
    WorkerDiedError,
    WorkerServer,
    start_worker_thread,
    worker_main,
)
from repro.parallel.faults import FaultPlan, FlakyExecutor, FlakyWorker

__all__ = [
    "Machine",
    "FRANKLIN",
    "JAGUAR",
    "INTREPID",
    "machine_by_name",
    "GroupDecomposition",
    "choose_group_size",
    "FragmentScheduler",
    "ScheduleSummary",
    "LS3DFWorkload",
    "FragmentWork",
    "CommunicationModel",
    "CommScheme",
    "LS3DFPerformanceModel",
    "PerformancePoint",
    "DirectDFTCostModel",
    "amdahl_speedup",
    "fit_amdahl",
    "AmdahlFit",
    "SerialFractionEstimate",
    "intra_group_efficiency_history",
    "measured_intra_group_efficiency",
    "measured_serial_fraction",
    "serial_fraction_history",
    "sharded_genpot_estimate",
    "BandBlockResult",
    "BandBlockTask",
    "BandGroup",
    "BandGroupExecutor",
    "BandGroupStats",
    "BandSlice",
    "band_slices",
    "run_band_block_task",
    "GlobalStepExecutor",
    "GlobalStepResult",
    "GlobalStepTask",
    "run_global_step_task",
    "slab_bounds",
    "ExecutionReport",
    "FragmentExecutor",
    "FragmentPipelineTask",
    "FragmentTask",
    "FragmentTaskResult",
    "ProcessPoolFragmentExecutor",
    "SerialFragmentExecutor",
    "run_fragment_pipeline_task",
    "solve_fragment_task",
    "LocalWorkerPool",
    "NoRemoteWorkersError",
    "RemoteExecutor",
    "RemoteExecutorConfig",
    "RemoteProtocolError",
    "RemoteTaskError",
    "WorkerDiedError",
    "WorkerServer",
    "start_worker_thread",
    "worker_main",
    "FaultPlan",
    "FlakyExecutor",
    "FlakyWorker",
]
