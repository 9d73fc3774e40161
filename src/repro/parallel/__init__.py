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
  running actual fragment solves concurrently on local cores, and the
  one dispatch engine every multi-process backend runs on (with its
  worker, :class:`~repro.parallel.executor.WorkerServer`);
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
* :mod:`repro.parallel.wire` — the one ``RPW1`` endpoint: the framing,
  the serve loop and handshake, the client connection, the daemon
  spawner and ``fork_peer`` (imports nothing from the solver);
* :mod:`repro.parallel.remote` — the *multi-node* backend: the
  ``repro-worker`` daemon
  (:func:`~repro.parallel.remote.worker_main`) and the driver-side
  :class:`~repro.parallel.remote.RemoteExecutor` pool that runs fragment
  pipelines, GENPOT slabs and band slices on socket-connected workers —
  bit-identical to the serial backend, with heartbeats, timeouts,
  resubmission on worker death and an optional local fallback executor;
* :mod:`repro.parallel.faults` — seeded deterministic fault injection
  (:class:`~repro.parallel.faults.FaultPlan`,
  :class:`~repro.parallel.faults.FlakyExecutor`) for testing the
  failure model end to end.

Names are exported lazily (see :func:`repro.exports`): reading one
imports only the submodule that defines it.
"""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "machine": "Machine FRANKLIN JAGUAR INTREPID machine_by_name",
    "groups": "GroupDecomposition",
    "scheduler": "FragmentScheduler ScheduleSummary",
    "flops": "LS3DFWorkload FragmentWork",
    "comm": "CommunicationModel CommScheme",
    "perfmodel": "LS3DFPerformanceModel PerformancePoint DirectDFTCostModel",
    "amdahl": "amdahl_speedup fit_amdahl AmdahlFit SerialFractionEstimate "
    "measured_intra_group_efficiency measured_serial_fraction "
    "serial_fraction_history sharded_genpot_estimate",
    "bands": "BandBlockResult BandBlockTask BandGroup BandGroupExecutor BandGroupStats BandSlice "
    "band_slices run_band_block_task",
    "distributed": "GlobalStepExecutor GlobalStepResult GlobalStepTask run_global_step_task slab_bounds",
    "executor": "ExecutionReport FragmentExecutor FragmentPipelineTask FragmentTask FragmentTaskResult "
    "NoRemoteWorkersError ProcessPoolFragmentExecutor RemoteTaskError SerialFragmentExecutor WorkerDiedError "
    "WorkerServer run_fragment_pipeline_task solve_fragment_task",
    "wire": "RemoteProtocolError",
    "remote": "LocalWorkerPool RemoteExecutor RemoteExecutorConfig start_worker_thread worker_main",
    "faults": "FaultPlan FlakyExecutor",
})
