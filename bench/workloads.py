"""The five workloads: set-up, one closed-loop run, checks, per-layer numbers.

Every workload drives ``repro`` through its public API only.  ``repro`` is
imported inside :meth:`setup`, so the harness times the imports as part of
set-up.  One *run* is one whole solve (SCF workloads), one chain of GENPOT
steps, or one burst of jobs; the harness repeats runs and takes medians.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from bench import gen
from bench.env import OUT_DIR, REPO_ROOT
from bench.metrics import TooFewSamples, percentile

#: Workers / job slots / client connections: fixed, not derived from nproc.
WORKERS = 2

GENPOT_GRID = (64, 64, 128)
GENPOT_SHARDS = 8

SCF_DIMS = (2, 1, 1)
SCF_SOLVER = dict(ecut=2.2, buffer_cells=0.5, n_empty=2, mixer="kerker")
SCF_RUN = dict(potential_tolerance=1e-6, eigensolver_tolerance=1e-5, eigensolver_iterations=50)
#: ``scf_process`` ships potentials inside the tasks: the default install
#: broadcast can miss a worker, and since the executor remembers a key as
#: broadcast, a process that repeats one solve then heals the same
#: iteration serially in every run (+28 %, 13 of 58 invocations measured;
#: README "scf_process and the install broadcast").
SCF_VARIANTS = {
    "scf_serial": {},
    "scf_process": dict(pipeline=True, genpot_shards=2, install_potentials=False),
    "scf_remote_bands": dict(band_groups=2),
}

_SERVE_STUB = "import sys; from repro.store.server import serve_main; sys.exit(serve_main(sys.argv[1:]))"


class Sizes(NamedTuple):
    """How much one run does and how many runs one invocation times."""

    label: str
    scf_iterations: dict
    genpot_steps: int
    jobs: int
    duplicates: int
    min_runs: int
    warmup: bool


#: Sized so that five timed runs, the warm-up and the checks of any workload
#: fit the contract's budget of about 30 s per invocation on two cores.
#: ISSUE 11's protocol (10 iterations, 12 steps, 48 jobs) needs 40-60 s.
STANDARD = Sizes(
    "standard",
    {"scf_serial": 3, "scf_process": 3, "scf_remote_bands": 2},
    genpot_steps=8, jobs=20, duplicates=5, min_runs=5, warmup=True,
)
SMOKE = Sizes(
    "smoke",
    {"scf_serial": 2, "scf_process": 2, "scf_remote_bands": 1},
    genpot_steps=3, jobs=8, duplicates=2, min_runs=1, warmup=False,
)


@dataclass
class Outcome:
    """What one run produced, for the checks and the per-layer numbers."""

    ops: int
    failed_ops: int = 0
    latencies: list[float] = field(default_factory=list)
    payload: object = None


class Workload:
    """Common shape; subclasses fill in the five steps."""

    workers = 1
    #: Span name whose subtree the trace file's layer shares are taken over.
    trace_root = "core.scf"
    #: Wall of the serial reference solve (SCF workloads on an executor).
    reference_wall = 0.0

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        self.name = name
        self.seed = int(seed)
        self.sizes = sizes
        self.flags: dict[str, bool] = {}

    def setup(self) -> None:
        """Imports, construction, pool / worker / daemon boot and handshake."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed reference computations the checks compare against."""

    def run(self, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> dict[str, bool]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Public executor counters (read before and after the traced run)."""
        return {}

    @contextlib.contextmanager
    def trace_host(self):
        """Context the traced run happens in (``service_burst`` re-hosts)."""
        yield

    def layer_metrics(self, outcome: Outcome, spans: list) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Tear down everything :meth:`setup` started, and wait for it."""


def _executor_counters(executor) -> dict[str, float]:
    names = (
        "tasks_submitted", "pool_submissions", "install_broadcasts", "bytes_sent",
        "bytes_received", "resubmissions", "workers_lost", "degraded_tasks",
    )
    return {name: float(getattr(executor, name, 0)) for name in names}


def _utilisation(workers: int, dispatch_wall: float, worker_busy: float) -> dict[str, float]:
    capacity = workers * dispatch_wall
    return {
        "parallel.executor.dispatch_wall_s": dispatch_wall,
        "parallel.executor.worker_busy_s": worker_busy,
        "parallel.executor.wait_s": max(capacity - worker_busy, 0.0),
        "parallel.executor.efficiency": worker_busy / capacity if capacity > 0 else 0.0,
    }


class ScfWorkload(Workload):
    """``scf_serial`` / ``scf_process`` / ``scf_remote_bands``: one LS3DF solve per run."""

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        super().__init__(name, seed, sizes)
        self.workers = 1 if name == "scf_serial" else WORKERS
        self.iterations = sizes.scf_iterations[name]
        self.executor = None
        self.pool = None
        self.solver = None
        self.golden: list[float] = []
        self.reference_energy: float | None = None

    def _solver(self, executor, **variant):
        from repro.atoms.toy import cscl_binary
        from repro.core.driver import LS3DF

        structure = cscl_binary(SCF_DIMS, "Zn", "O", gen.GOLDEN_LATTICE)
        return LS3DF(structure, grid_dims=SCF_DIMS, executor=executor, **SCF_SOLVER, **variant)

    def setup(self) -> None:
        if self.name == "scf_process":
            from repro.parallel.executor import ProcessPoolFragmentExecutor

            self.executor = ProcessPoolFragmentExecutor(WORKERS)
            # The pool forks on first use; a tiny install boots every worker.
            self.executor.install_state("bench-boot", np.zeros(1))
        elif self.name == "scf_remote_bands":
            from repro.parallel.remote import LocalWorkerPool, RemoteExecutor

            self.pool = LocalWorkerPool(WORKERS).start()
            self.executor = RemoteExecutor(self.pool.addresses, fallback=None)
            if self.executor.heartbeat() != WORKERS:
                raise RuntimeError("not every repro-worker answered the handshake")
        self.solver = self._solver(self.executor, **SCF_VARIANTS[self.name])

    def _run_kwargs(self) -> dict:
        return dict(max_iterations=self.iterations, **SCF_RUN)

    def prepare(self) -> None:
        golden = json.loads((REPO_ROOT / "tests" / "golden" / "zno_2x1x1.json").read_text())
        self.golden = [float(e) for e in golden["energy_history"]]
        if self.name != "scf_serial":
            t0 = time.perf_counter()
            reference = self._solver(None).run(**self._run_kwargs())
            self.reference_wall = time.perf_counter() - t0
            self.reference_energy = float(reference.total_energy)

    def run(self, index: int) -> Outcome:
        return Outcome(ops=1, payload=self.solver.run(**self._run_kwargs()))

    def check(self, outcome: Outcome) -> dict[str, bool]:
        from repro.pw.density import integrated_charge

        result = outcome.payload
        grid = self.solver.global_grid
        electrons = self.solver.structure.total_valence_electrons()
        checks = {
            "iterations": result.iterations == self.iterations,
            "charge": abs(integrated_charge(result.density, grid.dvol) - electrons) <= 1e-6,
        }
        n = min(self.iterations, len(self.golden))
        checks["golden_energy_history"] = all(
            abs(a - b) <= 1e-6 for a, b in zip(result.energy_history[:n], self.golden[:n])
        )
        if self.reference_energy is not None:
            checks["energy_vs_serial"] = abs(result.total_energy - self.reference_energy) <= 1e-8
            self.flags["bit_identical"] = result.total_energy == self.reference_energy
        return checks

    def counters(self) -> dict[str, float]:
        return _executor_counters(self.solver.executor)

    def layer_metrics(self, outcome: Outcome, spans: list) -> dict[str, float]:
        from repro.parallel.scheduler import FragmentScheduler

        timings = outcome.payload.timings
        totals = [t.total for t in timings]
        fragments = [w for t in timings for w in t.petot_f_fragments]
        # The four stages come from the program's own IterationTimings: the
        # in-worker shares are invisible to spans, and with the overlapped
        # reduce the patch_contributions span is mostly waiting on futures.
        out = {
            "core.scf.iterations": float(len(timings)),
            "core.scf.first_iter_s": totals[0],
            "core.scf.warm_iter_s": statistics.median(totals[1:]) if len(totals) > 1 else 0.0,
            "core.gen_vf.busy_s": sum(t.gen_vf + sum(t.gen_vf_fragments) for t in timings),
            "core.gen_dens.busy_s": sum(t.gen_dens + t.overlap_busy + sum(t.gen_dens_fragments) for t in timings),
            "core.petot_f.busy_s": sum(fragments),
            "core.petot_f.max_fragment_s": max(fragments),
        }
        if self.name == "scf_serial":
            return out
        band_tasks = [w for t in timings for w in t.band_tasks]
        genpot_tasks = [w for t in timings for w in t.genpot_tasks]
        dispatch = sum(t.petot_f for t in timings) + sum(t.genpot for t in timings if t.genpot_sharded)
        busy = sum(band_tasks) if band_tasks else sum(fragments)
        out.update(_utilisation(self.workers, dispatch, busy + sum(genpot_tasks)))
        per_fragment = np.mean([t.petot_f_fragments for t in timings], axis=0)
        out["parallel.scheduler.lpt_imbalance"] = float(
            FragmentScheduler().schedule_by_costs(per_fragment, self.workers).imbalance
        )
        if genpot_tasks:
            out["parallel.genpot.tasks"] = float(len(genpot_tasks))
            out["parallel.genpot.task_cpu_s"] = sum(genpot_tasks)
            out["parallel.genpot.layout_conversion_s"] = sum(t.layout_conversion for t in timings)
            out["parallel.genpot.wait_s"] = sum(t.genpot_wait for t in timings)
        if band_tasks:
            petot = sum(t.petot_f for t in timings)
            out["parallel.bands.slice_tasks"] = float(len(band_tasks))
            out["parallel.bands.slice_busy_s"] = sum(band_tasks)
            out["parallel.bands.root_busy_s"] = sum(t.band_driver for t in timings)
            out["parallel.bands.intra_group_efficiency"] = (
                sum(t.measured_intra_group_efficiency * t.petot_f for t in timings) / petot if petot > 0 else 0.0
            )
        return out

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
        if self.pool is not None:
            self.pool.terminate()


class GenpotWorkload(Workload):
    """``genpot_sharded``: chained streamed GENPOT steps on a large grid."""

    workers = WORKERS
    trace_root = "core.genpot"

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        super().__init__(name, seed, sizes)
        self.executor = None
        self.solver = None
        self.unsharded_step_s = 0.0

    def _solver(self, **kwargs):
        from repro.atoms.toy import cscl_binary
        from repro.core.genpot import GlobalPotentialSolver
        from repro.pw.grid import FFTGrid
        from repro.pw.pseudopotential import default_pseudopotentials

        structure = cscl_binary((1, 1, 1), "Zn", "O", gen.GOLDEN_LATTICE)
        grid = FFTGrid(structure.cell, GENPOT_GRID)
        return GlobalPotentialSolver(structure, grid, default_pseudopotentials(), mixer="kerker", **kwargs)

    def setup(self) -> None:
        from repro.parallel.executor import ProcessPoolFragmentExecutor

        self.executor = ProcessPoolFragmentExecutor(WORKERS)
        self.executor.install_state("bench-boot", np.zeros(1))
        self.solver = self._solver(shards=GENPOT_SHARDS, executor=self.executor)
        self.density = gen.genpot_density(self.seed, GENPOT_GRID)
        self.v0 = self.solver.initial_potential()

    def prepare(self) -> None:
        unsharded = self._solver()
        walls = []
        for _ in range(3):
            unsharded.reset()
            t0 = time.perf_counter()
            out = unsharded.evaluate(self.density, self.v0)
            walls.append(time.perf_counter() - t0)
        self.reference_potential = out.next_input_potential
        self.unsharded_step_s = statistics.median(walls)

    def run(self, index: int) -> Outcome:
        self.solver.reset()
        v_in = self.v0
        first = None
        steps = []
        for _ in range(self.sizes.genpot_steps):
            t0 = time.perf_counter()
            out = self.solver.evaluate(self.density, v_in)
            steps.append((time.perf_counter() - t0, out.timings))
            if first is None:
                first = out.next_input_potential
            v_in = out.next_input_potential
        return Outcome(ops=len(steps), payload=(first, steps))

    def check(self, outcome: Outcome) -> dict[str, bool]:
        first, _ = outcome.payload
        return {"sharded_equals_unsharded": bool(np.array_equal(first, self.reference_potential))}

    def counters(self) -> dict[str, float]:
        return _executor_counters(self.executor)

    def layer_metrics(self, outcome: Outcome, spans: list) -> dict[str, float]:
        _, steps = outcome.payload
        timings = [t for _, t in steps]
        task_cpu = sum(t.task_cpu for t in timings)
        busy = sum(t.busy for t in timings)
        wait = sum(t.wait for t in timings)
        out = _utilisation(self.workers, sum(wall for wall, _ in steps), task_cpu)
        out.update({
            "parallel.genpot.tasks": float(sum(len(t.task_times) for t in timings)),
            "parallel.genpot.task_cpu_s": task_cpu,
            "parallel.genpot.layout_conversion_s": sum(t.layout_conversion for t in timings),
            "parallel.genpot.wait_s": wait,
            "parallel.genpot.occupancy": busy / (busy + wait) if busy + wait > 0 else 0.0,
            "parallel.genpot.unsharded_step_s": self.unsharded_step_s,
        })
        return out

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


class ServiceWorkload(Workload):
    """``service_burst``: many tiny jobs through one ``repro-serve`` daemon."""

    workers = WORKERS

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        super().__init__(name, seed, sizes)
        self.root = OUT_DIR / f"store-{os.getpid()}"
        self.daemon = None
        self.address = None
        self.sampled = False

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.daemon = subprocess.Popen(
            [sys.executable, "-c", _SERVE_STUB, "--root", str(self.root / "store"),
             "--job-slots", str(WORKERS), "--backend", "serial"],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.daemon.stdout.readline().split()
        if line[:2] != ["REPRO-SERVE", "LISTENING"]:
            raise RuntimeError(f"repro-serve failed to start: {line!r}")
        self.address = (line[2], int(line[3]))
        from repro.store.client import ServiceClient

        with ServiceClient(self.address, client="bench-boot") as client:
            client.ping()

    def _client_loop(self, label: str, jobs: list[tuple[int, dict]], records: list, errors: list) -> None:
        from repro.store.client import ServiceClient

        try:
            with ServiceClient(self.address, client=label) as client:
                for position, spec in jobs:
                    t0 = time.perf_counter()
                    receipt = client.submit(spec)
                    head = client.wait(receipt["run_id"], timeout=120.0, poll=0.02)
                    latency = time.perf_counter() - t0
                    records[position] = {
                        "run_id": receipt["run_id"],
                        "attached": bool(receipt["attached"]),
                        "status": head["status"],
                        "solves": head.get("solves"),
                        "latency": latency,
                        "result": client.result(receipt["run_id"]),
                    }
        except BaseException as exc:  # re-raised by run() in the main thread
            errors.append(exc)

    def run(self, index: int) -> Outcome:
        specs, repeats = gen.service_burst(self.seed, index, self.sizes.jobs, self.sizes.duplicates)
        records: list = [None] * len(specs)
        errors: list = []
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(f"bench-{c}", list(enumerate(specs))[c::WORKERS], records, errors),
            )
            for c in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        failed = sum(1 for r in records if r["status"] != "converged")
        return Outcome(
            ops=len(specs), failed_ops=failed,
            latencies=[r["latency"] for r in records],
            payload=(specs, repeats, records),
        )

    def check(self, outcome: Outcome) -> dict[str, bool]:
        specs, repeats, records = outcome.payload
        checks = {
            "all_converged": outcome.failed_ops == 0,
            "resubmission_same_run": all(
                records[i]["run_id"] == records[src]["run_id"]
                for i, src in enumerate(repeats) if src is not None
            ),
            "one_solve_per_run": all(r["solves"] == 1 for r in records),
        }
        if not self.sampled:
            # Once per invocation: three service results against direct solves.
            from repro.store import build_solver

            self.sampled = True
            originals = [i for i, src in enumerate(repeats) if src is None]
            picks = np.random.default_rng([self.seed, 4]).choice(originals, size=min(3, len(originals)), replace=False)
            equal = True
            for i in picks:
                solver, run_kwargs = build_solver(specs[i])
                direct = solver.run(**run_kwargs)
                served = records[i]["result"]
                equal = equal and served is not None and served["energy"] == direct.total_energy
                equal = equal and np.array_equal(served["density"], direct.density)
            checks["service_equals_direct"] = bool(equal)
        return checks

    @contextlib.contextmanager
    def trace_host(self):
        """Host the store server in this process so its store calls are visible."""
        from repro.store.server import StoreServer

        root = self.root / "traced-store"
        outside = self.address
        server = StoreServer(root, job_slots=WORKERS)
        self.address = server.start()
        try:
            yield
        finally:
            self.address = outside
            server.stop()

    def layer_metrics(self, outcome: Outcome, spans: list) -> dict[str, float]:
        from repro.store.client import ServiceClient

        _, _, records = outcome.payload
        out = {}
        for op in ("status", "submit", "result"):
            rpc = [s.duration for s in spans if s.name == f"store.client.{op}"]
            out[f"store.client.{op}_p50_us"] = 1e6 * statistics.median(rpc) if rpc else 0.0
        attached = sum(1 for r in records if r["attached"])
        out["store.dedup.attached"] = float(attached)
        out["store.dedup.attach_ratio"] = attached / len(records)
        solves = sum(s.duration for s in spans if s.name == "core.scf")
        out["store.solve_share"] = solves / sum(outcome.latencies)
        waits = []
        with ServiceClient(self.address, client="bench-events") as client:
            for run_id in sorted({r["run_id"] for r in records}):
                stamps = {e["kind"]: e["ts"] for e in client.events(run_id) if e["kind"] in ("submitted", "scheduled")}
                if len(stamps) == 2:
                    waits.append(stamps["scheduled"] - stamps["submitted"])
        out["store.queue_wait_s"] = sum(waits)
        return out

    def close(self) -> None:
        if self.daemon is not None:
            if self.daemon.poll() is None and self.address is not None:
                from repro.store.client import ServiceClient

                with contextlib.suppress(OSError, ConnectionError):
                    ServiceClient(self.address, client="bench-shutdown").shutdown()
            try:
                self.daemon.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)


def make_workload(name: str, seed: int, sizes: Sizes) -> Workload:
    if name in SCF_VARIANTS:
        return ScfWorkload(name, seed, sizes)
    if name == "genpot_sharded":
        return GenpotWorkload(name, seed, sizes)
    if name == "service_burst":
        return ServiceWorkload(name, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """p50 / p90 of the pooled job latencies; a refused p90 reads 0."""
    if not latencies:
        return {"job_latency_p50_s": 0.0, "job_latency_p90_s": 0.0}
    try:
        p90 = percentile(latencies, 90)
    except TooFewSamples:
        p90 = 0.0
    return {"job_latency_p50_s": percentile(latencies, 50), "job_latency_p90_s": p90}


def pickle_metrics(samples: dict[str, object]) -> tuple[dict[str, float], dict[str, dict]]:
    """``pickle.dumps`` of one task per kind, timed offline (median of 5)."""
    kinds = {}
    for kind, task in samples.items():
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
            walls.append(time.perf_counter() - t0)
        kinds[kind] = {"bytes": len(blob), "dumps_s": statistics.median(walls)}
    totals = {
        "parallel.pickle.task_bytes": float(sum(k["bytes"] for k in kinds.values())),
        "parallel.pickle.dumps_s": sum(k["dumps_s"] for k in kinds.values()),
    }
    return totals, kinds
