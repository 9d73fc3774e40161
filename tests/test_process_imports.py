"""What each process imports: lazy package exports and the light client.

Every driver, pool worker, ``repro-worker``, ``repro-serve`` daemon and
``repro-submit`` call is a fresh interpreter, so the modules it imports
before its first solve are part of its start-up time.  These tests pin
that down in subprocesses:

* ``import repro`` loads no submodule, and ``repro.store.client`` loads
  the wire format and the event kinds, never the solver;
* every package export still resolves, to the object its submodule
  defines;
* a long-lived process imports everything its jobs run *before* it
  forks or listens — running one job of every kind it serves adds no
  ``repro`` module, so no import cost moves into the first job.
"""

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import FragmentTask, get_task_problem
from repro.core.scf import LS3DFSCF
from repro.parallel.bands import BandBlockTask, band_slices
from repro.parallel.distributed import GlobalStepTask
from repro.parallel.executor import _KERNELS
from repro.pw.grid import FFTGrid
from repro.store import RunStore

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("repro", "repro.analysis", "repro.atoms", "repro.core", "repro.io",
            "repro.parallel", "repro.pw", "repro.store")


def _run(script: str, cwd: Path) -> list[str]:
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_by(statement: str, tmp_path: Path) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    return _run(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))",
        tmp_path)


# --- import gates -----------------------------------------------------------------

def test_import_repro_loads_no_submodule(tmp_path):
    assert _loaded_by("import repro", tmp_path) == ["repro"]


def test_the_service_client_does_not_import_the_solver(tmp_path):
    loaded = _loaded_by("import repro.store.client", tmp_path)
    assert not [m for m in loaded if m.split(".")[1:2] in (["core"], ["pw"], ["atoms"], ["io"])]
    assert [m for m in loaded if m.startswith("repro.parallel")] == ["repro.parallel", "repro.parallel.wire"]


def test_every_export_resolves_to_its_definition():
    for name in PACKAGES:
        package = __import__(name, fromlist=["_"])
        exported = [n for n in package.__all__ if n != "__version__"]
        assert len(exported) == len(set(exported)) == len(package._EXPORTS), name
        for attr in exported:
            value = getattr(package, attr)
            source = sys.modules[f"{name}.{package._EXPORTS[attr]}"]
            assert value is (source if source.__name__ == f"{name}.{attr}" else getattr(source, attr))
            assert vars(package)[attr] is value  # cached: the hook runs once per name
        with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
            package.not_exported


def test_public_import_paths_outside_src_keep_working():
    from repro.core import LS3DF
    from repro.core.driver import LS3DF as defined
    from repro.parallel import remote, wire
    from repro.store import build_solver, server
    from repro.store.dedup import build_solver as built

    assert LS3DF is defined and repro.LS3DF is defined
    assert build_solver is built
    assert remote.send_frame is wire.send_frame is server.send_frame
    assert remote.recv_frame is wire.recv_frame
    assert remote.RemoteProtocolError is wire.RemoteProtocolError


# --- no import cost moves into the first job --------------------------------------

_JOB_SCRIPT = """
import json, pickle, sys
{entry}
before = set(sys.modules)
{job}
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'repro')))
"""


@pytest.fixture(scope="module")
def tasks():
    """One picklable task per ``repro-worker`` kernel kind."""
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    solve = FragmentTask(
        label="f", cell=tuple(structure.cell), grid_shape=grid.shape,
        symbols=structure.symbols, positions=structure.positions,
        screening_potential=np.full(grid.shape, 0.02), ecut=2.0, n_empty=1,
        tolerance=1e-4, max_iterations=40)
    scf = LS3DFSCF(cscl_binary((2, 1, 1), "Zn", "O", 6.0), grid_dims=(2, 1, 1),
                   ecut=2.2, buffer_cells=0.5, n_empty=2)
    pipeline = scf.fragment_solver.make_pipeline_task(
        scf.fragments[0], scf.genpot.initial_potential(),
        eigensolver_tolerance=1e-4, eigensolver_iterations=40)
    block = get_task_problem(solve).basis.random_coefficients(4, np.random.default_rng(0))
    return {
        "solve": solve,
        "pipeline": pipeline,
        "global": GlobalStepTask(kind="xc", shard=0, nshards=1, data=np.full(grid.shape, 0.1)),
        "bands": BandBlockTask(bands=band_slices(4, 2)[0], template=solve, block=block[:2]),
    }


def test_a_pool_worker_imports_nothing_for_its_jobs(tasks, tmp_path):
    """A pool worker is forked from a driver that imported the facade and
    the pool; it answers RPW1 task frames through the worker handler."""
    frames = [pickle.dumps({"op": "task", "kind": kind, "task": tasks[kind]}) for kind in ("pipeline", "global")]
    (tmp_path / "frames.pkl").write_bytes(pickle.dumps(frames))
    job = ("server = WorkerServer()\n"
           "for frame in pickle.load(open('frames.pkl', 'rb')):\n"
           "    assert server._handle(pickle.loads(frame))['ok']")
    entry = "import repro.core.driver\nfrom repro.parallel.executor import ProcessPoolFragmentExecutor, WorkerServer"
    assert _run(_JOB_SCRIPT.format(entry=entry, job=job), tmp_path) == []


def test_a_repro_worker_imports_nothing_for_its_jobs(tasks, tmp_path):
    assert set(_KERNELS) == set(tasks)
    frames = [pickle.dumps({"op": "task", "kind": kind, "task": task}) for kind, task in tasks.items()]
    (tmp_path / "frames.pkl").write_bytes(pickle.dumps(frames))
    job = ("server = remote.WorkerServer()\n"
           "for frame in pickle.load(open('frames.pkl', 'rb')):\n"
           "    assert server._handle(pickle.loads(frame))['ok']")
    entry = "import repro.parallel.remote as remote"
    assert _run(_JOB_SCRIPT.format(entry=entry, job=job), tmp_path) == []


def test_a_repro_serve_slot_imports_nothing_for_its_job(tmp_path):
    """A job slot is forked from the daemon after ``repro.store.server``;
    its job is ``run_job`` on the smoke script's first spec."""
    smoke = ast.parse((ROOT / "tools/service_smoke.py").read_text())
    spec = next(ast.literal_eval(node.value) for node in smoke.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "SPEC_A")
    store = RunStore(tmp_path / "store")
    run_id = store.submit(spec).run_id
    job = f"server.run_job({str(store.root)!r}, {run_id!r}, 0)"
    entry = "import repro.store.server as server"
    assert _run(_JOB_SCRIPT.format(entry=entry, job=job), tmp_path) == []
    assert store.read_head(run_id)["status"] == "converged"
