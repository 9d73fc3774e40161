"""Every script in ``examples/`` runs to the end with small arguments.

The scripts start together, one subprocess each, so the module costs about
as long as the slowest one; each runs in its own pytest temp dir
(``znteo_alloy.py`` writes ``band_edge_state.npz`` into the cwd), so the
tree stays clean.  The BLAS pins of the root ``conftest.py`` are inherited
through the environment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = {
    "quickstart.py": [],
    "znteo_alloy.py": ["--iterations", "1"],
    "quantum_dot_rod.py": [],
    "scaling_study.py": ["--skip-real"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    procs = {
        script: subprocess.Popen(
            [sys.executable, str(ROOT / "examples" / script), *args],
            cwd=tmp_path_factory.mktemp(script.removesuffix(".py")), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for script, args in EXAMPLES.items()
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def test_every_example_is_listed():
    assert sorted(EXAMPLES) == sorted(p.name for p in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, runs):
    _, stderr = runs[script].communicate(timeout=300)
    assert runs[script].returncode == 0, stderr[-2000:]


def test_quickstart_resume_reads_the_checkpoint(tmp_path):
    """The resume path: a second run over a checkpoint that already holds
    the capped iteration reads it and stops with the exit message."""
    def quickstart(*extra):
        return subprocess.run(
            [sys.executable, str(ROOT / "examples" / "quickstart.py"),
             "--checkpoint-dir", "ckpt", "--max-iterations", "1", *extra],
            cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300)

    first = quickstart()
    assert first.returncode == 0, first.stderr[-2000:]
    second = quickstart("--resume")
    assert second.returncode == 0, second.stderr[-2000:]
    assert "already covers iteration 1" in second.stderr
