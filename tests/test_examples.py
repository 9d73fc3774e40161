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


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    procs = {
        script: subprocess.Popen(
            [sys.executable, str(ROOT / "examples" / script), *args],
            cwd=tmp_path_factory.mktemp(script.removesuffix(".py")), env=env,
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
