"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``test_bench_*`` module regenerates one table or figure of the paper:
it runs the corresponding experiment (performance model or real model-scale
calculation), prints the same rows/series the paper reports, stores them as
JSON and asserts the qualitative shape (who wins, by roughly what factor,
where crossovers fall).

Run with ``pytest benchmarks/ --benchmark-only`` (pytest-benchmark) or plain
``pytest benchmarks/`` to execute the experiments without timing overhead.
The JSON goes to a pytest temp dir, so a test run leaves the tree clean;
``pytest benchmarks/ --update-results`` rewrites the tracked copies under
``benchmarks/results/`` (only in a change that means to move them).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        help="write benchmark JSON to the tracked benchmarks/results/ directory",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    # The option only exists when pytest was started on benchmarks/ (a
    # sub-directory conftest registers options too late otherwise).
    if request.config.getoption("--update-results", default=False):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("benchmark-results")


def pytest_configure(config):
    # Keep pytest-benchmark quiet about small sample counts: the model-scale
    # physics experiments are deliberately run once per benchmark round.
    config.addinivalue_line("markers", "paper_experiment: reproduces a paper artefact")
