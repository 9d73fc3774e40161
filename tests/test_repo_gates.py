"""The ``lint`` job's grep gates as tier-1 tests (stdlib only).

``ruff`` is not installed where PRs are built, so the shell gates of
``.github/workflows/ci.yml`` never ran there; these are the same checks.  The
line-count limit is read from the workflow file, so there is one number.
"""

import inspect
import re
from pathlib import Path

from repro.core.scf import LS3DFSCF

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _lines_matching(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


def test_no_environment_switch_in_src():
    assert _lines_matching(r"environ.*REPRO_") == []


def test_ls3dfscf_takes_exactly_these_parameters():
    """A knob on the solver shows up here first: adding one means editing
    this list in the same change."""
    assert list(inspect.signature(LS3DFSCF.__init__).parameters) == [
        "self", "structure", "grid_dims", "ecut", "pseudopotentials",
        "buffer_cells", "n_empty", "mixer", "mixer_options", "points_per_bohr",
        "executor", "genpot_shards", "band_groups", "install_potentials"]
    assert list(inspect.signature(LS3DFSCF.run).parameters) == [
        "self", "max_iterations", "potential_tolerance", "eigensolver_tolerance",
        "eigensolver_iterations", "initial_potential", "checkpoint_dir",
        "checkpoint_every", "resume", "event_hook"]


def test_no_module_level_scipy_import():
    assert _lines_matching(r"^(from|import) scipy") == []


def test_all_band_cg_has_one_path_and_no_switch_for_it():
    source = (ROOT / "src/repro/pw/eigensolver.py").read_text()
    signature = re.search(r"^def all_band_cg\(.*?^\) -> ", source, re.S | re.M).group()
    assert "nconverge: int | None = None" in signature
    assert not re.search(
        r"(real|pack|complex|gamma|lock|active|mask|soft|precond|start|guess|shell|low)[a-z_]*\s*[:=]",
        signature)


def test_the_gate_is_not_exposed_beyond_its_three_modules():
    files = {hit.split(":")[0] for hit in _lines_matching(r"nconverge")}
    assert files == {
        "src/repro/pw/eigensolver.py", "src/repro/core/fragment_task.py", "src/repro/pw/scf.py"}


def test_one_transform_path_in_the_basis():
    assert [line for line in (ROOT / "src/repro/pw/basis.py").read_text().splitlines() if "np.fft" in line] == []


def test_one_result_and_one_problem_class_per_fragment_solve():
    source = "".join(
        (ROOT / "src/repro/core" / name).read_text()
        for name in ("fragment_task.py", "fragment_solver.py"))
    assert re.findall(r"^class (\w*Result)\b", source, re.M) == ["FragmentTaskResult"]
    assert re.findall(r"^class (\w*Problem)\b", source, re.M) == ["TaskProblem"]


def test_the_executor_surface_is_defined_exactly_once():
    source = "".join(
        (ROOT / "src/repro/parallel" / name).read_text()
        for name in ("executor.py", "remote.py"))
    for method in ("run", "run_pipeline", "run_global", "run_bands", "submit_global",
                   "submit_pipeline_batch", "install_state"):
        assert source.count(f"def {method}(") == 1, method


def test_one_band_grouped_drain_and_no_pool_partitioning():
    assert _lines_matching(
        r"def partition\(|def _split\(|GroupExecutionRecord|schedule_grouped|kill_group") == []


def test_job_slots_own_no_fragment_executor():
    assert [hit for hit in _lines_matching(r'executor_factory|"--workers"') if hit.startswith("src/repro/store/")] == []


def test_genpot_mixes_once_on_the_driver():
    assert _lines_matching(
        r"sharding =|\.sharding|mix_slab|spectral_filter|filter_lines|ifft_lines_combine") == []


def test_src_line_count_ratchet():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text()
    limit = int(re.search(r"xargs cat \| wc -l\)\" -le (\d+)", workflow).group(1))
    assert sum(path.read_text().count("\n") for path in SOURCES) <= limit
