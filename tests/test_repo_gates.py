"""The repository's grep gates, defined once: tier-1 runs them, and so does
the CI ``lint`` job (with ``tests/test_process_imports.py``, the import
gates), beside ``ruff check .``.
"""

import inspect
import re
from pathlib import Path

import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.driver import LS3DF
from repro.core.fragment_task import run_fragment_pipeline_task_grouped
from repro.core.scf import LS3DFSCF
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.wire import fork_peer

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
        "executor"]
    assert list(inspect.signature(LS3DFSCF.iterate).parameters) == [
        "self", "max_iterations", "potential_tolerance", "eigensolver_tolerance",
        "eigensolver_iterations", "initial_potential", "checkpoint_dir", "resume"]
    run = inspect.signature(LS3DFSCF.run).parameters.values()
    assert [(p.name, p.kind) for p in run] == [
        ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD), ("kwargs", inspect.Parameter.VAR_KEYWORD)]


def test_ls3df_is_the_solver_with_post_processing_only():
    """``LS3DF`` is ``LS3DFSCF``: no wrapped solver, no forwarding property,
    and no base but ``LS3DFSCF`` to hold one."""
    assert LS3DF.__bases__ == (LS3DFSCF,)
    assert sorted(name for name in vars(LS3DF) if not name.startswith("__") or name == "__init__") == [
        "__init__", "band_edge_states", "estimate_gap_center", "full_system_hamiltonian", "lowest_states"]
    assert not any(isinstance(member, property) for member in vars(LS3DF).values())


def test_the_end_of_iteration_checkpoint_is_the_only_restart_state():
    """One checkpoint per directory, written after every iteration, and no
    per-fragment state written, read or fingerprinted between two of them."""
    assert _lines_matching(r"checkpoint_every|up_to_iteration|\biter-") == []
    assert _lines_matching(
        r"partial_payload|state_fingerprint|band_replayed|from_state_dict|frag-") == []


def test_the_log_is_the_only_index():
    """One file per durable fact: no snapshot, spec or manifest file indexes
    or describes another, and the fsynced log record is an event's one
    commit (the one ``fsync_directory`` call in ``stream.py`` is the log's
    creation)."""
    assert _lines_matching(r"head\.json|spec\.json|manifest\.json|write_text_atomic") == []
    assert (ROOT / "src/repro/store/stream.py").read_text().count("fsync_directory(") == 1


def test_an_iteration_is_one_record_and_no_checkpointed_event_kind():
    assert _lines_matching(r'append\("checkpointed"|kind == "checkpointed"|^\s*"checkpointed",$') == []


def test_the_loop_is_watched_by_iterating_it_not_through_a_callback():
    """Every consumer of the SCF loop iterates ``LS3DFSCF.iterate``: no
    per-iteration callback parameter in the library, its tests or examples."""
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for top in ("src", "tests", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"event_hoo[k]", line)
    ]
    assert hits == []


def test_the_event_schema_lives_in_the_store():
    """The solver yields records; only ``repro.store`` turns them into events."""
    hits = _lines_matching(r'"potential_difference":')
    assert hits and all(hit.startswith("src/repro/store/") for hit in hits), hits


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


def test_one_parallel_level():
    """One worker solves a whole fragment: no band slicing, group roots or
    pool partitioning in ``src/``, and the two names the benchmark harness
    still resolves are stubs that raise."""
    assert _lines_matching(
        r"def partition\(|def _split\(|GroupExecutionRecord|schedule_grouped|kill_group") == []
    assert _lines_matching(
        r"BandGroup|BandBlockTask|GROUP_ROOTS|_drain_band_groups|band_offset|repro\.parallel\.bands") == []
    assert not (ROOT / "src/repro/parallel/bands.py").exists()
    with pytest.raises(NotImplementedError):
        SerialFragmentExecutor().run_bands([])
    with pytest.raises(NotImplementedError):
        run_fragment_pipeline_task_grouped(None, None, 2)


def test_band_groups_is_an_ignored_vestige():
    """``LS3DF(band_groups=)`` survives for the benchmark harness only: on
    the ``scf_remote_bands`` shape (ZnO 2x1x1, two loopback workers) it
    changes no number, and it still refuses what is not a positive int."""
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    solver = dict(grid_dims=(2, 1, 1), ecut=2.2, buffer_cells=0.5, n_empty=2)
    run = dict(max_iterations=2, potential_tolerance=1e-9, eigensolver_tolerance=1e-4)
    with remote_executor(2) as executor:
        plain = LS3DF(structure, executor=executor, **solver).run(**run)
        vestige = LS3DF(structure, executor=executor, band_groups=2, **solver).run(**run)
    assert vestige.energy_history == plain.energy_history
    assert vestige.total_energy == plain.total_energy
    assert all(t.band_tasks == [] for t in vestige.timings)
    for bad in (0, -1, 2.0, "2", True):
        with pytest.raises(ValueError, match="band_groups"):
            LS3DF(structure, band_groups=bad, **solver)


def test_job_slots_own_no_fragment_executor():
    assert [hit for hit in _lines_matching(r'executor_factory|"--workers"') if hit.startswith("src/repro/store/")] == []


def test_genpot_mixes_once_on_the_driver():
    assert _lines_matching(
        r"sharding =|\.sharding|mix_slab|spectral_filter|filter_lines|ifft_lines_combine") == []


def test_one_lazy_export_hook():
    """Every package's PEP 562 hook is ``repro.__getattr__``, bound by
    ``repro.exports``; a second module-level copy would come back here."""
    hooks = _lines_matching(r"^def __getattr__\(")
    assert [hit.split(":")[0] for hit in hooks] == ["src/repro/__init__.py"]


def test_the_problem_cache_is_scoped_to_one_run_not_sized():
    """A process keeps the static problems of one run: no size constant and
    no eviction loop stand in for the scope."""
    source = (ROOT / "src/repro/core/fragment_task.py").read_text()
    cache = source[source.index("_PROBLEMS: dict"):source.index("def clear_problem_cache(")]
    assert not re.search(r"_MAX\b|\bwhile\b|popitem|move_to_end|next\(iter\(", cache)
    assert _lines_matching(r"_PROBLEM_CACHE_MAX|_cache_insert") == []


def test_a_submit_takes_only_its_runs_lock():
    """Run directories are content-addressed: no store-wide lock serialises
    submits of different specs."""
    assert _lines_matching(r"(?<![\w.])store\.lock|ROOT_LOCK_NAME") == []


def test_one_multi_process_engine():
    """Both multi-process backends run one RPW1 engine: no executor pool,
    healing future or per-pool broadcast set comes back, and the pool
    reaches its forked workers only through a ``socketpair`` — it starts
    no listener, so a pool worker holds no port."""
    assert _lines_matching(r"ProcessPoolExecutor|_HealingFuture|_broadcast_keys|concurrent\.futures") == []
    pool = inspect.getsource(ProcessPoolFragmentExecutor)
    fork = inspect.getsource(fork_peer)
    assert "fork_peer(WorkerServer()" in pool
    assert "socket.socketpair()" in fork and "_serve_connection(" in fork
    assert not re.search(r"\.start\(|serve_forever|\.bind\(|\.listen\(|create_connection|Listener\(", pool + fork)


def test_no_multiprocessing_in_src():
    """Children are forked one way (``wire.fork_peer``), not through
    ``multiprocessing`` with its own pipes and exit-code bookkeeping."""
    assert _lines_matching(r"multiprocessing") == []


def test_one_fork_call_site():
    """Pool workers and job slots are both ``fork_peer`` children: RPW1 on
    a ``socketpair``, dead on EOF, exit code from ``wire.reap``."""
    hits = _lines_matching(r"os\.fork\(")
    assert [hit.split(":")[0] for hit in hits] == ["src/repro/parallel/wire.py"]
    assert "os.fork()" in inspect.getsource(fork_peer)


def test_the_grid_layer_holds_no_lock_and_fragment_problems_one_cache():
    """A forked child (a pool worker, a job slot forked again) inherits
    every lock as the forking moment left it: the grid and basis derive
    their values without a lock or a cross-grid store, and fragment
    problems live in the one per-process cache only."""
    for name in ("grid.py", "basis.py"):
        text = (ROOT / "src" / "repro" / "pw" / name).read_text()
        assert re.findall(r"cached_property|threading|\bmemo\b|_MEMO", text) == [], name
    assert _lines_matching(r"seed_task_problem") == []


#: ``src/`` line-count ratchet (ROADMAP aim 2, target <= 14 300): a change may
#: lower this number, never raise it — new code has to pay for itself in deletions.
SRC_LINE_LIMIT = 12937


def test_src_line_count_ratchet():
    assert sum(path.read_text().count("\n") for path in SOURCES) <= SRC_LINE_LIMIT


#: Docs-size ratchet (ROADMAP item 7): the bytes of ``README.md`` plus
#: ``docs/ARCHITECTURE.md``.  Like ``SRC_LINE_LIMIT``, a change may lower it,
#: never raise it — new prose has to pay for itself in deletions.
DOCS = ("README.md", "docs/ARCHITECTURE.md")
DOCS_BYTE_LIMIT = 90581


def test_docs_byte_ratchet():
    assert sum(len((ROOT / name).read_bytes()) for name in DOCS) <= DOCS_BYTE_LIMIT


def test_fragment_tasks_carry_the_potential_inline():
    """One way to ship V_in: no fragment task references it by key, and
    ``install_potentials`` is left only as ``LS3DF``'s ignored vestige."""
    assert _lines_matching(r"global_potential_key") == []
    hits = _lines_matching(r"install_potentials")
    assert {hit.split(":")[0] for hit in hits} == {"src/repro/core/driver.py"}


def test_one_way_to_ship_a_potential():
    """Band slices carry their fragment's screening potential inline, like
    fragment tasks: no install channel, heal or key, and ``install_state``
    is left only as the pool's vestige (it forks the workers)."""
    names = (r"\binstall_potential\b|fetch_potential|PotentialNotInstalledError|screening_key"
             r"|with_potential_payload|potential_fingerprint|\b_heal\b")
    assert _lines_matching(names) == []
    hits = _lines_matching(r"def install_state\(")
    assert [hit.split(":")[0] for hit in hits] == ["src/repro/parallel/executor.py"]
    assert "def install_state(" in inspect.getsource(ProcessPoolFragmentExecutor)


def test_the_vestigial_pipeline_keyword_has_no_callers_outside_bench():
    """The fused fragment task is the only iteration path; ``LS3DF(pipeline=)``
    survives on the facade until ``bench/workloads.py`` stops passing it."""
    paths = [ROOT / "README.md"] + [
        path
        for top in ("src", "tests", "benchmarks", "examples", "docs")
        for path in sorted((ROOT / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    ]
    regex = re.compile(r"pipeline=(True|False)")
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if regex.search(line)
    ]
    assert hits == []


def test_one_rpw1_endpoint():
    """Framing calls, client connects and the serve loop live in
    ``parallel/wire.py`` only, and the store reaches the wire without the
    remote-executor module."""
    hits = _lines_matching(r"send_frame\(|recv_frame\(|socket\.create_connection\(|def _serve_connection\(")
    assert {hit.split(":")[0] for hit in hits} == {"src/repro/parallel/wire.py"}
    assert len(_lines_matching(r"def _serve_connection\(")) == 1
    imports_remote = (
        r"^\s*(from repro\.parallel\.remote import|import repro\.parallel\.remote"
        r"|from repro\.parallel import .*\bremote\b)"
    )
    assert [hit for hit in _lines_matching(imports_remote) if hit.startswith("src/repro/store/")] == []
