"""Checkpoint/restart tests (ISSUE 4).

Covers the three state-holding layers (mixer ``state_dict`` round trips
for all three mixers, the fragment warm-start cache, the self-describing
checkpoint file with its metadata validation) and the acceptance criterion:
an LS3DF run killed after iteration k and resumed with ``resume=True``
produces bit-identical densities/potentials/histories from iteration
k+1 onward versus an uninterrupted run — for all three mixers on the
serial backend and for the process-pool backend.  A run killed in the
middle of an iteration's fragment batch resumes from the previous
iteration's checkpoint, the only restart state, just as bit-identically.

Everything asserts with ``==`` (no tolerances): resume is replay, not
approximation.
"""

import concurrent.futures
import contextlib
import json
import re

import numpy as np
import pytest

import repro.core.scf as scf_module
from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.scf import LS3DFSCF
from repro.io.checkpoint import (
    CheckpointMismatchError,
    SCFCheckpoint,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.io.gridio import write_npz_atomic
from repro.parallel.executor import SerialFragmentExecutor
from repro.pw.grid import FFTGrid
from repro.pw.mixing import AndersonMixer, KerkerMixer, LinearMixer, Mixer, make_mixer


# ---------------------------------------------------------------------------
# Mixer state_dict / load_state_dict


def _exercise(mixer, rng, shape=(6, 6, 6), steps=4):
    out = None
    for _ in range(steps):
        out = mixer.mix(rng.random(shape), rng.random(shape))
    return out


def _mixer_pair(kind):
    grid = FFTGrid((6.0, 6.0, 6.0), (6, 6, 6))
    if kind == "kerker":
        return make_mixer(kind, grid=grid), make_mixer(kind, grid=grid)
    return make_mixer(kind), make_mixer(kind)


@pytest.mark.parametrize("kind", ["linear", "kerker", "anderson"])
def test_mixer_state_roundtrip_preserves_future_mixes(kind):
    source, target = _mixer_pair(kind)
    rng = np.random.default_rng(7)
    _exercise(source, rng)
    target.load_state_dict(source.state_dict())
    probe_rng = np.random.default_rng(11)
    v_in, v_out = probe_rng.random((6, 6, 6)), probe_rng.random((6, 6, 6))
    assert np.array_equal(source.mix(v_in, v_out), target.mix(v_in, v_out))


def test_anderson_state_carries_the_bounded_history():
    mixer = AndersonMixer(history=3)
    rng = np.random.default_rng(0)
    _exercise(mixer, rng, steps=5)  # overflow the deque: only 3 entries kept
    state = mixer.state_dict()
    assert state["v_in_stack"].shape[0] == 3
    assert state["residual_stack"].shape == state["v_in_stack"].shape
    empty = AndersonMixer(history=3)
    assert empty.state_dict()["v_in_stack"].shape[0] == 0


@pytest.mark.parametrize(
    "kind, build_other",
    [
        ("linear", lambda: LinearMixer(alpha=0.9)),
        ("kerker", lambda: KerkerMixer(FFTGrid((6.0,) * 3, (6,) * 3), q0=0.3)),
        ("anderson", lambda: AndersonMixer(history=2)),
    ],
)
def test_mixer_rejects_state_of_differently_configured_mixer(kind, build_other):
    source, _ = _mixer_pair(kind)
    with pytest.raises(ValueError):
        build_other().load_state_dict(source.state_dict())


def test_protocol_default_state_dict_is_empty_and_strict():
    class Custom(Mixer):
        kind = "custom"

        def reset(self):
            pass

        def mix(self, v_in, v_out):
            return v_out

    mixer = Custom()
    assert mixer.state_dict() == {}
    mixer.load_state_dict({})  # round trip of the empty snapshot is fine
    with pytest.raises(ValueError):
        mixer.load_state_dict({"alpha": np.float64(0.5)})


# ---------------------------------------------------------------------------
# Checkpoint file format


def _dummy_checkpoint(iteration=3, shape=(4, 4, 4), signature="sig-a"):
    rng = np.random.default_rng(iteration)
    return SCFCheckpoint(
        iteration=iteration,
        v_in=rng.random(shape),
        mixer_kind="anderson",
        division_signature=signature,
        mixer_state={
            "alpha": np.float64(0.4),
            "history": np.int64(5),
            "v_in_stack": rng.random((2, *shape)),
            "residual_stack": rng.random((2, *shape)),
        },
        fragment_coefficients={
            "F(0,0,0)x111": rng.random((5, 3)) + 1j * rng.random((5, 3)),
            "F(1,0,0)x211": rng.random((7, 4)) + 1j * rng.random((7, 4)),
        },
        convergence_history=[3.0, 2.0, 1.0],
        energy_history=[-1.0, -1.1, -1.2],
    )


def test_write_npz_atomic_roundtrip_and_no_tmp_left(tmp_path):
    path = write_npz_atomic(tmp_path / "sub" / "a.npz", x=np.arange(5), y=np.eye(2))
    assert path.is_file()
    assert not list(path.parent.glob("*.tmp"))
    with np.load(path) as payload:
        assert np.array_equal(payload["x"], np.arange(5))
        assert np.array_equal(payload["y"], np.eye(2))


def test_checkpoint_roundtrip_is_exact(tmp_path):
    original = _dummy_checkpoint()
    assert not has_checkpoint(tmp_path)
    save_checkpoint(tmp_path, original)
    assert has_checkpoint(tmp_path)
    loaded = load_checkpoint(
        tmp_path, grid_shape=(4, 4, 4), division_signature="sig-a",
        mixer_kind="anderson",
    )
    assert loaded.iteration == original.iteration
    assert loaded.mixer_kind == original.mixer_kind
    assert loaded.division_signature == original.division_signature
    assert loaded.convergence_history == original.convergence_history
    assert loaded.energy_history == original.energy_history
    assert np.array_equal(loaded.v_in, original.v_in)
    assert set(loaded.mixer_state) == set(original.mixer_state)
    for key, value in original.mixer_state.items():
        assert np.array_equal(loaded.mixer_state[key], value)
    assert set(loaded.fragment_coefficients) == set(original.fragment_coefficients)
    for label, coeffs in original.fragment_coefficients.items():
        assert np.array_equal(loaded.fragment_coefficients[label], coeffs)


def test_checkpoint_replaces_previous_and_prunes_stale_payloads(tmp_path):
    path = save_checkpoint(tmp_path, _dummy_checkpoint(iteration=1))
    assert path == tmp_path / "state-latest.npz"
    # Orphan from a hypothetical kill between tmp-write and replace: the
    # next save writes through the same temp name and leaves nothing.
    (tmp_path / "state-latest.npz.tmp").write_bytes(b"half-written")
    save_checkpoint(tmp_path, _dummy_checkpoint(iteration=2))
    assert [p.name for p in tmp_path.iterdir()] == ["state-latest.npz"]
    assert load_checkpoint(tmp_path).iteration == 2


def test_the_state_file_describes_itself_without_pickle(tmp_path):
    path = save_checkpoint(tmp_path, _dummy_checkpoint())
    with np.load(path, allow_pickle=False) as archive:
        meta = {key: archive[key] for key in (
            "version", "iteration", "grid_shape", "division_signature", "mixer_kind")}
    assert all(value.dtype.kind != "O" for value in meta.values())
    assert [value.ndim for value in meta.values()] == [0, 0, 1, 0, 0]
    assert (int(meta["version"]), int(meta["iteration"])) == (2, 3)
    assert meta["grid_shape"].tolist() == [4, 4, 4]
    assert (str(meta["division_signature"]), str(meta["mixer_kind"])) == ("sig-a", "anderson")


def test_checkpoint_mismatches_fail_loudly(tmp_path):
    save_checkpoint(tmp_path, _dummy_checkpoint())
    with pytest.raises(CheckpointMismatchError, match="global grid"):
        load_checkpoint(tmp_path, grid_shape=(8, 4, 4))
    with pytest.raises(CheckpointMismatchError, match="different structure"):
        load_checkpoint(tmp_path, division_signature="sig-b")
    with pytest.raises(CheckpointMismatchError, match="mixer"):
        load_checkpoint(tmp_path, mixer_kind="kerker")


def _rewrite(path, **changes):
    """Rewrite an ``.npz`` with keys replaced (or dropped, for ``None``)."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    for key, value in changes.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    np.savez(path, **arrays)


# (case id, keys replaced or dropped, what the message must name)
_MALFORMED = [
    ("foreign-version", {"version": np.int64(99)}, "version 99"),
    ("missing-version", {"version": None}, "'version'"),
    ("missing-iteration", {"iteration": None}, "'iteration'"),
    ("float-iteration", {"iteration": np.float64(1.0)}, "'iteration'"),
    ("int-signature", {"division_signature": np.int64(7)}, "'division_signature'"),
    ("pickled-signature", {"division_signature": np.array("sig", dtype=object)},
     "'division_signature'"),
    ("scalar-grid_shape", {"grid_shape": np.int64(4)}, "'grid_shape'"),
    ("missing-mixer_kind", {"mixer_kind": None}, "'mixer_kind'"),
]


@pytest.mark.parametrize("changes, match", [
    pytest.param(changes, match, id=f"state-{name}") for name, changes, match in _MALFORMED
])
def test_checkpoint_rejects_malformed_metadata(tmp_path, changes, match):
    """A missing or mistyped metadata key, or a foreign version, is a typed
    error naming the file — never a ``KeyError`` or a pickle load."""
    path = save_checkpoint(tmp_path, _dummy_checkpoint())
    _rewrite(path, **changes)
    with pytest.raises(CheckpointMismatchError, match=re.escape(path.name)) as info:
        load_checkpoint(tmp_path)
    assert match in str(info.value)


def test_load_checkpoint_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")


# ---------------------------------------------------------------------------
# Kill-at-iteration-k resume: bit-identical to the uninterrupted run


def _solver(mixer, executor=None):
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer=mixer,
        executor=executor,
    )


_RUN_KW = dict(
    potential_tolerance=1e-9,  # never met: fixed iteration count
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)

# (mixer, kill after iteration k, uninterrupted run length n)
_RESUME_CASES = [("linear", 1, 3), ("kerker", 1, 3), ("anderson", 2, 4)]


@pytest.fixture(scope="module")
def fresh_runs():
    """Uninterrupted serial reference runs, one per mixer."""
    return {
        mixer: _solver(mixer).run(max_iterations=n, **_RUN_KW)
        for mixer, _, n in _RESUME_CASES
    }


def _assert_bit_identical(resumed, fresh, executed_iterations):
    assert resumed.convergence_history == fresh.convergence_history
    assert resumed.energy_history == fresh.energy_history
    assert np.array_equal(resumed.density, fresh.density)
    assert np.array_equal(resumed.potential, fresh.potential)
    assert resumed.iterations == fresh.iterations
    assert len(resumed.timings) == executed_iterations


@pytest.mark.parametrize("mixer,k,n", _RESUME_CASES)
def test_killed_run_resumes_bit_identically_serial(tmp_path, fresh_runs, mixer, k, n):
    # "Kill" after iteration k: a capped run that checkpoints every iteration.
    partial = _solver(mixer).run(
        max_iterations=k, checkpoint_dir=tmp_path, **_RUN_KW
    )
    assert partial.convergence_history == fresh_runs[mixer].convergence_history[:k]
    assert has_checkpoint(tmp_path)
    assert all(t.checkpoint_io > 0 for t in partial.timings)
    # Checkpoint I/O is serial work in the Amdahl accounting.
    assert partial.timings[0].serial_time >= partial.timings[0].checkpoint_io

    resumed = _solver(mixer).run(
        max_iterations=n, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
    )
    _assert_bit_identical(resumed, fresh_runs[mixer], executed_iterations=n - k)


def test_killed_run_resumes_bit_identically_process_backend(tmp_path, fresh_runs):
    from repro.parallel.executor import ProcessPoolFragmentExecutor

    mixer, k, n = "kerker", 1, 3
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        _solver(mixer, executor=executor).run(
            max_iterations=k, checkpoint_dir=tmp_path, **_RUN_KW
        )
        resumed = _solver(mixer, executor=executor).run(
            max_iterations=n, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
        )
    _assert_bit_identical(resumed, fresh_runs[mixer], executed_iterations=n - k)


class _KillSecondIteration:
    """An executor whose second pipeline batch — iteration 2's PEtot_F —
    loses its middle fragment: the run dies with that iteration half solved."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = 0

    def submit_pipeline_batch(self, tasks):
        self.batches += 1
        futures = self.inner.submit_pipeline_batch(tasks)
        if self.batches == 2:
            lost = concurrent.futures.Future()
            lost.set_exception(RuntimeError("simulated mid-PEtot_F kill"))
            futures[len(futures) // 2] = lost
        return futures

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("workers", [None, 2, 4])
def test_run_killed_mid_petot_f_resumes_bit_identically(tmp_path, fresh_runs, workers):
    """The ungrouped side: a kill in the middle of iteration 2's fragment
    batch (serial, or 2 and 4 loopback workers) resumes from iteration 1's
    checkpoint, re-solves iteration 2 whole and ends ``==`` the
    uninterrupted run."""
    mixer, n = "kerker", 3
    cluster = contextlib.nullcontext() if workers is None else remote_executor(workers)
    with cluster as executor:
        killed = _solver(mixer, executor=_KillSecondIteration(executor or SerialFragmentExecutor()))
        with pytest.raises(RuntimeError, match="simulated"):
            killed.run(max_iterations=n, checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
        assert load_checkpoint(tmp_path).iteration == 1
        resumed = _solver(mixer, executor=executor).run(
            max_iterations=n, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
        )
    _assert_bit_identical(resumed, fresh_runs[mixer], executed_iterations=n - 1)
    assert [p.name for p in tmp_path.iterdir()] == ["state-latest.npz"]


def test_resume_validates_against_the_running_problem(tmp_path, fresh_runs):
    _solver("kerker").run(max_iterations=1, checkpoint_dir=tmp_path, **_RUN_KW)
    # Same grid and division, different mixer kind: must refuse.
    with pytest.raises(CheckpointMismatchError, match="mixer"):
        _solver("linear").run(
            max_iterations=3, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
        )
    # Different structure (hence division signature): must refuse.
    other = LS3DFSCF(
        cscl_binary((2, 1, 1), "Zn", "Se", 6.0),
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
    )
    with pytest.raises(CheckpointMismatchError, match="different structure"):
        other.run(max_iterations=3, checkpoint_dir=tmp_path, resume=True, **_RUN_KW)
    # Same geometry but different band count: the saved warm-start
    # wavefunctions have the wrong shape, so the (ecut/n_empty-salted)
    # problem signature must refuse up front, not crash mid-solve.
    wrong_bands = LS3DFSCF(
        cscl_binary((2, 1, 1), "Zn", "O", 6.0),
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=3,
        mixer="kerker",
    )
    with pytest.raises(CheckpointMismatchError, match="different structure"):
        wrong_bands.run(
            max_iterations=3, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
        )


def test_resume_argument_validation(tmp_path):
    scf = _solver("kerker")
    with pytest.raises(ValueError, match="checkpoint_dir"):
        scf.run(max_iterations=2, resume=True, **_RUN_KW)


def test_resume_with_empty_directory_starts_fresh(tmp_path, fresh_runs):
    result = _solver("linear").run(
        max_iterations=3, checkpoint_dir=tmp_path / "new", resume=True, **_RUN_KW
    )
    assert result.convergence_history == fresh_runs["linear"].convergence_history


def test_an_old_layout_directory_holds_no_checkpoint(tmp_path, fresh_runs):
    """A directory written in the manifest layout (``manifest.json`` naming
    a ``state-NNNNNN.npz``) is not read: no checkpoint, a fresh resume."""
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"format": "repro-ls3df-checkpoint", "version": 1, "iteration": 2,
         "payload": "state-000002.npz"}))
    np.savez(tmp_path / "state-000002.npz", iteration=np.int64(2),
             v_in=np.zeros((4, 4, 4)))
    assert not has_checkpoint(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path)
    result = _solver("linear").run(
        max_iterations=3, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
    )
    assert result.convergence_history == fresh_runs["linear"].convergence_history
    assert len(result.timings) == 3


def test_a_fresh_run_removes_the_previous_checkpoint(tmp_path, monkeypatch):
    """Regression: a resume=False run killed before its first save must not
    leave the previous run's state for a later resume."""
    save_checkpoint(tmp_path, _dummy_checkpoint())

    def killed(*args, **kwargs):
        raise RuntimeError("killed before the first save")

    monkeypatch.setattr(scf_module, "save_checkpoint", killed)
    with pytest.raises(RuntimeError, match="first save"):
        _solver("linear").run(max_iterations=2, checkpoint_dir=tmp_path, **_RUN_KW)
    assert not has_checkpoint(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_every_iteration_writes_a_checkpoint(tmp_path):
    """The one cadence: a full checkpoint after every non-converged
    iteration, saved before that iteration is yielded."""
    saved = []
    for step in _solver("linear").iterate(
        max_iterations=3, checkpoint_dir=tmp_path, **_RUN_KW
    ):
        assert not step.converged
        saved.append(load_checkpoint(tmp_path).iteration)
        assert step.timings[-1].checkpoint_io > 0
    assert saved == [1, 2, 3]
    assert [t.checkpoint_io > 0 for t in step.timings] == [True] * 3


def test_resume_beyond_max_iterations_fails_loudly(tmp_path):
    _solver("linear").run(max_iterations=2, checkpoint_dir=tmp_path, **_RUN_KW)
    with pytest.raises(ValueError, match="max_iterations"):
        _solver("linear").run(
            max_iterations=2, checkpoint_dir=tmp_path, resume=True, **_RUN_KW
        )
