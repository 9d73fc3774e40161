"""Checkpoint/restart of the LS3DF outer self-consistent loop.

The paper's production runs survive machine-time limits and preemption by
restarting mid-SCF: the per-fragment wavefunctions, the mixing history
and the current input potential are written out once per SCF iteration,
and a restarted job continues from the saved iteration as if it had never
been killed.  This module reproduces that for
:class:`repro.core.scf.LS3DFSCF` (``checkpoint_dir=`` / ``resume=`` on
``run``).

A checkpoint is one file, ``<dir>/state-latest.npz``, written
crash-safely by :func:`repro.io.gridio.write_npz_atomic` and replaced
whole by the next save: the array payload (input potential,
convergence/energy histories, mixer state under ``mixer.<name>`` keys,
per-fragment wavefunction coefficients under ``frag.<label>`` keys) plus
what problem the state belongs to — format version, iteration counter,
global grid shape, the fragment-division signature
(:meth:`repro.core.division.SpatialDivision.signature`) and the mixer
kind — as plain (non-object) arrays beside it.  The rename is the
commit, so a kill at any moment leaves the previous checkpoint or the
new one, never a mix.

A resume reads this file and nothing else.  A run killed mid-iteration
re-solves that whole iteration from the saved state, which gives the
same bits as an uninterrupted run because a fragment's result is a pure
function of its task.  Per-fragment files that an older layout left
beside the state are not read.

On load the file's metadata is read and checked before any payload
array: a missing or mistyped key or a foreign version raises
:class:`CheckpointMismatchError` naming the file, and the state is
validated against the resuming run's grid, division and mixer — a
checkpoint from a different problem fails loudly instead of silently
producing garbage physics.

What is saved is exactly the cross-iteration state of the outer loop;
everything else (fragment Hamiltonians, executor pools, slab layouts) is
deterministic setup that a resumed run rebuilds.  Restoring the saved
state makes every subsequent iterate bit-identical to an uninterrupted
run — the property ``tests/test_checkpoint.py`` asserts for all three
mixers and for the serial and process backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io.gridio import write_npz_atomic

CHECKPOINT_VERSION = 2
_STATE_NAME = "state-latest.npz"

_MIXER_PREFIX = "mixer."
_FRAGMENT_PREFIX = "frag."
# Metadata keys -> (dtype kinds, shape) the state file must carry.
_INT, _STR = ("iu", ()), ("U", ())
_STATE_KEYS = {
    "iteration": _INT,
    "grid_shape": ("iu", (3,)),
    "division_signature": _STR,
    "mixer_kind": _STR,
}


class CheckpointMismatchError(ValueError):
    """A checkpoint belongs to a different problem than the resuming run.

    Raised by :func:`load_checkpoint` when the state file's grid shape,
    fragment-division signature, mixer kind or format version does not
    match what the caller expects, or when its metadata is missing or
    mistyped.
    """


@dataclass
class SCFCheckpoint:
    """Cross-iteration state of an LS3DF run after a completed iteration.

    Attributes
    ----------
    iteration:
        The last completed outer iteration; a resumed run continues at
        ``iteration + 1``.
    v_in:
        The next iteration's input potential (the mixer output of the
        checkpointed iteration) on the global grid.
    mixer_kind:
        Registry name of the mixing scheme (``Mixer.kind``), validated
        on load.
    mixer_state:
        The mixer's :meth:`~repro.pw.mixing.Mixer.state_dict` snapshot
        (Anderson's bounded history; parameters for the stateless
        mixers).
    fragment_coefficients:
        Warm-start wavefunctions keyed by fragment label (the
        ``LS3DFSCF.state_cache`` dict).
    division_signature:
        :meth:`~repro.core.division.SpatialDivision.signature` of the
        run's fragment division, validated on load.
    convergence_history:
        ``integral |V_out - V_in| d^3r`` of iterations ``1..iteration``.
    energy_history:
        Total energy of iterations ``1..iteration``.
    version:
        Checkpoint format version (:data:`CHECKPOINT_VERSION`).
    """

    iteration: int
    v_in: np.ndarray
    mixer_kind: str
    division_signature: str
    mixer_state: dict[str, np.ndarray] = field(default_factory=dict)
    fragment_coefficients: dict[str, np.ndarray] = field(default_factory=dict)
    convergence_history: list[float] = field(default_factory=list)
    energy_history: list[float] = field(default_factory=list)
    version: int = CHECKPOINT_VERSION

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """Global-grid shape of the saved input potential."""
        return tuple(int(n) for n in self.v_in.shape)


def has_checkpoint(directory: str | Path) -> bool:
    """Whether ``directory`` holds a checkpoint state file.

    Parameters
    ----------
    directory:
        Checkpoint directory (may not exist yet).

    Returns
    -------
    bool
        True when ``state-latest.npz`` is present.
    """
    return (Path(directory) / _STATE_NAME).is_file()


def _metadata(archive, path: Path) -> dict:
    """The version and state metadata of an open ``.npz``, type-checked.

    Raises
    ------
    CheckpointMismatchError
        A key is missing, has the wrong dtype or shape, or the version
        is not :data:`CHECKPOINT_VERSION`; the message names ``path``.
    """
    meta = {}
    for key, (kinds, shape) in {"version": _INT, **_STATE_KEYS}.items():
        try:
            value = archive[key]
        except (KeyError, ValueError):  # absent, or a pickled object array
            value = None
        if value is None or value.dtype.kind not in kinds or value.shape != shape:
            raise CheckpointMismatchError(
                f"{path}: metadata key {key!r} is missing or mistyped"
            )
        meta[key] = value.tolist()
        if key == "version" and meta[key] != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"{path}: checkpoint format version {meta[key]} is not the "
                f"supported version {CHECKPOINT_VERSION}"
            )
    return meta


def save_checkpoint(directory: str | Path, checkpoint: SCFCheckpoint) -> Path:
    """Write a checkpoint, crash-safely, replacing any previous one.

    One :func:`~repro.io.gridio.write_npz_atomic` of the state file: a
    kill at any moment leaves either the previous checkpoint or the new
    one fully intact.

    Parameters
    ----------
    directory:
        Checkpoint directory; created if needed.  One directory holds
        one checkpoint (the latest saved).
    checkpoint:
        The state to persist.

    Returns
    -------
    Path
        The state file's path.
    """
    arrays: dict[str, np.ndarray] = {
        "version": np.int64(checkpoint.version),
        "iteration": np.int64(checkpoint.iteration),
        "grid_shape": np.asarray(checkpoint.grid_shape, dtype=np.int64),
        "division_signature": np.str_(checkpoint.division_signature),
        "mixer_kind": np.str_(checkpoint.mixer_kind),
        "v_in": np.asarray(checkpoint.v_in),
        "convergence_history": np.asarray(checkpoint.convergence_history, dtype=float),
        "energy_history": np.asarray(checkpoint.energy_history, dtype=float),
    }
    for name, value in checkpoint.mixer_state.items():
        arrays[_MIXER_PREFIX + name] = np.asarray(value)
    for label, coeffs in checkpoint.fragment_coefficients.items():
        arrays[_FRAGMENT_PREFIX + label] = np.asarray(coeffs)
    return write_npz_atomic(Path(directory) / _STATE_NAME, **arrays)


def load_checkpoint(
    directory: str | Path,
    grid_shape: tuple[int, int, int] | None = None,
    division_signature: str | None = None,
    mixer_kind: str | None = None,
) -> SCFCheckpoint:
    """Load (and validate) the checkpoint stored in ``directory``.

    Parameters
    ----------
    directory:
        Checkpoint directory written by :func:`save_checkpoint`.
    grid_shape:
        When given, the resuming run's global-grid shape; a differing
        saved shape raises :class:`CheckpointMismatchError`.
    division_signature:
        When given, the resuming run's fragment-division signature
        (:meth:`~repro.core.division.SpatialDivision.signature`);
        validated likewise.
    mixer_kind:
        When given, the resuming run's mixer kind; validated likewise.

    Returns
    -------
    SCFCheckpoint
        The saved state, ready to hand to the mixer's and state cache's
        ``load_state_dict``.

    Raises
    ------
    FileNotFoundError
        No state file in ``directory``.
    CheckpointMismatchError
        The checkpoint belongs to a different problem, has an
        unsupported format version, or missing or mistyped metadata.
    """
    path = Path(directory) / _STATE_NAME
    if not path.is_file():
        raise FileNotFoundError(f"no checkpoint in {directory}")
    with np.load(path) as archive:
        meta = _metadata(archive, path)
        if grid_shape is not None and list(grid_shape) != meta["grid_shape"]:
            raise CheckpointMismatchError(
                f"checkpoint was written for global grid "
                f"{tuple(meta['grid_shape'])}, not {tuple(grid_shape)}"
            )
        if (
            division_signature is not None
            and division_signature != meta["division_signature"]
        ):
            raise CheckpointMismatchError(
                "checkpoint belongs to a different structure/fragment division "
                f"(signature {meta['division_signature'][:12]}... != "
                f"{division_signature[:12]}...)"
            )
        if mixer_kind is not None and mixer_kind != meta["mixer_kind"]:
            raise CheckpointMismatchError(
                f"checkpoint was written with the {meta['mixer_kind']!r} "
                f"mixer, not {mixer_kind!r}"
            )
        arrays = {name: archive[name] for name in archive.files if name not in meta}

    mixer_state = {
        name[len(_MIXER_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_MIXER_PREFIX)
    }
    fragment_coefficients = {
        name[len(_FRAGMENT_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_FRAGMENT_PREFIX)
    }
    return SCFCheckpoint(
        iteration=meta["iteration"],
        v_in=arrays["v_in"],
        mixer_kind=meta["mixer_kind"],
        division_signature=meta["division_signature"],
        mixer_state=mixer_state,
        fragment_coefficients=fragment_coefficients,
        convergence_history=[float(x) for x in arrays["convergence_history"]],
        energy_history=[float(x) for x in arrays["energy_history"]],
        version=meta["version"],
    )


def clear_checkpoint(directory: str | Path) -> None:
    """Remove the checkpoint: a fresh run starts from nothing.

    Parameters
    ----------
    directory:
        The run's checkpoint directory.
    """
    (Path(directory) / _STATE_NAME).unlink(missing_ok=True)
