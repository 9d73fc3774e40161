"""Checkpoint/restart of the LS3DF outer self-consistent loop.

The paper's production runs survive machine-time limits and preemption by
restarting mid-SCF: the per-fragment wavefunctions, the mixing history
and the current input potential are written out once per SCF iteration,
and a restarted job continues from the saved iteration as if it had never
been killed.  This module reproduces that for
:class:`repro.core.scf.LS3DFSCF` (``checkpoint_dir=`` / ``resume=`` on
``run``).

A checkpoint is one directory holding two files:

* ``state-NNNNNN.npz`` — the array payload (input potential,
  convergence/energy histories, mixer state under ``mixer.<name>`` keys,
  per-fragment wavefunction coefficients under ``frag.<label>`` keys),
  written crash-safely by :func:`repro.io.gridio.write_npz_atomic`;
* ``manifest.json`` — small JSON metadata naming the payload file and
  recording what problem the state belongs to: format version,
  iteration counter, global grid shape, the fragment-division signature
  (:meth:`repro.core.division.SpatialDivision.signature`) and the mixer
  kind.

For very large fragments a whole iteration is a long time to lose, so a
``partial/`` subdirectory additionally holds **mid-iteration** state: one
``frag-<digest>.npz`` payload per *completed* fragment of the iteration
in flight, plus a small manifest (iteration counter, problem signature,
and a fingerprint of the iteration's solve inputs).  Since every
non-converged iteration ends in a full checkpoint, which clears
``partial/``, at most one iteration's partials ever exist.  The
band-grouped PEtot_F path (:class:`repro.core.scf.LS3DFSCF` with
``band_groups=``) appends to it as fragments finish; a killed run replays
the saved fragments from disk and re-solves only the unfinished ones,
bit-identically.  The functions :func:`save_partial_payload` /
:func:`load_partial_payloads` / :func:`clear_partial_payloads` deal in
plain label -> arrays mappings so this module stays free of ``core``
imports; the array schema is owned by
:meth:`repro.core.fragment_task.FragmentTaskResult.state_dict`.

The manifest is replaced atomically *after* its payload exists, so the
pair is consistent even when the process dies mid-save (the previous
checkpoint simply stays in effect).  On load the manifest is validated
against the resuming run's grid, division and mixer — a checkpoint from
a different problem fails loudly with :class:`CheckpointMismatchError`
instead of silently producing garbage physics.

What is saved is exactly the cross-iteration state of the outer loop;
everything else (fragment Hamiltonians, executor pools, slab layouts) is
deterministic setup that a resumed run rebuilds.  Restoring the saved
state makes every subsequent iterate bit-identical to an uninterrupted
run — the property ``tests/test_checkpoint.py`` asserts for all three
mixers and for the serial and process backends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.io.gridio import write_npz_atomic, write_text_atomic

CHECKPOINT_VERSION = 1
MANIFEST_NAME = "manifest.json"
PARTIAL_DIRNAME = "partial"

_MIXER_PREFIX = "mixer."
_FRAGMENT_PREFIX = "frag."


class CheckpointMismatchError(ValueError):
    """A checkpoint belongs to a different problem than the resuming run.

    Raised by :func:`load_checkpoint` when the manifest's grid shape,
    fragment-division signature, mixer kind or format version does not
    match what the caller expects.
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
    """Whether ``directory`` holds a loadable checkpoint manifest.

    Parameters
    ----------
    directory:
        Checkpoint directory (may not exist yet).

    Returns
    -------
    bool
        True when ``manifest.json`` is present.
    """
    return (Path(directory) / MANIFEST_NAME).is_file()


def read_manifest(directory: str | Path) -> dict:
    """The checkpoint's manifest metadata, without loading the payload.

    Cheap peek for callers that only need the bookkeeping (iteration
    counter, grid shape, mixer kind) — e.g. to report where a resumed
    run will continue — while :func:`load_checkpoint` materialises the
    full array payload.

    Parameters
    ----------
    directory:
        Checkpoint directory written by :func:`save_checkpoint`.

    Returns
    -------
    dict
        The parsed ``manifest.json``; raises ``FileNotFoundError`` when
        the directory holds no checkpoint.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no checkpoint manifest in {directory}")
    return json.loads(manifest_path.read_text())


def save_checkpoint(directory: str | Path, checkpoint: SCFCheckpoint) -> Path:
    """Write a checkpoint, crash-safely, replacing any previous one.

    The payload ``.npz`` is written first (atomically), then the
    manifest is atomically replaced to point at it, then stale payload
    files of earlier checkpoints are pruned (best effort).  A kill at
    any moment leaves either the previous checkpoint or the new one
    fully intact.

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
        The manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload_name = f"state-{int(checkpoint.iteration):06d}.npz"

    arrays: dict[str, np.ndarray] = {
        "iteration": np.int64(checkpoint.iteration),
        "v_in": np.asarray(checkpoint.v_in),
        "convergence_history": np.asarray(checkpoint.convergence_history, dtype=float),
        "energy_history": np.asarray(checkpoint.energy_history, dtype=float),
    }
    for name, value in checkpoint.mixer_state.items():
        arrays[_MIXER_PREFIX + name] = np.asarray(value)
    for label, coeffs in checkpoint.fragment_coefficients.items():
        arrays[_FRAGMENT_PREFIX + label] = np.asarray(coeffs)
    write_npz_atomic(directory / payload_name, **arrays)

    manifest = {
        "format": "repro-ls3df-checkpoint",
        "version": int(checkpoint.version),
        "iteration": int(checkpoint.iteration),
        "grid_shape": list(checkpoint.grid_shape),
        "division_signature": checkpoint.division_signature,
        "mixer_kind": checkpoint.mixer_kind,
        "nfragments_cached": len(checkpoint.fragment_coefficients),
        "payload": payload_name,
    }
    manifest_path = write_text_atomic(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )

    # Prune earlier payloads and any .tmp orphans a mid-save kill left
    # behind (the atomic writer's cleanup cannot run when the process
    # dies between creating the temp file and replacing it).
    for pattern in ("state-*.npz", "state-*.npz.tmp"):
        for stale in directory.glob(pattern):
            if stale.name != payload_name:
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - cleanup is best effort
                    pass
    return manifest_path


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
        manifest raises :class:`CheckpointMismatchError`.
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
        No manifest (or no payload) in ``directory``.
    CheckpointMismatchError
        The checkpoint belongs to a different problem, an unsupported
        format version, or an inconsistent manifest/payload pair.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)

    version = int(manifest.get("version", -1))
    if version != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint format version {version} is not the supported "
            f"version {CHECKPOINT_VERSION}"
        )
    if grid_shape is not None and list(grid_shape) != list(manifest["grid_shape"]):
        raise CheckpointMismatchError(
            f"checkpoint was written for global grid "
            f"{tuple(manifest['grid_shape'])}, not {tuple(grid_shape)}"
        )
    if (
        division_signature is not None
        and division_signature != manifest["division_signature"]
    ):
        raise CheckpointMismatchError(
            "checkpoint belongs to a different structure/fragment division "
            f"(signature {manifest['division_signature'][:12]}... != "
            f"{division_signature[:12]}...)"
        )
    if mixer_kind is not None and mixer_kind != manifest["mixer_kind"]:
        raise CheckpointMismatchError(
            f"checkpoint was written with the {manifest['mixer_kind']!r} "
            f"mixer, not {mixer_kind!r}"
        )

    payload_path = directory / manifest["payload"]
    if not payload_path.is_file():
        raise FileNotFoundError(f"checkpoint payload {payload_path} is missing")
    with np.load(payload_path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    if int(arrays["iteration"]) != int(manifest["iteration"]):
        raise CheckpointMismatchError(
            "manifest and payload disagree on the iteration counter "
            f"({manifest['iteration']} vs {int(arrays['iteration'])})"
        )

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
        iteration=int(manifest["iteration"]),
        v_in=arrays["v_in"],
        mixer_kind=str(manifest["mixer_kind"]),
        division_signature=str(manifest["division_signature"]),
        mixer_state=mixer_state,
        fragment_coefficients=fragment_coefficients,
        convergence_history=[float(x) for x in arrays["convergence_history"]],
        energy_history=[float(x) for x in arrays["energy_history"]],
        version=version,
    )


# ---------------------------------------------------------------------------
# Mid-iteration partial checkpoints (per-fragment payloads)


def _partial_payload_name(label: str) -> str:
    # Fragment labels contain characters unfit for filenames ("F(1,0,2)x212");
    # the digest keys the file, the true label rides inside the payload.
    return "frag-" + hashlib.sha256(label.encode()).hexdigest()[:16] + ".npz"


def _read_partial_manifest(pdir: Path) -> dict | None:
    manifest_path = pdir / MANIFEST_NAME
    if not manifest_path.is_file():
        return None
    try:
        return json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):  # pragma: no cover - torn manifest
        return None


def _unlink_payloads(pdir: Path) -> None:
    for stale in pdir.glob("frag-*.npz*"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - cleanup is best effort
            pass


def save_partial_payload(
    directory: str | Path,
    iteration: int,
    division_signature: str,
    label: str,
    arrays: dict[str, np.ndarray],
    state_fingerprint: str = "",
) -> Path:
    """Persist one completed fragment's arrays for the in-flight iteration.

    ``partial/`` holds one iteration's payloads under one manifest.  The
    first save for a new ``(iteration, division_signature,
    state_fingerprint)`` wipes whatever payloads are there and writes a
    fresh manifest; subsequent saves append one crash-safe ``.npz`` per
    fragment.  A kill at any moment leaves every already-saved fragment
    loadable.

    Parameters
    ----------
    directory:
        The run's checkpoint directory (the partials live in its
        ``partial/`` subdirectory).
    iteration:
        The iteration currently in flight (1-based, the one whose
        fragments are being solved — *not yet* completed).
    division_signature:
        The run's problem signature
        (:meth:`repro.core.division.SpatialDivision.signature`-derived);
        validated on load so partials never cross problems.
    label:
        The completed fragment's label.
    arrays:
        Array-valued snapshot of the completed work (canonically
        :meth:`repro.core.fragment_task.FragmentTaskResult.state_dict`).
    state_fingerprint:
        Digest of the iteration's actual solve inputs (input potential,
        eigensolver controls).  A resumed run whose inputs differ — a
        changed tolerance, a different initial potential — must not
        splice these fragments into its iteration; load treats a
        mismatch as stale (re-solve), not as an error.

    Returns
    -------
    Path
        The written payload path.
    """
    pdir = Path(directory) / PARTIAL_DIRNAME
    pdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "repro-ls3df-partial",
        "version": CHECKPOINT_VERSION,
        "iteration": int(iteration),
        "division_signature": division_signature,
        "state_fingerprint": state_fingerprint,
    }
    if _read_partial_manifest(pdir) != manifest:
        _unlink_payloads(pdir)
        write_text_atomic(
            pdir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
    payload_path = pdir / _partial_payload_name(label)
    write_npz_atomic(payload_path, **arrays)
    return payload_path


def load_partial_payloads(
    directory: str | Path,
    iteration: int,
    division_signature: str,
    state_fingerprint: str = "",
) -> dict[str, dict[str, np.ndarray]]:
    """Completed-fragment payloads saved for the given in-flight iteration.

    Stale partials — another iteration, a different format version, or a
    ``state_fingerprint`` recording different solve inputs (changed
    eigensolver controls, a different input potential) — are silently
    ignored: they belong to work the resuming run must redo.  A
    *different problem* is an error.

    Parameters
    ----------
    directory:
        The run's checkpoint directory.
    iteration:
        The iteration about to (re)run.
    division_signature:
        The resuming run's problem signature.
    state_fingerprint:
        The resuming iteration's solve-input digest; must match what the
        partials were saved under for them to be replayed.

    Returns
    -------
    dict[str, dict[str, np.ndarray]]
        Fragment label -> saved arrays, empty when nothing usable exists.

    Raises
    ------
    CheckpointMismatchError
        The partials belong to a different problem signature.
    """
    pdir = Path(directory) / PARTIAL_DIRNAME
    manifest = _read_partial_manifest(pdir)
    if manifest is None or int(manifest.get("version", -1)) != CHECKPOINT_VERSION:
        return {}
    if int(manifest.get("iteration", -1)) != int(iteration):
        return {}
    if manifest.get("division_signature") != division_signature:
        raise CheckpointMismatchError(
            "mid-iteration partials belong to a different structure/fragment "
            f"division (signature {str(manifest.get('division_signature'))[:12]}... "
            f"!= {division_signature[:12]}...)"
        )
    if manifest.get("state_fingerprint", "") != state_fingerprint:
        return {}
    payloads: dict[str, dict[str, np.ndarray]] = {}
    for path in sorted(pdir.glob("frag-*.npz")):
        try:
            with np.load(path) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (OSError, ValueError):  # pragma: no cover - torn payload
            continue
        if "label" not in arrays:
            continue
        payloads[str(arrays["label"])] = arrays
    return payloads


def clear_partial_payloads(directory: str | Path) -> None:
    """Remove the mid-iteration partials (a full checkpoint superseded them).

    Parameters
    ----------
    directory:
        The run's checkpoint directory.
    """
    pdir = Path(directory) / PARTIAL_DIRNAME
    if not pdir.is_dir():
        return
    _unlink_payloads(pdir)
    try:
        (pdir / MANIFEST_NAME).unlink(missing_ok=True)
        pdir.rmdir()
    except OSError:  # pragma: no cover - cleanup is best effort
        pass
