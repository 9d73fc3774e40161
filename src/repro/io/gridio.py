"""Export of real-space grid data (densities, wavefunctions).

The paper's Figure 7 shows isosurface plots of |psi|^2 for the band-edge
states.  This repository exports the same grid data as a compact NumPy
``.npz`` file (:func:`write_grid_npz`).  :func:`write_npz_atomic` is
the lower-level crash-safe ``.npz`` writer the checkpoint layer
(:mod:`repro.io.checkpoint`) builds on.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.atoms.structure import Structure
from repro.constants import BOHR_TO_ANGSTROM
from repro.pw.grid import FFTGrid


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory's entry table to stable storage.

    ``os.replace`` makes a rename atomic for *readers*, but the rename
    itself lives in the directory's entry table — until that is synced, a
    power loss can roll the rename back even though the file's own bytes
    were fsynced.  Callers that just created or renamed a file and need
    it to survive power loss must fsync the parent directory too.  Best
    effort on filesystems that refuse ``open(O_RDONLY)`` on directories.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems only
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


def write_npz_atomic(path: str | Path, **arrays: np.ndarray) -> Path:
    """Write arrays to an uncompressed ``.npz``, atomically and durably.

    The payload is first written to a temporary sibling file, flushed and
    fsynced, then moved over ``path`` with ``os.replace``, and finally
    the parent directory is fsynced — so a reader never observes a
    half-written archive *and* the completed write survives power loss
    (the rename lives in the directory's entry table; without the
    directory fsync a crash can roll it back).  This is the property the
    checkpoint and run-store layers rely on when a run is killed
    mid-save.

    Parameters
    ----------
    path:
        Destination file; parent directories are created as needed.
    arrays:
        Named arrays to store (``np.savez`` semantics: the bits as they
        are, no compression pass on the save path).

    Returns
    -------
    Path
        The destination path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # Hand savez a file object: with a bare path it appends ".npz".
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(path.parent)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_grid_npz(
    path: str | Path,
    grid: FFTGrid,
    structure: Structure | None = None,
    **fields: np.ndarray,
) -> Path:
    """Write one or more grid fields plus metadata to a compressed ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        "cell_bohr": np.asarray(grid.cell),
        "cell_angstrom": np.asarray(grid.cell) * BOHR_TO_ANGSTROM,
        "shape": np.asarray(grid.shape),
    }
    if structure is not None:
        payload["positions_bohr"] = structure.positions
        payload["symbols"] = np.asarray(structure.symbols)
    for name, field in fields.items():
        if field.shape != grid.shape:
            raise ValueError(f"field {name!r} shape does not match grid")
        payload[name] = np.asarray(field)
    np.savez_compressed(path, **payload)
    return path
