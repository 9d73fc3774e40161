"""Serialisable problem specs and the content-addressed dedup signature.

A *spec* is the JSON-safe description of one solve: which toy-structure
builder to call, how to configure the :class:`~repro.core.scf.LS3DFSCF`
solver, and the run parameters.  From a spec this module can (a) build
the actual solver — identically on any host, which is what makes the
daemon's auto-resume bit-identical — and (b) derive the *problem
signature*: the solver's own checkpoint-compatibility digest
(``FragmentSolver.problem_signature``: structure + grids + buffer + ecut +
n_empty) salted with every remaining knob that shapes the trajectory
(mixer, eigensolver tolerances, iteration budget).

The signature is the store's dedup key: two submits whose specs produce
the same signature are, by construction, asking for the same sequence
of iterates — so the second attaches to the first's event stream
instead of burning a second solve.  Anything that could change even one
iterate (a different mixer, a looser eigensolver) changes the
signature and gets its own run.
"""

from __future__ import annotations

import hashlib
import inspect
import json

from repro.atoms.toy import cscl_binary, simple_cubic
from repro.core.division import SpatialDivision
from repro.core.fragment_solver import FragmentSolver
from repro.core.scf import LS3DFSCF
from repro.pw.grid import FFTGrid, grid_density
from repro.pw.mixing import make_mixer
from repro.pw.pseudopotential import default_pseudopotentials

__all__ = ["BUILDERS", "build_solver", "canonical_spec", "problem_signature"]

#: Structure builders a spec may name.  Each takes ``dims`` plus the
#: keyword arguments listed in its own signature.
BUILDERS = {
    "cscl_binary": cscl_binary,
    "simple_cubic": simple_cubic,
}

#: Keyword arguments a spec may pass to :class:`~repro.core.scf.LS3DFSCF`.
SOLVER_KEYS = frozenset(
    {
        "grid_dims",
        "ecut",
        "buffer_cells",
        "n_empty",
        "mixer",
        "mixer_options",
        "points_per_bohr",
    }
)

#: Keyword arguments a spec may pass to :meth:`LS3DFSCF.iterate` (the store
#: controls ``checkpoint_dir``/``resume`` itself).
RUN_KEYS = frozenset(
    {
        "max_iterations",
        "potential_tolerance",
        "eigensolver_tolerance",
        "eigensolver_iterations",
    }
)


def canonical_spec(spec: dict) -> dict:
    """Validate and normalise a problem spec.

    Parameters
    ----------
    spec:
        Mapping with keys ``builder`` (a name in :data:`BUILDERS`),
        ``builder_args`` (keyword arguments for it; must include
        ``dims``), ``solver`` (restricted to :data:`SOLVER_KEYS`;
        must include ``grid_dims``) and optionally ``run`` (restricted
        to :data:`RUN_KEYS`).

    Returns
    -------
    dict
        A plain-JSON copy with exactly those four keys, tuples
        normalised to lists — the form that is persisted
        in the ``submitted`` event and hashed for the signature.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"spec must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - {"builder", "builder_args", "solver", "run"}
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    builder = spec.get("builder")
    if builder not in BUILDERS:
        raise ValueError(
            f"unknown builder {builder!r}; choose from {sorted(BUILDERS)}"
        )
    builder_args = dict(spec.get("builder_args", {}))
    if "dims" not in builder_args:
        raise ValueError("builder_args must include 'dims'")
    solver = dict(spec.get("solver", {}))
    bad = set(solver) - SOLVER_KEYS
    if bad:
        raise ValueError(f"unsupported solver keys: {sorted(bad)}")
    if "grid_dims" not in solver:
        raise ValueError("solver must include 'grid_dims'")
    run = dict(spec.get("run", {}))
    bad = set(run) - RUN_KEYS
    if bad:
        raise ValueError(f"unsupported run keys: {sorted(bad)}")
    # Round-trip through JSON: tuples -> lists, and reject anything that
    # would not survive the event record.
    return json.loads(
        json.dumps(
            {
                "builder": builder,
                "builder_args": builder_args,
                "solver": solver,
                "run": run,
            },
            sort_keys=True,
        )
    )


def build_solver(spec: dict) -> tuple[LS3DFSCF, dict]:
    """Materialise a spec into a ready solver (serial fragments) plus run kwargs.

    Parameters
    ----------
    spec:
        A (canonical or raw) problem spec.

    Returns
    -------
    tuple
        ``(solver, run_kwargs)``: the configured
        :class:`~repro.core.scf.LS3DFSCF` and the keyword arguments for
        its :meth:`~repro.core.scf.LS3DFSCF.run`.
    """
    spec = canonical_spec(spec)
    structure = BUILDERS[spec["builder"]](**spec["builder_args"])
    solver = LS3DFSCF(structure, **spec["solver"])
    return solver, dict(spec["run"])


def problem_signature(spec: dict) -> str:
    """Content-addressed dedup key of a spec (see the module docstring).

    Builds only what the digest hashes — structure, global grid, division,
    not GENPOT — and the mixer, so an unknown kind or option is refused here.

    Returns
    -------
    str
        Hex SHA-256 digest; ``run-<first 16 hex>`` becomes the run id.
    """
    spec = canonical_spec(spec)
    # The solver's own defaults for the keys the spec leaves out.
    knobs = {name: p.default for name, p in inspect.signature(LS3DFSCF).parameters.items() if name in SOLVER_KEYS}
    knobs.update(spec["solver"])
    structure = BUILDERS[spec["builder"]](**spec["builder_args"])
    density = grid_density(knobs["ecut"], knobs["points_per_bohr"])
    grid = FFTGrid.for_structure(structure.cell, density, knobs["grid_dims"])
    division = SpatialDivision(structure, knobs["grid_dims"], grid, knobs["buffer_cells"])
    fragments = FragmentSolver(division, default_pseudopotentials(), knobs["ecut"], knobs["n_empty"])
    mixer = make_mixer(knobs["mixer"], grid=grid, **(knobs["mixer_options"] or {}))
    h = hashlib.sha256(fragments.problem_signature.encode())
    salt = {
        "mixer": mixer.kind,
        "mixer_options": spec["solver"].get("mixer_options"),
        "run": dict(spec["run"]),
    }
    h.update(json.dumps(salt, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()
