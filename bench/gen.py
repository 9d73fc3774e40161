"""Workload inputs as pure functions of the seed.

The program under test only ever sees what these functions return.  Only
numpy is imported here, so the functions can be tested without ``repro``.
"""

from __future__ import annotations

import copy

import numpy as np

#: Lattice constant of the golden ``zno_2x1x1`` fixture (Bohr).  The three
#: SCF workloads run exactly that structure at every seed: ISSUE 11 asked for
#: a seed-drawn scaling of +-1 %, but the CG step pattern of this loosely
#: converged solve flips between two branches for relative changes as small
#: as 3e-5 (measured on the unmodified code), which moves the work of one
#: solve by 8 % (25 % at +1 %) and no bound holds across seeds.
GOLDEN_LATTICE = 6.0

#: Per-job amplitude for ``service_burst``: each run pools many jobs, so the
#: per-job work may vary more.
SERVICE_LATTICE_AMPLITUDE = 1e-2

#: The ``tools/service_smoke.py`` ``SPEC_A`` shape.
SERVICE_SPEC = {
    "builder": "cscl_binary",
    "builder_args": {"dims": [1, 1, 1], "cation": "Zn", "anion": "O", "lattice_constant": GOLDEN_LATTICE},
    "solver": {"grid_dims": [1, 1, 1], "ecut": 2.0, "n_empty": 1, "mixer": "linear"},
    "run": {
        "max_iterations": 4,
        "potential_tolerance": 12.0,
        "eigensolver_tolerance": 1e-4,
        "eigensolver_iterations": 40,
    },
}


def service_burst(seed: int, run: int, jobs: int, duplicates: int) -> tuple[list[dict], list[int | None]]:
    """The job specs of one burst and which earlier job each one repeats.

    Returns ``(specs, repeats)``: ``repeats[i]`` is the index of the first
    job with the same spec, or ``None`` when job ``i`` is new.  Every run
    of an invocation draws fresh lattice constants, so no run is served
    from an earlier run's store entries.
    """
    if not 0 <= duplicates < jobs:
        raise ValueError("need 0 <= duplicates < jobs")
    rng = np.random.default_rng([int(seed), 2, int(run)])
    positions = set(rng.choice(np.arange(1, jobs), size=duplicates, replace=False).tolist())
    specs: list[dict] = []
    repeats: list[int | None] = []
    for i in range(jobs):
        if i in positions:
            source = int(rng.integers(0, i))
            source = repeats[source] if repeats[source] is not None else source
            specs.append(copy.deepcopy(specs[source]))
            repeats.append(source)
            continue
        spec = copy.deepcopy(SERVICE_SPEC)
        u = float(rng.uniform(-1.0, 1.0))
        spec["builder_args"]["lattice_constant"] = GOLDEN_LATTICE * (1.0 + SERVICE_LATTICE_AMPLITUDE * u)
        specs.append(spec)
        repeats.append(None)
    return specs, repeats


def genpot_density(seed: int, shape: tuple[int, int, int]) -> np.ndarray:
    """A smooth, strictly positive density on ``shape`` (unnormalised)."""
    rng = np.random.default_rng([int(seed), 3])
    axes = [np.arange(n) / n for n in shape]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    rho = np.ones(shape)
    for _ in range(4):
        kx, ky, kz = (int(k) for k in rng.integers(0, 3, size=3))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        amplitude = float(rng.uniform(0.05, 0.2))
        rho += amplitude * (
            np.cos(2.0 * np.pi * kx * x + phase[0])
            * np.cos(2.0 * np.pi * ky * y + phase[1])
            * np.cos(2.0 * np.pi * kz * z + phase[2])
        )
    return rho
