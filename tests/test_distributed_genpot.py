"""Slab layout + sharded GENPOT: bit-identity and accounting.

The sharded global step's contract is exact: for any shard count and any
execution backend, the streamed slab-transpose FFT stages and the per-slab
Poisson/XC kernels, followed by the driver-side mix, must reproduce the
unsharded single-array path **bit for bit** (the acceptance bar of the paper's dual
fragment/slab layout reproduction — no tolerance, ``==``).  No measured-
speedup assertions anywhere: CI may have a single loaded core; only
accounting identities are checked.  The SCF loop itself never shards:
its GENPOT runs on the driver whatever ``LS3DF(genpot_shards=)`` says.
"""

from __future__ import annotations

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.driver import LS3DF
from repro.core.genpot import GlobalPotentialSolver
from repro.core.scf import LS3DFSCF
from repro.parallel.amdahl import (
    measured_serial_fraction,
    serial_fraction_history,
    sharded_genpot_estimate,
)
from repro.parallel.comm import CommScheme, CommunicationModel
from repro.parallel.distributed import (
    GlobalStepTask,
    run_global_step_task,
    slab_bounds,
)
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.machine import FRANKLIN
from repro.pw.grid import FFTGrid
from repro.pw.mixing import AndersonMixer, KerkerMixer, LinearMixer, Mixer, make_mixer
from repro.pw.pseudopotential import default_pseudopotentials

# Deliberately anisotropic, non-power-of-two, with nx < max shard count so
# the transposed (x-slab) layout exercises empty shards.
GRID_SHAPE = (4, 6, 8)


@pytest.fixture(scope="module")
def grid() -> FFTGrid:
    return FFTGrid((7.0, 9.0, 11.0), GRID_SHAPE)


@pytest.fixture(scope="module")
def fields(grid):
    rng = np.random.default_rng(42)
    rho = np.abs(rng.standard_normal(grid.shape)) * 0.1
    v_in = rng.standard_normal(grid.shape)
    v_out = rng.standard_normal(grid.shape)
    return rho, v_in, v_out


# ---------------------------------------------------------------------------
# Slab decomposition primitives


def test_slab_bounds_cover_exactly_once():
    for n in (1, 5, 8, 13):
        for nshards in (1, 2, 3, 7, 16):
            bounds = slab_bounds(n, nshards)
            assert len(bounds) == nshards
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2 and lo <= hi
            sizes = [hi - lo for lo, hi in bounds]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1


def test_slab_bounds_validation():
    with pytest.raises(ValueError):
        slab_bounds(4, 0)
    with pytest.raises(ValueError):
        slab_bounds(-1, 2)


def test_unknown_global_step_kind_rejected():
    task = GlobalStepTask(kind="nope", shard=0, nshards=1, data=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="unknown global step"):
        run_global_step_task(task)


# ---------------------------------------------------------------------------
# Mixer protocol


def test_make_mixer_returns_mixer_protocol(grid):
    for kind, cls in (
        ("linear", LinearMixer),
        ("kerker", KerkerMixer),
        ("anderson", AndersonMixer),
    ):
        mixer = make_mixer(kind, grid=grid)
        assert isinstance(mixer, cls)
        assert isinstance(mixer, Mixer)
        # All three are registered against the protocol by explicit
        # subclassing (issubclass() is unavailable for data-member
        # protocols, so inspect the MRO directly).
        assert Mixer in cls.__mro__


# ---------------------------------------------------------------------------
# Sharded GENPOT evaluation


def _make_solver(grid, mixer, shards=None, executor=None):
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    return GlobalPotentialSolver(
        structure,
        grid,
        default_pseudopotentials(),
        mixer=mixer,
        shards=shards,
        executor=executor,
    )


@pytest.mark.parametrize("mixer", ["linear", "kerker", "anderson"])
@pytest.mark.parametrize("shards", [2, 3, 7, GRID_SHAPE[2]])
def test_sharded_genpot_evaluate_bit_identical(grid, fields, mixer, shards):
    rho, v_in, _ = fields
    serial = _make_solver(grid, mixer).evaluate(rho, v_in)
    sharded = _make_solver(grid, mixer, shards=shards).evaluate(rho, v_in)
    assert np.array_equal(sharded.output_potential, serial.output_potential)
    assert np.array_equal(
        sharded.next_input_potential, serial.next_input_potential
    )
    assert np.array_equal(sharded.density, serial.density)
    assert sharded.potential_difference == serial.potential_difference
    assert sharded.electrostatic_energy == serial.electrostatic_energy
    assert sharded.xc_energy == serial.xc_energy
    assert sharded.timings.sharded and sharded.timings.shards == shards
    assert not serial.timings.sharded and serial.timings.task_times == []


def test_custom_mixer_defaults_to_serial_sharding(grid, fields):
    """A minimal protocol-only mixer (``reset`` / ``mix``) works sharded:
    the driver mixes the gathered potentials, as for every mixer."""
    rho, v_in, _ = fields

    class HalfMixer:
        def reset(self):
            pass

        def mix(self, a, b):
            return 0.5 * (a + b)

    serial = _make_solver(grid, HalfMixer()).evaluate(rho, v_in)
    sharded = _make_solver(grid, HalfMixer(), shards=3).evaluate(rho, v_in)
    assert np.array_equal(
        sharded.next_input_potential, 0.5 * (v_in + sharded.output_potential)
    )
    assert np.array_equal(sharded.next_input_potential, serial.next_input_potential)


def test_sharded_genpot_backend_equivalence(grid, fields):
    """Process and remote backends produce the serial executor's exact bits."""
    rho, v_in, _ = fields
    reference = _make_solver(
        grid, "kerker", shards=3, executor=SerialFragmentExecutor()
    ).evaluate(rho, v_in)
    with remote_executor(2) as executor:
        remote = _make_solver(grid, "kerker", shards=3, executor=executor).evaluate(
            rho, v_in
        )
    with ProcessPoolFragmentExecutor(n_workers=2) as procs:
        pooled = _make_solver(grid, "kerker", shards=3, executor=procs).evaluate(
            rho, v_in
        )
    for got in (remote, pooled):
        assert np.array_equal(got.output_potential, reference.output_potential)
        assert np.array_equal(
            got.next_input_potential, reference.next_input_potential
        )
        assert got.potential_difference == reference.potential_difference
        assert got.electrostatic_energy == reference.electrostatic_energy
        assert got.xc_energy == reference.xc_energy


def test_one_submission_per_slab_accounting(grid, fields):
    """Every sharded stage is exactly one executor submission per slab.

    The Poisson chain is 4 slab stages (forward planes, kernelled lines,
    inverse planes, and the fused ``genpot_finish`` that also adds XC)
    with XC's 1 alongside; the mix runs on the driver and adds none, for
    every mixer.
    """
    rho, v_in, _ = fields
    shards = 3
    for mixer, stages in (("kerker", 5), ("linear", 5), ("anderson", 5)):
        executor = SerialFragmentExecutor()
        solver = _make_solver(grid, mixer, shards=shards, executor=executor)
        out = solver.evaluate(rho, v_in)
        assert executor.tasks_submitted == stages * shards
        assert len(out.timings.task_times) == stages * shards
        assert all(t >= 0 for t in out.timings.task_times)
        # A second evaluation submits exactly the same number again.
        solver.evaluate(rho, v_in)
        assert executor.tasks_submitted == 2 * stages * shards


def test_genpot_shards_validation(grid):
    with pytest.raises(ValueError, match="shards must be positive"):
        _make_solver(grid, "kerker", shards=0)
    with pytest.raises(ValueError, match="z planes"):
        _make_solver(grid, "kerker", shards=grid.shape[2] + 1)

    class BatchOnly:
        """Has run_global but not the submit_global futures surface."""

        n_workers = 1

        def run_global(self, tasks):  # pragma: no cover - never called
            raise AssertionError

    with pytest.raises(TypeError, match="submit_global"):
        _make_solver(grid, "kerker", shards=2, executor=BatchOnly())
    # shards=1 never touches the executor, so anything goes.
    _make_solver(grid, "kerker", shards=1, executor=BatchOnly())


# ---------------------------------------------------------------------------
# GENPOT inside the full LS3DF loop: always unsharded, on the driver


def _scf_run(cls=LS3DFSCF, **kwargs):
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    scf = cls(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        **kwargs,
    )
    return scf, scf.run(
        max_iterations=2,
        potential_tolerance=1e-12,
        eigensolver_tolerance=1e-4,
        eigensolver_iterations=40,
    )


@pytest.fixture(scope="module")
def scf_default():
    return _scf_run()[1]


def test_scf_with_genpot_shards_bit_identical(scf_default):
    """``LS3DF(genpot_shards=)`` is a vestige: the loop's GENPOT runs on the
    driver, so a process pool sees only fragment tasks and every number is
    ``==`` to the serial run."""
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        scf, result = _scf_run(LS3DF, executor=executor, genpot_shards=2)
        assert executor.tasks_submitted == scf.nfragments * result.iterations
    for t in result.timings:
        assert t.genpot_sharded is False and t.genpot_tasks == []
        assert 0.0 <= t.overlap_occupancy <= 1.0
    np.testing.assert_array_equal(result.density, scf_default.density)
    np.testing.assert_array_equal(result.potential, scf_default.potential)
    assert result.total_energy == scf_default.total_energy
    assert result.convergence_history == scf_default.convergence_history
    assert result.energy_history == scf_default.energy_history
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    with pytest.raises(TypeError, match="genpot_shards"):
        LS3DFSCF(structure, grid_dims=(2, 1, 1), ecut=2.2, genpot_shards=2)
    for bad in (0, -1, 2.0, "2", True):
        with pytest.raises(ValueError, match="genpot_shards"):
            LS3DF(structure, grid_dims=(2, 1, 1), ecut=2.2, genpot_shards=bad)


def test_scf_genpot_sharding_accounting(scf_default):
    for t in scf_default.timings:
        assert not t.genpot_sharded
        assert t.genpot_tasks == []
        assert t.parallel_cpu == t.petot_f_cpu
        assert t.serial_time == t.gen_vf + t.gen_dens + t.genpot
    # serial_fraction_history consumes the parallel_cpu accounting.
    history = serial_fraction_history(scf_default.timings)
    for est, t in zip(history, scf_default.timings):
        assert est.serial_fraction == t.measured_serial_fraction
        assert est.parallel_time == t.parallel_cpu


def test_iteration_timings_breakdown_populated(scf_default):
    for t in scf_default.timings:
        assert t.genpot_poisson > 0
        assert t.genpot_xc > 0
        assert t.genpot_mix > 0
        assert t.genpot_poisson + t.genpot_xc + t.genpot_mix <= t.genpot + 1e-6


# ---------------------------------------------------------------------------
# Models: layout conversion cost and the sharded-alpha estimate


def test_sharded_genpot_estimate_moves_work():
    base = measured_serial_fraction(2.0, 38.0)
    sharded = sharded_genpot_estimate(base, genpot_time=1.5, conversion_time=0.1)
    assert sharded.serial_time == pytest.approx(0.6)
    assert sharded.parallel_time == pytest.approx(39.5)
    assert sharded.serial_fraction < base.serial_fraction
    with pytest.raises(ValueError):
        sharded_genpot_estimate(base, genpot_time=3.0)
    with pytest.raises(ValueError):
        sharded_genpot_estimate(base, genpot_time=-1.0)


def test_layout_conversion_time_model():
    model = CommunicationModel(FRANKLIN, CommScheme.POINT_TO_POINT)
    small = model.layout_conversion_time(1e6, 1024, nshards=16)
    big = model.layout_conversion_time(1e9, 1024, nshards=16)
    assert 0 < small < big
    # Per-shard message overhead grows with the shard count.
    more_shards = model.layout_conversion_time(1e6, 1024, nshards=512)
    assert more_shards > small
    # Defaults to one shard per node.
    assert model.layout_conversion_time(1e6, 1024) > 0
    with pytest.raises(ValueError):
        model.layout_conversion_time(-1.0, 1024)
    with pytest.raises(ValueError):
        model.layout_conversion_time(1e6, 0)
    with pytest.raises(ValueError):
        model.layout_conversion_time(1e6, 1024, nshards=0)
