"""Tests for the streaming GENPOT engine — the one way sharded GENPOT runs.

* :class:`repro.parallel.streaming.SlabExchangeBuffer` assembles, from
  source slabs arriving in *any* order, exactly the target plane ranges
  of the global field (plain numpy slicing is the reference).
* The streamed GENPOT evaluation is bit-identical (``==``, not allclose)
  to the *unsharded serial* evaluation across the serial / process /
  remote-socket backends, shard counts {1, 2, 3, nz} and the
  kerker / linear / anderson mixers, including full SCF iterate
  histories through :class:`repro.core.scf.LS3DFSCF`.
* An executor without the ``submit_global`` futures surface is refused
  at construction (``TypeError``), not silently routed elsewhere.
* A worker killed mid-stream is resubmitted to the survivors (and a
  fallback executor drains the queue when no worker survives), with
  bit-identical results either way.
* The stream accounting: occupancy in [0, 1], measured layout
  conversion, and the pipeline reduce's wait/busy split.
"""

import numpy as np
import pytest

from _loopback import cluster as _cluster
from repro.atoms.toy import cscl_binary
from repro.core.genpot import GlobalPotentialSolver
from repro.core.scf import LS3DFSCF
from repro.parallel.distributed import slab_bounds
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.parallel.faults import FaultPlan
from repro.parallel.streaming import SlabExchangeBuffer
from repro.pw.grid import FFTGrid
from repro.pw.pseudopotential import default_pseudopotentials

GRID_SHAPE = (4, 6, 8)


@pytest.fixture
def grid() -> FFTGrid:
    return FFTGrid((7.0, 9.0, 11.0), GRID_SHAPE)


@pytest.fixture
def fields(grid):
    rng = np.random.default_rng(42)
    rho = rng.random(grid.shape)
    v_in = rng.standard_normal(grid.shape)
    return rho, v_in


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


def _assert_outputs_equal(got, want):
    """Bit-identity of two GENPOT evaluations (the `==` criterion)."""
    assert np.array_equal(got.output_potential, want.output_potential)
    assert np.array_equal(got.next_input_potential, want.next_input_potential)
    assert got.potential_difference == want.potential_difference
    assert got.electrostatic_energy == want.electrostatic_energy
    assert got.xc_energy == want.xc_energy


# --- incremental exchange ---------------------------------------------------------


def _slabs(field, nshards, axis):
    """Plain numpy slicing: the slabs of ``field`` along ``axis``."""
    index = [slice(None)] * 3
    out = []
    for lo, hi in slab_bounds(field.shape[axis], nshards):
        index[axis] = slice(lo, hi)
        out.append(field[tuple(index)])
    return out


@pytest.mark.parametrize("axes", [(2, 0), (0, 2)])
@pytest.mark.parametrize("nshards", [1, 2, 3, 5, 8])
def test_exchange_buffer_assembles_target_slices(axes, nshards):
    """Out-of-order incremental assembly == the field sliced on the new axis."""
    src_axis, dst_axis = axes
    rng = np.random.default_rng(7)
    field = rng.standard_normal(GRID_SHAPE) + 1j * rng.standard_normal(GRID_SHAPE)
    sources = _slabs(field, nshards, src_axis)
    buffer = SlabExchangeBuffer(GRID_SHAPE, src_axis, dst_axis, nshards)
    completed = {}
    # Arrival order reversed: completion must not depend on source order.
    for i in reversed(range(nshards)):
        for j in buffer.add(i, sources[i]):
            completed[j] = buffer.take(j)
    assert sorted(completed) == list(range(nshards))
    for j, want in enumerate(_slabs(field, nshards, dst_axis)):
        assert completed[j].tobytes() == want.tobytes()


def test_exchange_buffer_guards():
    with pytest.raises(ValueError, match="distinct axes"):
        SlabExchangeBuffer(GRID_SHAPE, 2, 2, 2)
    buffer = SlabExchangeBuffer(GRID_SHAPE, 0, 2, 2)
    with pytest.raises(RuntimeError, match="not complete"):
        buffer.take(0)
    slabs = _slabs(np.zeros(GRID_SHAPE), 2, 0)
    buffer.add(0, slabs[0])
    ready = buffer.add(1, slabs[1])
    assert ready == [0, 1]
    buffer.take(0)
    with pytest.raises(RuntimeError, match="already taken"):
        buffer.take(0)


# --- streamed evaluation: the backend x shards x mixer matrix ---------------------


@pytest.mark.parametrize("mixer", ["linear", "kerker", "anderson"])
@pytest.mark.parametrize("shards", [2, 3, GRID_SHAPE[2]])
def test_streaming_evaluate_bit_identical_serial(grid, fields, mixer, shards):
    """Streamed == unsharded serial, for every mixer and shard count."""
    rho, v_in = fields
    serial = _make_solver(grid, mixer).evaluate(rho, v_in)
    streamed = _make_solver(grid, mixer, shards=shards).evaluate(rho, v_in)
    _assert_outputs_equal(streamed, serial)
    assert streamed.timings.sharded and not serial.timings.sharded


@pytest.mark.parametrize("mixer", ["linear", "kerker", "anderson"])
def test_streaming_evaluate_bit_identical_pools(grid, fields, mixer):
    """A process pool and three remote workers stream to the unsharded
    serial bits, for every mixer."""
    rho, v_in = fields
    reference = _make_solver(grid, mixer).evaluate(rho, v_in)
    with _cluster(3) as (executor, _):
        remote = _make_solver(grid, mixer, shards=3, executor=executor).evaluate(
            rho, v_in
        )
    with ProcessPoolFragmentExecutor(n_workers=2) as procs:
        pooled = _make_solver(grid, mixer, shards=3, executor=procs).evaluate(
            rho, v_in
        )
    _assert_outputs_equal(remote, reference)
    _assert_outputs_equal(pooled, reference)


def test_streaming_evaluate_bit_identical_remote(grid, fields):
    """The socket backend streams to the unsharded serial bits, shards 1..nz."""
    rho, v_in = fields
    reference = _make_solver(grid, "kerker").evaluate(rho, v_in)
    with _cluster(2) as (executor, _):
        for shards in (1, 2, 3, GRID_SHAPE[2]):
            remote = _make_solver(
                grid, "kerker", shards=shards, executor=executor
            ).evaluate(rho, v_in)
            _assert_outputs_equal(remote, reference)


def test_sharded_genpot_requires_futures_surface(grid):
    """An executor without submit_global is refused, not silently rerouted."""

    class BatchOnly:
        n_workers = 1

        def __init__(self):
            self._inner = SerialFragmentExecutor()

        def run_global(self, tasks):
            return self._inner.run_global(tasks)

    with pytest.raises(TypeError, match="submit_global"):
        _make_solver(grid, "kerker", shards=3, executor=BatchOnly())


# --- overlap accounting -----------------------------------------------------------


def test_streaming_timing_counters(grid, fields):
    rho, v_in = fields
    out = _make_solver(grid, "kerker", shards=3).evaluate(rho, v_in)
    t = out.timings
    assert t.sharded and t.shards == 3
    assert t.wait >= 0.0 and t.busy >= 0.0
    assert 0.0 <= t.occupancy <= 1.0
    assert t.layout_conversion > 0.0
    assert len(t.task_times) == 5 * 3  # 5 resident stages; the mix is the driver's
    assert t.poisson > 0.0 and t.xc > 0.0 and t.mix > 0.0
    assert t.driver >= 0.0
    # The unsharded path leaves the stream meters untouched.
    t_serial = _make_solver(grid, "kerker").evaluate(rho, v_in).timings
    assert t_serial.occupancy == 0.0 and t_serial.layout_conversion == 0.0


# --- full SCF: sharded iterates == unsharded serial iterates ----------------------


def _scf(executor=None, **kw) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return LS3DFSCF(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kw,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


def _assert_runs_equal(got, want):
    assert got.convergence_history == want.convergence_history
    assert got.energy_history == want.energy_history
    np.testing.assert_array_equal(got.density, want.density)
    np.testing.assert_array_equal(got.potential, want.potential)
    assert got.total_energy == want.total_energy


@pytest.fixture(scope="module")
def scf_reference():
    """Unsharded pipeline run on the serial backend."""
    return _scf(SerialFragmentExecutor()).run(**_RUN_KW)


def test_scf_streaming_bit_identical_serial(scf_reference):
    scf = _scf(SerialFragmentExecutor(), genpot_shards=4)
    result = scf.run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)
    t = result.timings[0]
    assert t.genpot_sharded and not scf_reference.timings[0].genpot_sharded
    assert 0.0 <= t.overlap_occupancy <= 1.0
    assert t.layout_conversion > 0.0
    assert scf_reference.timings[0].layout_conversion == 0.0


def test_scf_streaming_bit_identical_process(scf_reference):
    with ProcessPoolFragmentExecutor(n_workers=2) as executor:
        result = _scf(executor, genpot_shards=4).run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)


def test_scf_streaming_bit_identical_remote(scf_reference):
    with _cluster(2) as (executor, _):
        result = _scf(executor, genpot_shards=4).run(**_RUN_KW)
    _assert_runs_equal(result, scf_reference)


# --- fault tolerance mid-stream ---------------------------------------------------


def test_stream_resubmits_after_worker_death(grid, fields):
    """A worker killed mid-stream loses nothing: survivors re-run its slabs."""
    rho, v_in = fields
    reference = _make_solver(grid, "kerker").evaluate(rho, v_in)
    plans = {0: FaultPlan(kill_at=(2,)), 1: FaultPlan(delay_at={0: 0.2})}
    with _cluster(2, plans=plans) as (executor, _):
        out = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
        assert executor.workers_lost >= 1
        assert executor.resubmissions >= 1
    _assert_outputs_equal(out, reference)


def test_stream_degrades_to_fallback_when_all_workers_die(grid, fields):
    """With no survivors the queue drains through the fallback executor."""
    rho, v_in = fields
    reference = _make_solver(grid, "kerker").evaluate(rho, v_in)
    with _cluster(
        1, plans={0: FaultPlan(kill_at=(1,))}, fallback=SerialFragmentExecutor()
    ) as (executor, _):
        out = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
        assert executor.workers_lost == 1
        assert executor.degraded_tasks > 0
        # Later submissions short-circuit to the fallback immediately.
        again = _make_solver(grid, "kerker", shards=4, executor=executor).evaluate(
            rho, v_in
        )
    _assert_outputs_equal(out, reference)
    _assert_outputs_equal(again, reference)
