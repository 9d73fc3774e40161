"""The sphere-pruned staged transforms of ``PlaneWaveBasis`` against the dense
3-D reference (``ifftn`` of ``to_grid`` / ``from_grid`` of ``fftn``).

The contract is equality, not closeness: the staged transform runs the same
1-D pocketfft passes in the same axis order and only leaves out lines that
are all-zero (inverse) or never read (forward).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pw import fftcache
from repro.pw.basis import PlaneWaveBasis
from repro.pw.density import compute_density
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian

AXES = (-3, -2, -1)


def dense_to_real_space(basis, coeffs):
    psi = np.fft.ifftn(basis.to_grid(coeffs), axes=AXES)
    psi *= basis.grid.npoints / np.sqrt(basis.grid.volume)
    return psi


def dense_from_real_space(basis, psi_r):
    field_g = np.fft.fftn(psi_r, axes=AXES)
    field_g *= np.sqrt(basis.grid.volume) / basis.grid.npoints
    return basis.from_grid(field_g)


def same_bits(a, b):
    """Equal shape and equal raw bit patterns (stricter than ``==``: tells -0.0 from 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_block(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def box_of(basis):
    """Occupied FFT indices per axis, read off the dense scatter (not the basis' own tables)."""
    occupied = np.nonzero(basis.to_grid(np.ones(basis.npw)))
    return tuple(np.unique(i) for i in occupied)


@st.composite
def bases(draw):
    cell = [draw(st.floats(4.0, 14.0)) for _ in range(3)]
    shape = [draw(st.integers(2, 11)) for _ in range(3)]
    grid = FFTGrid(cell, shape)
    # From a G=0-only basis up to the Nyquist limit, where the box is the whole
    # axis and there is nothing to prune.
    fraction = draw(st.one_of(st.just(1.0), st.floats(1e-4, 1.0)))
    return PlaneWaveBasis(grid, ecut=fraction * 0.5 * grid.gmax2)


leading_shapes = st.one_of(st.just(()), st.just((1,)), st.tuples(st.integers(2, 5)))


@settings(max_examples=150, deadline=None)
@given(basis=bases(), lead=leading_shapes, seed=st.integers(0, 2**32 - 1))
def test_pruned_transforms_equal_dense_reference(basis, lead, seed):
    rng = np.random.default_rng(seed)
    coeffs = random_block(rng, lead + (basis.npw,))
    psi = basis.to_real_space(coeffs)
    assert psi.shape == lead + basis.grid.shape
    assert np.array_equal(psi, dense_to_real_space(basis, coeffs))

    field = random_block(rng, lead + basis.grid.shape)
    back = basis.from_real_space(field)
    assert back.shape == lead + (basis.npw,)
    assert np.array_equal(back, dense_from_real_space(basis, field))
    # A real field takes numpy's real-input first pass in both versions.
    assert np.array_equal(
        basis.from_real_space(field.real), dense_from_real_space(basis, field.real)
    )


@pytest.mark.parametrize(
    "cell, shape, ecut",
    [
        ((12.0, 12.0, 12.0), (20, 20, 20), 2.2),  # the benchmark fragment grid
        ((18.0, 12.0, 12.0), (30, 20, 20), 2.2),  # the other one
        ((11.0, 9.0, 7.0), (15, 12, 9), 1.0),  # odd sizes, anisotropic
        ((8.0, 8.0, 8.0), (8, 8, 8), 3.0),  # box = grid - 1: only the Nyquist plane pruned
        ((7.0, 7.0, 7.0), (7, 7, 7), 4.9),  # odd grid, box = whole axis
        ((6.0, 6.0, 6.0), (6, 6, 6), None),  # Nyquist limit: nothing pruned
        ((9.0, 9.0, 9.0), (8, 8, 8), 0.1),  # G = 0 only
    ],
)
def test_pruned_transforms_bit_patterns(cell, shape, ecut):
    grid = FFTGrid(cell, shape)
    basis = PlaneWaveBasis(grid, 0.5 * grid.gmax2 if ecut is None else ecut)
    rng = np.random.default_rng(7)
    for m in (1, 3, 8):
        coeffs = random_block(rng, (m, basis.npw))
        assert same_bits(basis.to_real_space(coeffs), dense_to_real_space(basis, coeffs))
        field = random_block(rng, (m,) + basis.grid.shape)
        assert same_bits(basis.from_real_space(field), dense_from_real_space(basis, field))


def test_from_real_space_leaves_its_input_alone():
    basis = PlaneWaveBasis(FFTGrid((8.0, 8.0, 8.0), (10, 10, 10)), 2.0)
    field = random_block(np.random.default_rng(0), (2,) + basis.grid.shape)
    before = field.copy()
    basis.from_real_space(field)
    assert np.array_equal(field, before)


# --- line counts -------------------------------------------------------------------

def test_fft_lines_on_the_benchmark_grid():
    basis = PlaneWaveBasis(FFTGrid((12.0, 12.0, 12.0), (20, 20, 20)), 2.2)
    assert [len(u) for u in box_of(basis)] == [9, 9, 9]
    assert basis.fft_lines == (661, 1200)


@pytest.mark.parametrize(
    "cell, shape, ecut",
    [((18.0, 12.0, 12.0), (30, 20, 20), 2.2), ((11.0, 9.0, 7.0), (15, 12, 9), 1.0)],
)
def test_fft_lines_are_the_lines_that_run(monkeypatch, cell, shape, ecut):
    """``fft_lines`` equals the analytic count from the box *and* the number of
    1-D lines the transforms hand to numpy, so un-pruning a pass fails here."""
    basis = PlaneWaveBasis(FFTGrid(cell, shape), ecut)
    (nx, ny, nz), (bx, by, bz) = shape, (len(u) for u in box_of(basis))
    dense = nx * ny + nx * nz + ny * nz
    assert basis.fft_lines == (bx * by + bx * nz + ny * nz, dense)

    lines = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counting(a, axis=-1, out=None, real=real):
            lines.append(a.size // a.shape[axis])
            return real(a, axis=axis, out=out)

        monkeypatch.setattr(np.fft, name, counting)
    m = 3
    psi = basis.to_real_space(random_block(np.random.default_rng(1), (m, basis.npw)))
    assert sum(lines) == m * basis.fft_lines[0]
    lines.clear()
    basis.from_real_space(psi)
    assert sum(lines) == m * (nx * ny + nx * bz + by * bz)


# --- consumers -----------------------------------------------------------------------

NBANDS = 19  # two full chunks of apply_potential and a remainder


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(0, NBANDS), max_size=4), seed=st.integers(0, 1000))
def test_apply_local_row_slice_stable(cuts, seed):
    """Any split of the band block concatenates to the full-block bits — what the
    band-sliced eigensolver relies on, re-asserted on the pruned, chunked path."""
    basis = PlaneWaveBasis(FFTGrid((9.0, 8.0, 7.0), (10, 9, 8)), 2.0)
    rng = np.random.default_rng(seed)
    h = Hamiltonian(basis, rng.standard_normal(basis.grid.shape))
    block = random_block(rng, (NBANDS, basis.npw))
    full = h.apply_local(block)
    bounds = [0] + sorted(cuts) + [NBANDS]
    parts = [h.apply_local(block[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert same_bits(np.concatenate(parts), full)

    # And the full block is the dense formula, term by term.
    psi = dense_to_real_space(basis, block)
    psi *= h.local_potential[None]
    assert same_bits(full, block * basis.kinetic[None] + dense_from_real_space(basis, psi))


def test_apply_potential_workspace_does_not_grow_with_the_band_block():
    """One pair of pooled buffers per basis, whatever block sizes arrive: the
    eigensolver's ~20 distinct band counts must not cycle the pool's 32-key LRU."""
    basis = PlaneWaveBasis(FFTGrid((9.0, 8.0, 7.0), (10, 9, 8)), 2.0)
    potential = np.random.default_rng(0).standard_normal(basis.grid.shape)
    fftcache.configure(enabled=True)
    fftcache.clear()
    fftcache.reset_stats()
    for m in range(30):
        block = random_block(np.random.default_rng(m), (m, basis.npw))
        expected = basis.from_real_space(potential * basis.to_real_space(block))
        assert same_bits(basis.apply_potential(block, potential), expected)
    stats = fftcache.stats()  # 30 calls x 2 buffers: the first call misses, the rest hit
    assert (stats["misses"], stats["hits"], stats["pooled_buffers"]) == (2, 58, 2)
    fftcache.configure(enabled=False)
    try:
        assert same_bits(basis.apply_potential(block, potential), expected)
    finally:
        fftcache.configure(enabled=True)


def test_compute_density_batches_the_occupied_bands():
    basis = PlaneWaveBasis(FFTGrid((9.0, 9.0, 9.0), (12, 12, 12)), 2.0)
    coeffs = basis.random_coefficients(6, rng=2)
    occupations = np.array([2.0, 0.0, 2.0, 1.0, 0.0, 0.0])
    expected = np.zeros(basis.grid.shape)
    for occ, c in zip(occupations, coeffs):
        if occ:
            psi = dense_to_real_space(basis, c)
            expected += occ * np.real(psi * np.conj(psi))
    assert same_bits(compute_density(basis, coeffs, occupations), expected)
    assert not compute_density(basis, coeffs, np.zeros(6)).any()
