"""The box-restricted DFT transforms of ``PlaneWaveBasis`` (three matrix
products per direction) against the dense 3-D reference (``ifftn`` of
``to_grid`` / ``from_grid`` of ``fftn``).

The contract has two halves.  *Row independence is bitwise*: the band index is
a batch dimension of every product, so a band's bits do not depend on which
or how many bands share the call — soft locking's shrinking blocks, chunking
and process stacking rest on that.  *Equality to the dense transform is to rounding*: ``max|diff|
<= 1e-13 bound``, ``bound`` the input's magnitude carried through the same
normalisation; the products sum in another order than an FFT.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pw import fftcache
from repro.pw.basis import PlaneWaveBasis, _dft_matrix
from repro.pw.density import compute_density
from repro.pw.grid import FFTGrid
from repro.pw.hamiltonian import Hamiltonian

AXES = (-3, -2, -1)
RTOL = 1e-13


def dense_to_real_space(basis, coeffs):
    psi = np.fft.ifftn(basis.to_grid(coeffs), axes=AXES)
    psi *= basis.grid.npoints / np.sqrt(basis.grid.volume)
    return psi


def dense_from_real_space(basis, psi_r):
    field_g = np.fft.fftn(psi_r, axes=AXES)
    field_g *= np.sqrt(basis.grid.volume) / basis.grid.npoints
    return basis.from_grid(field_g)


def to_real_bound(basis, coeffs):
    """Largest ``|psi(r)|`` any orbital with these ``|c_G|`` can reach."""
    return np.abs(coeffs).sum(axis=-1).max(initial=0.0) / np.sqrt(basis.grid.volume)


def from_real_bound(basis, psi_r):
    """Largest ``|c_G|`` any field with these ``|psi(r)|`` can reach."""
    return np.abs(psi_r).sum(axis=AXES).max(initial=0.0) * np.sqrt(basis.grid.volume) / basis.grid.npoints


def assert_close(got, ref, bound):
    """Rounding of a sum scales with its terms, not with ``max|ref|``: an
    output small by cancellation (a random field's mean) keeps its error."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= RTOL * bound


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


# A G=0-only basis: from_real_space(field.real) is the field's mean, 1.2e-16
# off where 1e-13 max|ref| allowed 8.0e-17.
_MEAN_ONLY = PlaneWaveBasis(FFTGrid((4.6027915920392966, 10.013530937098679, 5.136141615069524), (4, 8, 8)), 1e-3)


@settings(max_examples=150, deadline=None)
@given(basis=bases(), lead=leading_shapes, seed=st.integers(0, 2**32 - 1))
@example(basis=_MEAN_ONLY, lead=(), seed=0)
def test_pruned_transforms_equal_dense_reference(basis, lead, seed):
    rng = np.random.default_rng(seed)
    coeffs = random_block(rng, lead + (basis.npw,))
    psi = basis.to_real_space(coeffs)
    assert psi.shape == lead + basis.grid.shape
    assert_close(psi, dense_to_real_space(basis, coeffs), to_real_bound(basis, coeffs))

    field = random_block(rng, lead + basis.grid.shape)
    back = basis.from_real_space(field)
    assert back.shape == lead + (basis.npw,)
    assert_close(back, dense_from_real_space(basis, field), from_real_bound(basis, field))
    assert_close(
        basis.from_real_space(field.real), dense_from_real_space(basis, field.real), from_real_bound(basis, field.real))


GRIDS = [
    ((12.0, 12.0, 12.0), (20, 20, 20), 2.2),  # the benchmark fragment grid
    ((18.0, 12.0, 12.0), (30, 20, 20), 2.2),  # the other one
    ((11.0, 9.0, 7.0), (15, 12, 9), 1.0),  # odd sizes, anisotropic
]


@pytest.mark.parametrize(
    "cell, shape, ecut",
    GRIDS + [
        ((8.0, 8.0, 8.0), (8, 8, 8), 3.0),  # box = grid - 1: only the Nyquist plane pruned
        ((7.0, 7.0, 7.0), (7, 7, 7), 4.9),  # odd grid, box = whole axis
        ((6.0, 6.0, 6.0), (6, 6, 6), None),  # Nyquist limit: nothing pruned
        ((9.0, 9.0, 9.0), (8, 8, 8), 0.1),  # G = 0 only
    ],
)
def test_pruned_transforms_bit_patterns(cell, shape, ecut):
    """Every row of a block transform has the bits of that row transformed
    alone, in either direction, and the block is the dense transform."""
    grid = FFTGrid(cell, shape)
    basis = PlaneWaveBasis(grid, 0.5 * grid.gmax2 if ecut is None else ecut)
    rng = np.random.default_rng(7)
    for m in (1, 3, 8):
        coeffs = random_block(rng, (m, basis.npw))
        psi = basis.to_real_space(coeffs)
        assert all(same_bits(basis.to_real_space(c), p) for c, p in zip(coeffs, psi))
        assert_close(psi, dense_to_real_space(basis, coeffs), to_real_bound(basis, coeffs))
        field = random_block(rng, (m,) + basis.grid.shape)
        back = basis.from_real_space(field)
        assert all(same_bits(basis.from_real_space(f), b) for f, b in zip(field, back))
        assert_close(back, dense_from_real_space(basis, field), from_real_bound(basis, field))


def test_from_real_space_leaves_its_input_alone():
    basis = PlaneWaveBasis(FFTGrid((8.0, 8.0, 8.0), (10, 10, 10)), 2.0)
    field = random_block(np.random.default_rng(0), (2,) + basis.grid.shape)
    before = field.copy()
    basis.from_real_space(field)
    assert np.array_equal(field, before)


# --- the box and its DFT matrices ------------------------------------------------------

def test_box_and_dft_matrices_on_the_benchmark_grid():
    basis = PlaneWaveBasis(FFTGrid((12.0, 12.0, 12.0), (20, 20, 20)), 2.2)
    assert basis.npw == 257
    assert basis._box == tuple(len(u) for u in box_of(basis)) == (9, 9, 9)
    shapes = [getattr(basis, name).shape for name in ("_ez", "_ey_t", "_ex_t", "_fx", "_fy", "_fz_t")]
    assert shapes == [(9, 20), (20, 9), (20, 9), (9, 20), (9, 20), (20, 9)]


@pytest.mark.parametrize("n", [1, 2, 7, 9, 12, 20, 30])
def test_dft_rows_of_opposite_indices_are_exact_conjugates(n):
    u = np.arange(n)
    table = _dft_matrix(u, n)
    assert np.array_equal(table[(-u) % n], table.conj())
    phases = np.outer(u, np.arange(n)) % n
    assert np.abs(table - np.exp(2j * np.pi * phases / n)).max() < 1e-14


@pytest.mark.parametrize("cell, shape, ecut", GRIDS)
def test_k_symmetric_coefficients_stay_k_symmetric(cell, shape, ecut):
    """A real orbital under a real potential stays real: ``K (V c) = V c``."""
    basis = PlaneWaveBasis(FFTGrid(cell, shape), ecut)
    rng = np.random.default_rng(3)
    coeffs = random_block(rng, (5, basis.npw))
    coeffs = 0.5 * (coeffs + basis.conjugate(coeffs))
    out = basis.apply_potential(coeffs, rng.standard_normal(basis.grid.shape))
    assert np.abs(out - basis.conjugate(out)).max() <= 1e-15 * np.abs(out).max()


@pytest.mark.parametrize(
    "cell, shape, ecut",
    [((18.0, 12.0, 12.0), (30, 20, 20), 2.2), ((11.0, 9.0, 7.0), (15, 12, 9), 1.0)],
)
def test_kernels_call_no_fft(monkeypatch, cell, shape, ecut):
    """One transform path: every ``np.fft`` entry point raises while the three
    kernels run, so a pocketfft pass cannot come back behind them."""
    basis = PlaneWaveBasis(FFTGrid(cell, shape), ecut)
    rng = np.random.default_rng(1)
    coeffs = random_block(rng, (5, basis.npw))
    potential = rng.standard_normal(basis.grid.shape)
    expected = (basis.to_real_space(coeffs), basis.apply_potential(coeffs, potential))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.fft called inside a basis transform")

    for name in [n for n in dir(np.fft) if not n.startswith("_")]:
        if callable(getattr(np.fft, name)):
            monkeypatch.setattr(np.fft, name, forbidden)
    with pytest.raises(AssertionError):
        np.fft.fft(np.ones(4))
    psi = basis.to_real_space(coeffs)
    assert same_bits(psi, expected[0])
    assert same_bits(basis.from_real_space(psi), basis.from_real_space(expected[0]))
    assert same_bits(basis.apply_potential(coeffs, potential), expected[1])


# --- consumers -----------------------------------------------------------------------

NBANDS = 19  # four full chunks of apply_potential and a remainder


@settings(max_examples=25, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    cuts=st.lists(st.integers(0, NBANDS), max_size=4),
    seed=st.integers(0, 1000),
)
def test_apply_local_row_slice_stable(grid, cuts, seed):
    """Any split of the band block concatenates to the full-block bits, through
    ``apply_local``, ``to_real_space`` and ``from_real_space`` — what every
    block size the eigensolver hands in relies on."""
    cell, shape, ecut = grid
    basis = PlaneWaveBasis(FFTGrid(cell, shape), ecut)
    rng = np.random.default_rng(seed)
    h = Hamiltonian(basis, rng.standard_normal(basis.grid.shape))
    block = random_block(rng, (NBANDS, basis.npw))
    bounds = [0] + sorted(cuts) + [NBANDS]
    slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    full = h.apply_local(block)
    assert same_bits(np.concatenate([h.apply_local(block[s]) for s in slices]), full)
    psi = basis.to_real_space(block)
    assert same_bits(np.concatenate([basis.to_real_space(block[s]) for s in slices]), psi)
    back = basis.from_real_space(psi)
    assert same_bits(np.concatenate([basis.from_real_space(psi[s]) for s in slices]), back)

    # And the full block is the dense formula, term by term.
    psi = dense_to_real_space(basis, block)
    psi *= h.local_potential[None]
    kinetic = block * basis.kinetic[None]
    assert_close(full, kinetic + dense_from_real_space(basis, psi),
                 np.abs(kinetic).max() + from_real_bound(basis, psi))


def test_apply_potential_workspace_does_not_grow_with_the_band_block():
    """One pooled buffer per basis, whatever block sizes arrive: the
    eigensolver's ~20 distinct band counts must not cycle the pool's 32-key LRU."""
    basis = PlaneWaveBasis(FFTGrid((9.0, 8.0, 7.0), (10, 9, 8)), 2.0)
    potential = np.random.default_rng(0).standard_normal(basis.grid.shape)
    fftcache.clear()
    fftcache.reset_stats()
    for m in range(30):
        block = random_block(np.random.default_rng(m), (m, basis.npw))
        expected = basis.from_real_space(potential * basis.to_real_space(block))
        assert same_bits(basis.apply_potential(block, potential), expected)
    stats = fftcache.stats()  # 30 calls x 1 buffer: the first call misses, the rest hit
    assert (stats["misses"], stats["hits"], stats["pooled_buffers"]) == (1, 29, 1)
    fftcache.clear()  # a fresh buffer gives the bits the reused dirty one gave
    assert same_bits(basis.apply_potential(block, potential), expected)


def test_compute_density_batches_the_occupied_bands():
    """One batched transform of the occupied bands, accumulated in band order:
    the bits of band-by-band transforms, and the dense density to rounding."""
    basis = PlaneWaveBasis(FFTGrid((9.0, 9.0, 9.0), (12, 12, 12)), 2.0)
    coeffs = basis.random_coefficients(6, rng=2)
    occupations = np.array([2.0, 0.0, 2.0, 1.0, 0.0, 0.0])
    expected, dense = np.zeros(basis.grid.shape), np.zeros(basis.grid.shape)
    for occ, c in zip(occupations, coeffs):
        if occ:
            psi = basis.to_real_space(c)
            expected += occ * np.real(psi * np.conj(psi))
            psi = dense_to_real_space(basis, c)
            dense += occ * np.real(psi * np.conj(psi))
    density = compute_density(basis, coeffs, occupations)
    assert same_bits(density, expected)
    assert_close(density, dense, dense.max())  # a sum of squares: no cancellation
    assert not compute_density(basis, coeffs, np.zeros(6)).any()
