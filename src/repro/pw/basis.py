"""Plane-wave basis set restricted by a kinetic-energy cutoff.

A wavefunction is expanded as psi(r) = (1/sqrt(Omega)) sum_G c_G e^{iG.r}
over the reciprocal vectors with |G|^2/2 <= Ecut.  Coefficients are stored
as flat arrays indexed by the basis ordering; the basis takes them to the
real-space grid and back, which is how the dual-space Hamiltonian
application works.

The cutoff sphere fills a few percent of the FFT grid; its *box* — per
axis, the FFT indices that carry a basis vector — is about half of each
axis at fragment sizes.  The band transforms are therefore box-restricted
DFTs: three matrix products per direction, one per axis, against matrices
built once per basis.  The band index is a batch dimension of every
product, never a GEMM row, so each band runs through GEMMs of one fixed
shape and its bits do not depend on how many bands share the call
(docs/ARCHITECTURE.md, "Hot paths").
"""

from __future__ import annotations

import math

import numpy as np

from repro.pw import fftcache
from repro.pw.grid import FFTGrid, lazy

# Bands per trip through the pooled workspace of ``apply_potential``; chunking
# changes no bit.  Measured at 2, 4 and 8 on the two benchmark fragment grids
# (20x20x20, 30x20x20; one BLAS thread, 2-CPU Xeon): 2 is 15-25 % slower at
# three or more rows, 4 and 8 tie on ``scf_serial`` ``wall_s`` (0.177 s) and
# 8 holds ~2 MB more ``peak_rss_mb``.
_CHUNK = 4


def _dft_matrix(u: np.ndarray, n: int) -> np.ndarray:
    """``E[j, k] = exp(2 pi i u[j] k / n)``: the inverse DFT from the box
    indices ``u`` of an axis of ``n`` points to all ``n`` grid points.

    The phase is reduced to the integer ``u[j] k mod n`` before anything is
    rounded, and the table of the ``n`` roots of unity is built from its
    first half, so the row of ``(-u) mod n`` is the conjugate of the row of
    ``u`` bit for bit.
    """
    half = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    if n % 2 == 0:
        half[-1] = -1.0  # exp(i pi): its own conjugate, so exactly real
    roots = np.concatenate([half, half[1 : (n + 1) // 2][::-1].conj()])
    return roots[np.outer(u, np.arange(n)) % n]


def _view(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading ``prod(shape)`` elements of a flat workspace, as ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


class PlaneWaveBasis:
    """Plane-wave basis |G|^2/2 <= Ecut on an FFT grid (Gamma point).

    Parameters
    ----------
    grid:
        The FFT grid; its reciprocal vectors define the candidate G set.
    ecut:
        Kinetic-energy cutoff in Hartree.  The paper uses 50 Ry (25 Ha) on
        Franklin and 40 Ry (20 Ha) on Intrepid; the model runs here use a
        few Hartree, which keeps fragment problems laptop-sized.
    """

    def __init__(self, grid: FFTGrid, ecut: float) -> None:
        if ecut <= 0:
            raise ValueError("ecut must be positive")
        self.grid = grid
        self.ecut = float(ecut)
        g2 = grid.g2
        mask = 0.5 * g2 <= self.ecut + 1e-12
        if 0.5 * grid.gmax2 < self.ecut:
            raise ValueError(
                "FFT grid too coarse for requested cutoff: "
                f"grid supports Ecut <= {0.5 * grid.gmax2:.3f} Ha, requested {ecut:.3f} Ha"
            )
        self._indices = np.nonzero(mask.ravel())[0]
        self._g = grid.g_vectors.reshape(-1, 3)[self._indices]
        self._g2 = g2.ravel()[self._indices]
        self._kinetic = 0.5 * self._g2
        #: Index of the G = 0 plane wave within the basis (always inside: ecut > 0).
        self.gzero_index = int(np.flatnonzero(self._g2 < 1e-12)[0])
        # Box of the sphere: per axis, the sorted FFT indices that carry a
        # basis vector, and every vector's flat position in the box.
        ix, iy, iz = np.unravel_index(self._indices, grid.shape)
        (ux, px), (uy, py), (uz, pz) = (
            np.unique(i, return_inverse=True) for i in (ix, iy, iz)
        )
        _, ny, nz = grid.shape
        bx, by, bz = self._box = (len(ux), len(uy), len(uz))
        self._slot = (px * by + py) * bz + pz
        # Per band, the largest stage short of the grid itself.
        self._stage = bx * ny * nz
        # The DFT matrices of the three axes in the orientation each product
        # reads them.  The inverse runs z, y, x and the forward, its adjoint,
        # x, y, z; 1/sqrt(Omega) is folded into the inverse z matrix and
        # sqrt(Omega)/N into the forward x matrix.
        ex, ey, ez = (_dft_matrix(u, n) for u, n in zip((ux, uy, uz), grid.shape))
        root = np.sqrt(grid.volume)
        self._ez = ez / root  # (bz, nz)
        self._ey_t = np.ascontiguousarray(ey.T)  # (ny, by)
        self._ex_t = np.ascontiguousarray(ex.T)  # (nx, bx)
        self._fz_t = np.ascontiguousarray(ez.T.conj())  # (nz, bz)
        self._fy = ey.conj()  # (by, ny)
        self._fx = ex.conj() * (root / grid.npoints)  # (bx, nx)

    # -- sizes ---------------------------------------------------------------
    @property
    def npw(self) -> int:
        """Number of plane waves in the basis."""
        return len(self._indices)

    @property
    def g_vectors(self) -> np.ndarray:
        """G vectors of the basis, shape ``(npw, 3)``."""
        return self._g

    @property
    def g2(self) -> np.ndarray:
        """|G|^2 of the basis vectors, shape ``(npw,)``."""
        return self._g2

    @property
    def kinetic(self) -> np.ndarray:
        """Kinetic-energy diagonal |G|^2/2, shape ``(npw,)``."""
        return self._kinetic

    @lazy
    def minus_g(self) -> np.ndarray:
        """Index of ``-G`` for every basis vector ``G``; ``ValueError`` when the
        sphere is not closed under ``G -> -G`` (it reaches the Nyquist plane
        of an even grid, whose vectors have no partner)."""
        shape = self.grid.shape
        index = np.unravel_index(self._indices, shape)
        flipped = np.ravel_multi_index([(-i) % n for i, n in zip(index, shape)], shape)
        minus = np.searchsorted(self._indices, flipped)
        if not np.array_equal(self._g[minus], -self._g):
            raise ValueError(
                "basis is not closed under G -> -G: the cutoff sphere touches "
                "the Nyquist plane of the FFT grid; use a finer grid"
            )
        return minus

    def conjugate(self, coeffs: np.ndarray) -> np.ndarray:
        """``K c``: coefficients of the complex-conjugate wavefunction,
        ``c(G) -> c(-G)*``; ``c == K c`` exactly when psi(r) is real.  Always
        C-contiguous: the index result may come back in Fortran order, and the
        eigensolver takes float64 views of these rows."""
        return np.ascontiguousarray(np.conj(coeffs[..., self.minus_g]))

    # -- grid scatter / gather -------------------------------------------------
    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Scatter coefficient vector(s) onto the full FFT reciprocal grid.

        ``coeffs`` has shape ``(..., npw)``; the result has shape
        ``(..., *grid.shape)`` with zeros outside the cutoff sphere.  With
        :meth:`from_grid`, the dense reference the box-restricted transforms
        below are tested against.
        """
        coeffs = np.asarray(coeffs)
        lead = coeffs.shape[:-1]
        flat = np.zeros(lead + (self.grid.npoints,), dtype=complex)
        flat[..., self._indices] = coeffs
        return flat.reshape(lead + self.grid.shape)

    def from_grid(self, field_g: np.ndarray) -> np.ndarray:
        """Gather FFT-grid reciprocal field(s) back into basis coefficients."""
        field_g = np.asarray(field_g)
        lead = field_g.shape[: -3]
        flat = field_g.reshape(lead + (self.grid.npoints,))
        return flat[..., self._indices]

    # -- real-space wavefunctions ----------------------------------------------
    def to_real_space(self, coeffs: np.ndarray) -> np.ndarray:
        """Wavefunction(s) on the real-space grid from basis coefficients.

        Normalisation: with coefficients normalised as sum |c_G|^2 = 1 the
        returned psi(r) satisfies integral |psi|^2 dr = 1.  Equal to
        ``ifftn(to_grid(coeffs)) * N / sqrt(Omega)`` to rounding.
        """
        coeffs = np.asarray(coeffs)
        block = coeffs.reshape(-1, self.npw)
        psi = np.empty((len(block),) + self.grid.shape, dtype=complex)
        self._inverse(block, psi, np.empty(len(block) * self._stage, dtype=complex))
        return psi.reshape(coeffs.shape[:-1] + self.grid.shape)

    def from_real_space(self, psi_r: np.ndarray) -> np.ndarray:
        """Project real-space wavefunction(s) back onto the basis.

        Equal to ``from_grid(fftn(psi_r)) * sqrt(Omega) / N`` to rounding.
        """
        psi_r = np.asarray(psi_r)
        field = psi_r.astype(complex).reshape((-1,) + self.grid.shape)  # a copy _forward may overwrite
        coeffs = np.empty((len(field), self.npw), dtype=complex)
        self._forward(field, np.empty(len(field) * self._stage, dtype=complex), coeffs)
        return coeffs.reshape(psi_r.shape[:-3] + (self.npw,))

    def apply_potential(self, coeffs: np.ndarray, potential: np.ndarray) -> np.ndarray:
        """``from_real_space(potential * to_real_space(coeffs))`` for a band block.

        The dual-space kernel of :meth:`Hamiltonian.apply_local`: six
        box-restricted DFT products around one multiplication by the
        potential.  Bands go through one pooled workspace ``_CHUNK`` at a
        time, so the pool holds one buffer per basis whatever block sizes the
        eigensolver produces; the band index is a batch dimension of every
        product, so chunking changes no bit.
        """
        out = np.empty(coeffs.shape, dtype=complex)
        size = _CHUNK * self.grid.npoints
        with fftcache.scratch((size + _CHUNK * self._stage,)) as buffer:
            for lo in range(0, len(coeffs), _CHUNK):
                block = coeffs[lo : lo + _CHUNK]
                psi = _view(buffer, len(block), *self.grid.shape)
                self._inverse(block, psi, buffer[size:])
                psi *= potential
                self._forward(psi, buffer[size:], out[lo : lo + _CHUNK])
        return out

    # The two kernels take the caller's memory: the grid image ``psi``
    # ``(m, nx, ny, nz)``, whose leading elements double as a stage, and a flat
    # ``work`` of at least ``m * _stage`` elements.  Stages alternate between
    # the two, so no product reads the memory it writes.
    def _inverse(self, block: np.ndarray, psi: np.ndarray, work: np.ndarray) -> None:
        """Fill ``psi`` with the real-space image of the coefficient block."""
        (m, _), (nx, ny, nz), (bx, by, bz) = block.shape, self.grid.shape, self._box
        box = _view(work, m, bx * by * bz)
        box.fill(0)
        box[:, self._slot] = block
        zs = np.matmul(box.reshape(m, bx * by, bz), self._ez, out=_view(psi.reshape(-1), m, bx * by, nz))
        ys = np.matmul(self._ey_t, zs.reshape(m, bx, by, nz), out=_view(work, m, bx, ny, nz))
        np.matmul(self._ex_t, ys.reshape(m, bx, ny * nz), out=psi.reshape(m, nx, ny * nz))

    def _forward(self, psi: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
        """Write the coefficients of the real-space block ``psi`` into ``out``;
        ``psi`` is overwritten."""
        (m, nx, ny, nz), (bx, by, bz) = psi.shape, self._box
        xs = np.matmul(self._fx, psi.reshape(m, nx, ny * nz), out=_view(work, m, bx, ny * nz))
        ys = np.matmul(self._fy, xs.reshape(m, bx, ny, nz), out=_view(psi.reshape(-1), m, bx, by, nz))
        box = np.matmul(ys.reshape(m, bx * by, nz), self._fz_t, out=_view(work, m, bx * by, bz))
        # mode="clip" only spares numpy's buffered copy; the slots are in range.
        np.take(box.reshape(m, bx * by * bz), self._slot, axis=1, out=out, mode="clip")

    # -- misc --------------------------------------------------------------------
    def random_coefficients(
        self, nbands: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Random orthonormal starting coefficients, shape ``(nbands, npw)``.

        The coefficients are damped at high |G| (as a real code would seed
        from low-energy plane waves) and orthonormalised by QR.
        """
        if nbands > self.npw:
            raise ValueError("cannot request more bands than plane waves")
        rng = np.random.default_rng(rng)  # a Generator passes through
        damp = 1.0 / (1.0 + self._g2)
        raw = (
            rng.standard_normal((nbands, self.npw))
            + 1j * rng.standard_normal((nbands, self.npw))
        ) * damp[None, :]
        q, _ = np.linalg.qr(raw.T.conj())
        return np.ascontiguousarray(q[:, :nbands].T.conj())

    def orthonormalize(self, coeffs: np.ndarray) -> np.ndarray:
        """Loewdin-orthonormalise a coefficient block (overlap-matrix based).

        This mirrors the paper's all-band optimisation: instead of
        band-by-band Gram-Schmidt, build the overlap matrix S = C C^H and
        apply S^{-1/2}, which is a BLAS-3 operation.
        """
        c = np.asarray(coeffs)
        s = c @ c.conj().T
        evals, evecs = np.linalg.eigh(s)
        if np.any(evals <= 1e-14):
            raise np.linalg.LinAlgError("linearly dependent band block")
        s_inv_half = (evecs * (1.0 / np.sqrt(evals))[None, :]) @ evecs.conj().T
        return s_inv_half @ c
