"""Plane-wave basis set restricted by a kinetic-energy cutoff.

A wavefunction is expanded as psi(r) = (1/sqrt(Omega)) sum_G c_G e^{iG.r}
over the reciprocal vectors with |G|^2/2 <= Ecut.  Coefficients are stored
as flat arrays indexed by the basis ordering; the basis knows how to
scatter them onto the FFT grid and gather them back, which is how the
dual-space Hamiltonian application works.

The cutoff sphere fills a few percent of the FFT box, so the transforms
are *staged and sphere-pruned*: one 1-D pass per axis in numpy's own
``ifftn`` / ``fftn`` order (z, y, x), each restricted to the lines that can
be non-zero (inverse) or whose output is gathered (forward) — equal to the
dense 3-D transform bit for bit (docs/ARCHITECTURE.md, "Hot paths").
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.pw import fftcache
from repro.pw.grid import FFTGrid

# Bands per trip through the pooled workspaces of ``apply_potential``: enough
# to amortise the per-pass Python overhead (4 to 16 measure the same), small
# enough that the workspace does not grow with the band block.
_CHUNK = 8


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
        self._mask = mask
        self._indices = np.nonzero(mask.ravel())[0]
        self._g = grid.g_vectors.reshape(-1, 3)[self._indices]
        self._g2 = g2.ravel()[self._indices]
        self._kinetic = 0.5 * self._g2
        # Box of the sphere: per axis, the sorted FFT indices that carry a
        # basis vector (``_box``) and every vector's position among them.
        ix, iy, iz = np.unravel_index(self._indices, grid.shape)
        (ux, px), (uy, py), (uz, pz) = (
            np.unique(i, return_inverse=True) for i in (ix, iy, iz)
        )
        self._box = (ux, uy, uz)
        nx, ny, nz = grid.shape
        # Flat position of each basis vector in the first inverse stage
        # ``(bx, by, nz)`` and in the last forward stage ``(nx, by, bz)``.
        self._scatter = (px * len(uy) + py) * nz + iz
        self._gather = (ix * len(uy) + py) * len(uz) + pz
        # Per-band size of the second workspace (the larger middle stage).
        self._work_size = max(len(ux) * ny * nz, nx * ny * len(uz))

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

    @property
    def fft_lines(self) -> tuple[int, int]:
        """1-D FFT lines per band in :meth:`to_real_space`: ``(pruned, dense)``.

        ``bx*by`` z-lines, ``bx*nz`` y-lines and ``ny*nz`` x-lines against all
        of them; :meth:`from_real_space` runs the mirror image
        (``nx*ny + nx*bz + by*bz``), the same count for a cubic box and grid.
        """
        nx, ny, nz = self.grid.shape
        bx, by, _ = (len(u) for u in self._box)
        return bx * by + bx * nz + ny * nz, nx * ny + nx * nz + ny * nz

    @cached_property
    def gzero_index(self) -> int:
        """Index of the G = 0 plane wave within the basis."""
        idx = np.nonzero(self._g2 < 1e-12)[0]
        if len(idx) != 1:
            raise RuntimeError("basis must contain exactly one G=0 vector")
        return int(idx[0])

    @cached_property
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
        ``c(G) -> c(-G)*``; ``c == K c`` exactly when psi(r) is real."""
        return np.conj(coeffs[..., self.minus_g])

    # -- grid scatter / gather -------------------------------------------------
    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Scatter coefficient vector(s) onto the full FFT reciprocal grid.

        ``coeffs`` has shape ``(..., npw)``; the result has shape
        ``(..., *grid.shape)`` with zeros outside the cutoff sphere.  With
        :meth:`from_grid`, the dense reference the pruned transforms below
        are tested against.
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
        returned psi(r) satisfies integral |psi|^2 dr = 1.  Bit-identical
        to ``ifftn(to_grid(coeffs)) * scale``: the same three passes, minus
        the lines that are zero on input.
        """
        coeffs = np.asarray(coeffs)
        block = coeffs.reshape(-1, self.npw)
        psi = np.empty((len(block),) + self.grid.shape, dtype=complex)
        self._inverse(block, psi, np.empty(len(block) * self._work_size, dtype=complex))
        return psi.reshape(coeffs.shape[:-1] + self.grid.shape)

    def from_real_space(self, psi_r: np.ndarray) -> np.ndarray:
        """Project real-space wavefunction(s) back onto the basis.

        Bit-identical to ``from_grid(fftn(psi_r) * scale)``: after each pass
        only the indices the gather can reach are kept.
        """
        psi_r = np.asarray(psi_r)
        field = np.fft.fft(psi_r.reshape((-1,) + self.grid.shape), axis=-1)
        coeffs = self._forward(field, np.empty(len(field) * self._work_size, dtype=complex))
        return coeffs.reshape(psi_r.shape[:-3] + (self.npw,))

    def apply_potential(self, coeffs: np.ndarray, potential: np.ndarray) -> np.ndarray:
        """``from_real_space(potential * to_real_space(coeffs))`` for a band block.

        The dual-space kernel of :meth:`Hamiltonian.apply_local`.  Bands go
        through two pooled workspaces ``_CHUNK`` at a time, so the pool holds
        one pair per basis whatever block sizes the eigensolver produces;
        every band is transformed on its own, so chunking changes no bit.
        """
        out = np.empty(coeffs.shape, dtype=complex)
        with fftcache.scratch((_CHUNK,) + self.grid.shape) as buffer, fftcache.scratch(
            (_CHUNK * self._work_size,)
        ) as work:
            for lo in range(0, len(coeffs), _CHUNK):
                block = coeffs[lo : lo + _CHUNK]
                psi = buffer[: len(block)]
                self._inverse(block, psi, work)
                psi *= potential
                np.fft.fft(psi, axis=-1, out=psi)
                out[lo : lo + _CHUNK] = self._forward(psi, work)
        return out

    # The two kernels take a band block and the caller's memory: ``psi``
    # ``(m, nx, ny, nz)`` and a flat ``work`` of ``m * _work_size`` elements.
    # Stages ping-pong between the two and every pass runs in place.
    def _inverse(self, block: np.ndarray, psi: np.ndarray, work: np.ndarray) -> None:
        """Fill ``psi`` with the real-space image of the coefficient block."""
        m = len(block)
        nx, ny, nz = self.grid.shape
        ux, uy, _ = self._box
        bx, by = len(ux), len(uy)
        stage = psi.reshape(-1)[: m * bx * by * nz].reshape(m, bx * by * nz)
        stage.fill(0)
        stage[:, self._scatter] = block
        stage = stage.reshape(m, bx, by, nz)
        np.fft.ifft(stage, axis=-1, out=stage)
        embed = work[: m * bx * ny * nz].reshape(m, bx, ny, nz)
        embed.fill(0)
        embed[:, :, uy] = stage
        np.fft.ifft(embed, axis=-2, out=embed)
        psi.fill(0)
        psi[:, ux] = embed
        np.fft.ifft(psi, axis=-3, out=psi)
        # Each ifft pass carries its 1/n; the physical convention needs
        # psi(r) = (1/sqrt(Omega)) sum_G c_G e^{iGr}, i.e. multiply by
        # N/sqrt(Omega).
        psi *= self.grid.npoints / np.sqrt(self.grid.volume)

    def _forward(self, field: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Coefficients of ``field``, whose z pass the caller has run.

        ``field`` is overwritten; the returned block is freshly allocated.
        """
        m = len(field)
        nx, ny, _ = self.grid.shape
        _, uy, uz = self._box
        by, bz = len(uy), len(uz)
        stage = work[: m * nx * ny * bz].reshape(m, nx, ny, bz)
        # mode="clip" only spares numpy's buffered copy; the box indices are
        # in range by construction.
        np.take(field, uz, axis=-1, out=stage, mode="clip")
        np.fft.fft(stage, axis=-2, out=stage)
        last = field.reshape(-1)[: m * nx * by * bz].reshape(m, nx, by, bz)
        np.take(stage, uy, axis=-2, out=last, mode="clip")
        np.fft.fft(last, axis=-3, out=last)
        coeffs = last.reshape(m, nx * by * bz)[:, self._gather]
        coeffs *= np.sqrt(self.grid.volume) / self.grid.npoints
        return coeffs

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
