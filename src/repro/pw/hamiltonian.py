"""Kohn-Sham Hamiltonian in the plane-wave basis (dual-space application).

H = -1/2 nabla^2 + V_eff(r) + V_NL, applied to a *block* of bands at once:

* kinetic term: diagonal |G|^2/2 multiplication in reciprocal space;
* local effective potential (ionic local + Hartree + XC + LS3DF passivation
  potential): each band to real space, multiply, back — box-restricted
  DFTs as matrix products (:meth:`PlaneWaveBasis.apply_potential`);
* nonlocal Kleinman-Bylander term: two matrix-matrix multiplications with
  the projector matrix (the BLAS-3 structure from the paper's all-band
  optimisation).

The class also exposes a dense-matrix builder used by tests and by the
exact-diagonalization reference solver on tiny fragments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.atoms.structure import Structure
from repro.pw.basis import PlaneWaveBasis
from repro.pw.pseudopotential import PseudopotentialSet


# Column-block width of the fixed-shape nonlocal kernel.  A constant, not a
# setting: it fixes the GEMM operand shapes and hence the result bits, so
# every process of a run (driver, pool workers, repro-worker daemons) must
# agree on it for sliced solves to stay bit-identical.
_NONLOCAL_BLOCK = 8


@dataclass
class ApplyCounter:
    """Counts the band rows :meth:`Hamiltonian.apply` has been applied to.

    H·psi rows are the unit of the eigensolvers' cost model (the all-band
    solver's: one per pair of active bands per CG step).  Updates go
    through :meth:`add` under a lock: thread-backend workers may apply the
    *same* Hamiltonian concurrently, and a bare ``+=`` would lose increments.
    """

    n_apply: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, n_apply: int) -> None:
        """Atomically accumulate applied band rows."""
        with self._lock:
            self.n_apply += n_apply

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self.n_apply = 0


class Hamiltonian:
    """Plane-wave Kohn-Sham Hamiltonian for one periodic cell or fragment.

    Parameters
    ----------
    basis:
        Plane-wave basis (defines the grid and the kinetic diagonal).
    local_potential:
        Real-space local potential on ``basis.grid`` (ionic local +
        passivation potential).  The *screening* parts (Hartree + XC) are
        added separately via :meth:`set_effective_potential` so the SCF
        loop can update them cheaply.
    projectors, projector_strengths:
        Kleinman-Bylander projectors ``(nproj, npw)`` and strengths
        ``(nproj,)``; pass empty arrays for a purely local Hamiltonian.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        local_potential: np.ndarray,
        projectors: np.ndarray | None = None,
        projector_strengths: np.ndarray | None = None,
    ) -> None:
        if local_potential.shape != basis.grid.shape:
            raise ValueError("local potential shape does not match grid")
        self.basis = basis
        self._v_ionic = np.asarray(local_potential, dtype=float)
        self.set_effective_potential(np.zeros_like(self._v_ionic))
        if projectors is None:
            projectors = np.zeros((0, basis.npw), dtype=complex)
        if projector_strengths is None:
            projector_strengths = np.zeros(0)
        projectors = np.asarray(projectors, dtype=complex)
        projector_strengths = np.asarray(projector_strengths, dtype=float)
        if projectors.shape[0] != projector_strengths.shape[0]:
            raise ValueError("projector count mismatch")
        if projectors.size and projectors.shape[1] != basis.npw:
            raise ValueError("projector length must equal npw")
        # H must commute with K: c(G) -> c(-G)* — all_band_cg packs two real
        # orbitals per row on that footing.  The real local part does; the
        # nonlocal part does when every projector is K-symmetric.
        if projectors.size and np.any(
            np.abs(projectors - basis.conjugate(projectors)) > 1e-12 * np.abs(projectors).max()
        ):
            raise ValueError(
                "projectors must be real in real space, p(-G) = p(G)*: "
                "this is a Gamma-point Hamiltonian"
            )
        self.projectors = projectors
        self.projector_strengths = projector_strengths
        self.counter = ApplyCounter()
        self._projectors_conj: np.ndarray | None = None
        self._projectors_t: np.ndarray | None = None

    # -- construction ----------------------------------------------------
    @classmethod
    def from_structure(
        cls,
        structure: Structure,
        basis: PlaneWaveBasis,
        pseudopotentials: PseudopotentialSet,
    ) -> "Hamiltonian":
        """Build the ionic Hamiltonian for a structure (no screening yet)."""
        v_loc = pseudopotentials.local_potential(structure, basis.grid)
        proj, strength = pseudopotentials.nonlocal_projectors(structure, basis)
        return cls(basis, v_loc, proj, strength)

    # -- potential management -----------------------------------------------
    @property
    def nproj(self) -> int:
        return self.projectors.shape[0]

    def set_effective_potential(self, v_screening: np.ndarray) -> None:
        """Set the screening (Hartree + XC) part of the local potential."""
        if v_screening.shape != self.basis.grid.shape:
            raise ValueError("screening potential shape mismatch")
        # ``apply_local`` multiplies by the sum; form it once per change, not
        # once per application.
        self._v_screening = np.asarray(v_screening, dtype=float)
        self._v_local = self._v_ionic + self._v_screening
        self._v_local.flags.writeable = False

    @property
    def v_ionic(self) -> np.ndarray:
        """Ionic local (+ passivation) part of the local potential."""
        return self._v_ionic

    @property
    def v_screening(self) -> np.ndarray:
        """Screening (Hartree + XC) part of the local potential."""
        return self._v_screening

    @property
    def local_potential(self) -> np.ndarray:
        """Current total local potential (ionic + screening), read-only."""
        return self._v_local

    # -- application ---------------------------------------------------------
    def apply_local(self, coefficients: np.ndarray) -> np.ndarray:
        """Kinetic + local-potential part of H on a band block ``(m, npw)``.

        This is the dual-space share of :meth:`apply`, and it is
        *row-independent bit for bit*: every output row depends only on the
        matching input row through elementwise products and the
        box-restricted DFT products of :meth:`PlaneWaveBasis.apply_potential`,
        in which the band index is a batch dimension, never a GEMM row.  The
        band-sliced eigensolver (:mod:`repro.parallel.bands`) therefore ships
        row slices of a band block through this kernel on worker
        threads/processes and concatenates the outputs, bit-identical to one
        full-block call.
        """
        c = np.asarray(coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[1] != self.basis.npw:
            raise ValueError("coefficient length must equal npw")

        # Kinetic: diagonal in G.
        out = c * self.basis.kinetic[None, :]

        # Local potential: to real space, multiply, back (the box-restricted
        # DFT products of PlaneWaveBasis).
        out += self.basis.apply_potential(c, self._v_local)
        return out

    def add_nonlocal(
        self, out: np.ndarray, coefficients: np.ndarray, band_offset: int = 0
    ) -> np.ndarray:
        """Add the nonlocal KB term of a band block to ``out`` (in place).

        Blocked fixed-shape kernel.  Bands are pushed through the two
        projection GEMMs in column blocks of exactly ``_NONLOCAL_BLOCK``
        columns, aligned to the *global* band index
        ``band_offset + i``; columns the call does not own are zero-filled.
        A BLAS GEMM output column depends only on its own input column once
        the operand shapes and the column position are fixed (verified
        property, ``tests/test_kernel_pack.py`` — the column form of the
        fixed-shape property ``apply_local``'s DFT products rest on), so every
        band's result is bit-identical no matter how the block is sliced
        across workers.  The band-sliced eigensolver therefore runs this
        term inside band slices (``band_offset = slice.lo``).  (One GEMM
        pair over the whole variable-shape block would *not* be row-slice
        stable: a 1-row product may dispatch to GEMV with a different
        accumulation order.)
        """
        if not self.nproj:
            return out
        c = coefficients
        m = c.shape[0]
        strengths = self.projector_strengths[:, None]
        if self._projectors_conj is None:
            self._projectors_conj = self.projectors.conj()
        if self._projectors_t is None:
            # ``projectors.T`` is an F-contiguous view; BLAS then runs the
            # back-projection GEMM in transposed mode.  Cache a C-contiguous
            # copy once so both GEMM operands are contiguous (the ROADMAP
            # "below numpy" item; measured by tools/profile_hot_paths.py).
            self._projectors_t = np.ascontiguousarray(self.projectors.T)
        projectors_t = self._projectors_t
        blk = _NONLOCAL_BLOCK
        if m:
            cblk = np.empty((self.basis.npw, blk), dtype=complex)
            first = band_offset // blk
            last = (band_offset + m - 1) // blk
            for k in range(first, last + 1):
                g_lo = max(band_offset, k * blk)
                g_hi = min(band_offset + m, (k + 1) * blk)
                cols = slice(g_lo - k * blk, g_hi - k * blk)
                rows = slice(g_lo - band_offset, g_hi - band_offset)
                if g_hi - g_lo < blk:
                    cblk.fill(0)
                cblk[:, cols] = c[rows].T
                beta = self._projectors_conj @ cblk  # (nproj, blk)
                nl = projectors_t @ (strengths * beta)  # (npw, blk)
                out[rows] += nl[:, cols].T
        return out

    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply H to a block of band coefficients ``(nbands, npw)``.

        Accepts a single vector ``(npw,)`` as well.  Exactly
        :meth:`apply_local` followed by :meth:`add_nonlocal` — the split the
        band-sliced eigensolver distributes.
        """
        c = np.asarray(coefficients, dtype=complex)
        single = c.ndim == 1
        if single:
            c = c[None, :]
        out = self.add_nonlocal(self.apply_local(c), c)
        self.counter.add(c.shape[0])
        return out[0] if single else out

    def expectation(self, coefficients: np.ndarray) -> np.ndarray:
        """Diagonal expectation values <psi_i|H|psi_i> for a band block."""
        c = np.atleast_2d(np.asarray(coefficients, dtype=complex))
        hc = self.apply(c)
        return np.real(np.einsum("ij,ij->i", c.conj(), hc))

    # -- dense reference -------------------------------------------------------
    def dense_matrix(self) -> np.ndarray:
        """Build the full (npw x npw) Hamiltonian matrix.

        Only sensible for small bases (tests, exact reference); cost and
        memory are O(npw^2).
        """
        npw = self.basis.npw
        if npw > 4000:
            raise MemoryError("dense Hamiltonian requested for npw > 4000")
        h = np.zeros((npw, npw), dtype=complex)
        identity = np.eye(npw, dtype=complex)
        # Column-by-column application in blocks to bound memory.
        block = 256
        for start in range(0, npw, block):
            stop = min(npw, start + block)
            h[:, start:stop] = self.apply(identity[start:stop]).T
        # Enforce exact hermiticity against round-off.
        return 0.5 * (h + h.conj().T)

    # -- preconditioner ----------------------------------------------------------
    def preconditioner(self, reference_kinetic) -> np.ndarray:
        """Teter-Payne-Allan diagonal preconditioner (PRB 40, 12255), per band.

        ``reference_kinetic`` is the kinetic energy of the band(s) being
        corrected, a scalar or ``(k,)``; the result is ``(npw,)`` or ``(k, npw)``,
        ``(27+18x+12x^2+8x^3) / (27+18x+12x^2+8x^3+16x^4)`` with
        ``x = T(G) / reference``: 1 below the band's own kinetic energy,
        ``1/(2x)`` far above.  A reference that is not finite and positive
        raises ``ValueError`` (the solvers floor theirs).
        """
        ref = np.asarray(reference_kinetic, dtype=float)
        if not np.all(np.isfinite(ref) & (ref > 0)):
            raise ValueError("reference kinetic energies must be finite and positive")
        # x = T / (c ref) with c = 1: packed rows per scf_serial run 669 against
        # 675 (c = 1.5, the textbook value) and 715 (c = 2), measured in PR 24.
        x = self.basis.kinetic / ref[..., None]
        poly = 27.0 + x * (18.0 + x * (12.0 + 8.0 * x))
        return poly / (poly + 16.0 * x**4)
