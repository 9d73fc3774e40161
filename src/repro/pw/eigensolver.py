"""Iterative eigensolvers for the plane-wave Kohn-Sham problem.

Two solvers are provided, mirroring the paper's PEtot_F optimisation story:

* :func:`band_by_band_cg` — the original PEtot algorithm: solve one band at
  a time with preconditioned conjugate gradients, Gram-Schmidt
  orthogonalising against the already-converged bands.  Its inner products
  are matrix-vector (BLAS-2-like) operations.

* :func:`all_band_cg` — the optimised algorithm: iterate on the whole band
  block simultaneously, using an expanded subspace [X, P, W] (current block,
  previous search directions, residuals preconditioned band by band), an
  overlap-matrix orthogonalisation and a Rayleigh-Ritz subspace
  diagonalisation, at one H·psi per *unconverged* band per step (the paper's
  cost is its upper bound), cold from a Ritz-reduced low-kinetic block.  All
  heavy operations are matrix-matrix (BLAS-3) products, the change that took
  PEtot from 15% to ~56% of peak in the paper.

* :func:`exact_diagonalization` — dense reference for small fragments and
  for the test-suite's correctness checks.

:func:`all_band_cg` works on real orbitals (``c(-G) = c(G)*``), two of them
per complex row of H·psi, and accepts ``band_groups=`` — a band-parallel
worker group (:class:`repro.parallel.bands.BandGroup`) that distributes those
rows over executor workers while the caller stays the group root for the
cross-band reductions; results are bit-identical for any slice count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.pw.hamiltonian import Hamiltonian


@dataclass(eq=False)
class EigensolverResult:
    """Result of an iterative (or exact) diagonalisation.

    Attributes
    ----------
    eigenvalues:
        Band energies (Hartree), ascending, shape ``(nbands,)``.
    coefficients:
        Orthonormal band coefficients, shape ``(nbands, npw)``.
    residual_norms:
        Final residual norm per band.
    iterations:
        Number of outer iterations performed.
    converged:
        True when every gated entry of ``residual_norms`` is below the tolerance
        (:func:`all_band_cg`: the first ``nconverge``; ``iterations`` is what those
        took, ``eigenvalues`` / ``residual_norms`` beyond them are guard-band Ritz data).
    history:
        Per-iteration maximum residual norm (diagnostics / tests of
        monotone convergence behaviour).
    """

    eigenvalues: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def exact_diagonalization(h: Hamiltonian, nbands: int) -> EigensolverResult:
    """Dense diagonalisation of the full plane-wave Hamiltonian.

    Intended for small bases only (tests and tiny fragments); cost is
    O(npw^3).
    """
    if nbands < 1 or nbands > h.basis.npw:
        raise ValueError("nbands out of range")
    mat = h.dense_matrix()
    evals, evecs = np.linalg.eigh(mat)
    coeffs = np.ascontiguousarray(evecs[:, :nbands].T)
    rn = np.linalg.norm(h.apply(coeffs) - evals[:nbands, None] * coeffs, axis=1)
    return EigensolverResult(
        eigenvalues=evals[:nbands].copy(),
        coefficients=coeffs,
        residual_norms=rn,
        iterations=1,
        converged=True,
        history=[float(rn.max())],
    )


# ---------------------------------------------------------------------------
# All-band solver (BLAS-3): block iteration with Rayleigh-Ritz on [X, P, W]
# ---------------------------------------------------------------------------
# The block lives in the real subspace c = K c (``basis.conjugate``): inner
# products of such rows are real, so these helpers run on float64 views (eigh
# reads the lower triangle only).  Private to this solver; the band-by-band
# one keeps generic complex algebra.  docs/ARCHITECTURE.md, "Two bands per FFT".

def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``<a_i|b_j>`` of K-symmetric rows: real, one float64 GEMM."""
    return a.view(np.float64) @ b.view(np.float64).T


def _mix(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows ``sum_j c[i, j] s[j]`` for a real ``c``, as a float64 GEMM."""
    return (c @ s.view(np.float64)).view(np.complex128)


def _apply_packed(apply_h, basis, block: np.ndarray) -> np.ndarray:
    """H on K-symmetric rows, two of them per complex row given to ``apply_h``:
    H commutes with K, so ``z = a + i b`` has ``H z = H a + i H b`` and the two
    images are the K-even and K-odd parts of ``H z``.  An odd last row rides alone."""
    half = len(block) // 2
    z = block[0::2].copy()
    z[:half] += 1j * block[1::2]
    hz = apply_h(z)
    khz = basis.conjugate(hz)
    out = np.empty_like(block)
    out[0::2] = 0.5 * (hz + khz)
    out[1::2] = -0.5j * (hz[:half] - khz[:half])
    return out


def _expansion_block(basis, w: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the part of ``w`` outside the rows of ``held``.

    ``held`` has orthonormal rows.  Rows of ``w`` that vanish under the
    projection and near-null directions of what is left are dropped, so the
    result may have fewer rows than ``w`` (none when ``w`` lies in ``held``).
    The projection runs twice: the first pass leaves rounding-sized
    components along ``held`` that normalising amplifies, the second removes
    them ("twice is enough").  The finished block is put back into
    ``c = K c``: the real products cannot see a component ``i * (symmetric
    vector)``, so nothing else removes it and normalising a small residual
    block amplifies it step after step.
    """
    w = w - _mix(_gram(w, held), held)
    norm = np.linalg.norm(w, axis=1)
    keep = norm > 1e-14
    w = w[keep] / norm[keep, None]
    if not len(w):
        return w
    svals, svecs = np.linalg.eigh(_gram(w, w))
    good = svals > 1e-10
    w = _mix((svecs[:, good] / np.sqrt(svals[good])).T, w)
    w -= _mix(_gram(w, held), held)
    svals, svecs = np.linalg.eigh(_gram(w, w))
    w = _mix((svecs / np.sqrt(svals)) @ svecs.T, w)
    return 0.5 * (w + basis.conjugate(w))


def _preconditioner(h, rows: np.ndarray) -> np.ndarray:
    """``h.preconditioner`` at each row's own kinetic energy (one real GEMV),
    floored: a band that is the G = 0 plane wave alone has none to divide by
    (1e-6 to 1e-2 Ha measured the same counts per scf_serial run in PR 24)."""
    ekin = (rows.real**2 + rows.imag**2) @ h.basis.kinetic
    return h.preconditioner(np.maximum(ekin, 1e-3))


def _low_kinetic_block(basis, nbands: int) -> np.ndarray:
    """Cold-start rows: the cos / sin combinations of the complete ``|G|`` shells
    holding the ``2 nbands`` lowest-kinetic plane waves, exactly orthonormal,
    ``c = K c`` (1 / 2 / 3 / 4 ``nbands`` measured 127 / 127 / 125 / 128 steps and
    636 / 640 / 656 / 678 packed rows per scf_serial run in PR 24).  Whole
    shells and at most ``npw - nbands`` rows: the random rows beside them must
    fit in the ``npw`` real dimensions of that space."""
    t, room = basis.kinetic, basis.npw - nbands
    cut = np.sort(t)[min(2 * nbands, room) - 1]
    chosen = t <= cut * (1 + 1e-9)
    if chosen.sum() > room:
        chosen = t < cut * (1 - 1e-9)
    g = np.nonzero(chosen)[0]
    partner, row = basis.minus_g[g], np.arange(len(g))
    amplitude = np.where(g < partner, 1.0, 1j) * np.sqrt(0.5)
    amplitude[g == partner] = 0.5  # G = 0 is its own partner
    rows = np.zeros((len(g), basis.npw), dtype=complex)
    rows[row, g] = amplitude
    rows[row, partner] += amplitude.conj()
    return rows


def all_band_cg(
    h: Hamiltonian,
    nbands: int,
    initial: np.ndarray | None = None,
    max_iterations: int = 60,
    tolerance: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
    band_groups=None,
    nconverge: int | None = None,
) -> EigensolverResult:
    """All-band preconditioned block solver (LOBPCG on an orthonormal basis).

    Two bands per complex row: H is real at Gamma (it commutes with
    ``K = basis.conjugate``), so the block is kept in the real subspace
    ``c = K c``, every application is packed (:func:`_apply_packed`) and the
    cross-band algebra is real; any complex ``initial`` is mapped onto that
    subspace first.  The block ``x``, the previous search directions ``p`` and
    the expansion ``w`` form one orthonormal basis ``s = [x, p, w]``; H is
    applied to ``w`` only, and the images of ``x`` and ``p`` are carried as the
    combinations of ``h s`` that produce them from ``s`` — through matrices
    with orthonormal columns, so rounding drift in the images grows by about
    one ulp per iteration (``docs/ARCHITECTURE.md``, "Hot paths").  ``w`` holds
    the residuals of the *active* bands only, those still at or above
    ``tolerance`` this step, each preconditioned at its own kinetic energy
    (:meth:`Hamiltonian.preconditioner`): a converged band costs no H
    application but stays in ``x`` and in the Rayleigh-Ritz, so it keeps
    improving and is active again if it drifts back up.  The carried images
    only steer the iteration: the solver stops on a fresh ``H x`` with the
    first ``nconverge`` bands under the tolerance, and every result field is
    computed from it.  The bands above the gate are guards: iterated like the
    rest, rotated, returned, never waited for.

    Parameters
    ----------
    h:
        Hamiltonian to diagonalise.
    nbands:
        Number of lowest eigenpairs wanted.
    initial:
        Starting coefficients ``(nbands, npw)``, as LS3DF passes from the
        previous SCF iteration.  ``None`` is a cold start: the first Ritz step
        picks ``nbands`` out of ``n0`` (about ``3 nbands``) rows, the
        low-kinetic shells of :func:`_low_kinetic_block` beside ``nbands``
        random rows, at ``ceil(n0 / 2)`` packed H rows.
    max_iterations:
        Maximum number of iterations (subspace expansions).
    tolerance:
        Convergence threshold on the maximum residual 2-norm.
    rng:
        Seed/generator of the cold start's random rows (they break the cell's
        symmetry, which the shells cannot).
    band_groups:
        Optional band-parallel worker group (duck-typed; canonically a
        :class:`repro.parallel.bands.BandGroup`): its ``apply_h`` then runs
        every H application, sliced over workers, while this function (the
        *group root*) keeps the elementwise residual step and every
        cross-band reduction.  Bit-identical to the in-process path for any
        slice count: the active rows are chosen and packed here, before the
        scatter, the sliced kernel is row-independent bit for bit and the
        root's algebra runs on full blocks of identical shape.
    nconverge:
        How many of the lowest bands the stop test waits for (the ones that
        carry charge); ``None`` is ``nbands``.

    Returns
    -------
    EigensolverResult
        ``iterations`` counts the subspace expansions (one H application
        each, on the active bands only); ``history`` holds the maximum
        residual, guards included, each of them started from.
    """
    basis = h.basis
    if nbands < 1 or nbands > basis.npw // 2:
        raise ValueError(
            f"nbands={nbands} out of range for basis with {basis.npw} plane waves"
        )
    nconverge = nbands if nconverge is None else nconverge
    if nconverge < 1 or nconverge > nbands:
        raise ValueError(f"nconverge={nconverge} out of range for {nbands} bands")
    shells = np.zeros((0, basis.npw), dtype=complex)  # a supplied start brings none
    if initial is None:
        # Low-kinetic shells beside random rows: a span of complete shells is
        # closed under the cell's point group and would hide every irrep it
        # lacks from the iteration (it would stop on plane waves at step 0).
        shells = _low_kinetic_block(basis, nbands)
        initial = basis.random_coefficients(nbands, rng)
        initial = 0.5 * (initial + basis.conjugate(initial))
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (nbands, basis.npw):
        raise ValueError("initial coefficients have the wrong shape")
    # Real start: both real parts of every row, outside the shells, null
    # directions dropped (all second parts of a K-symmetric block); the first
    # Ritz step keeps nbands.
    flipped = basis.conjugate(initial)
    parts = np.vstack([0.5 * (initial + flipped), -0.5j * (initial - flipped)])
    x = np.vstack([shells, _expansion_block(basis, parts, shells)])
    if len(x) < nbands:
        raise np.linalg.LinAlgError("linearly dependent band block")

    rows = h.apply if band_groups is None else band_groups.apply_h
    apply_h = partial(_apply_packed, rows, basis)
    history: list[float] = []
    it = 0
    # ``held`` = [x, p] (p: the previous search directions, none before the first
    # step); ``hheld`` its images, carried unless ``fresh`` (just applied to x).
    held, hheld, fresh = x, apply_h(x), True
    while True:
        if fresh:
            # Rayleigh-Ritz inside the orthonormal block, lowest nbands kept
            # (after a step, x and evals already are the step's Ritz pairs).
            evals, u = np.linalg.eigh(_gram(held, hheld))
            evals, u = evals[:nbands], u[:, :nbands].T
            held, hheld = _mix(u, held), _mix(u, hheld)
        x, hx = held[:nbands], hheld[:nbands]
        # Preconditioned residuals: elementwise, so cheaper to compute here
        # on the full block than to ship; the one sliced kernel is apply_h.
        w = hx - evals[:, None] * x
        rnorm = np.linalg.norm(w, axis=1)
        stop = rnorm[:nconverge].max() < tolerance or it == max_iterations
        if not stop:
            # Soft locking: only the bands not yet converged expand the basis.
            active = rnorm >= tolerance
            w = _expansion_block(basis, w[active] * _preconditioner(h, x[active]), held)
            stop = not len(w)
        if stop:
            if fresh:
                break
            # Only a fresh image is believed: re-apply H, drop the history
            # and come back through the test above, which ends the solve or,
            # if the recurrence had drifted, carries on from clean state.
            held, hheld, fresh = x, apply_h(x), True
            continue
        it += 1
        history.append(float(rnorm.max()))

        # Rayleigh-Ritz on the orthonormal basis s = [x, p, w]; its first
        # nbands Ritz pairs are the new block and its eigenvalues.
        s, hs = np.vstack([held, w]), np.vstack([hheld, apply_h(w)])
        theta, c = np.linalg.eigh(_gram(s, hs))
        evals, crest = theta[:nbands], c[:, nbands:]
        # New search directions: an orthonormal basis of the part of the
        # old block outside the new one, so span[x_new, p] = span[x_new, x]
        # with p orthogonal to x_new (no x_new - x cancellation).
        q, _ = np.linalg.qr(crest[:nbands].T)
        rot = np.hstack([c[:, :nbands], crest @ q]).T
        held, hheld, fresh = _mix(rot, s), _mix(rot, hs), False

    return EigensolverResult(
        eigenvalues=evals,
        coefficients=x,
        residual_norms=rnorm,
        iterations=it,
        converged=bool(rnorm[:nconverge].max() < tolerance),
        history=history,
    )


# ---------------------------------------------------------------------------
# Band-by-band solver (BLAS-2): the pre-optimisation PEtot algorithm
# ---------------------------------------------------------------------------

def band_by_band_cg(
    h: Hamiltonian,
    nbands: int,
    initial: np.ndarray | None = None,
    max_iterations: int = 60,
    cg_steps_per_band: int = 5,
    tolerance: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
) -> EigensolverResult:
    """Band-by-band preconditioned CG minimisation of the Rayleigh quotient.

    Each band is relaxed with a few CG steps while being Gram-Schmidt
    orthogonalised against all lower bands after every step — the memory-
    lean but BLAS-2-bound algorithm the paper replaced.  A final subspace
    rotation makes the output directly comparable to :func:`all_band_cg`.
    """
    basis = h.basis
    if nbands < 1 or nbands > basis.npw // 2:
        raise ValueError("nbands out of range")
    if initial is None:
        x = basis.random_coefficients(nbands, rng)
    else:
        x = basis.orthonormalize(np.asarray(initial, dtype=complex))

    history: list[float] = []
    it = 0
    converged = False

    def _project_out(vec: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Gram-Schmidt vec against the rows of block (one band at a time)."""
        for b in block:
            vec = vec - (b.conj() @ vec) * b
        return vec

    for it in range(1, max_iterations + 1):
        for band in range(nbands):
            c = x[band]
            prev_dir, prev_gk = 0.0, None
            for _ in range(cg_steps_per_band):
                c = _project_out(c, x[:band])
                c = c / np.linalg.norm(c)
                hc = h.apply(c)
                eps = np.real(c.conj() @ hc)
                g = hc - eps * c
                gk = g * _preconditioner(h, c)
                gk = _project_out(gk, x[:band])
                gk -= (c.conj() @ gk) * c
                gamma = 0.0
                if prev_gk is not None:
                    denom = np.real(np.vdot(prev_gk, prev_gk))
                    if denom > 1e-30:
                        gamma = np.real(np.vdot(gk, gk)) / denom
                d = -gk + gamma * prev_dir
                prev_dir, prev_gk = d, gk
                dn = np.linalg.norm(d)
                if dn < 1e-14:
                    break
                d = d / dn
                # Exact line minimisation on the 2D subspace span{c, d}.
                hd = h.apply(d)
                h22 = np.real(d.conj() @ hd)
                h12 = c.conj() @ hd
                _, evecs2 = np.linalg.eigh(np.array([[eps, h12], [np.conj(h12), h22]]))
                c = evecs2[0, 0] * c + evecs2[1, 0] * d
                c = c / np.linalg.norm(c)
            x[band] = c
        # Subspace rotation (kept cheap: nbands x nbands) + residual check.
        x = basis.orthonormalize(x)
        hx = h.apply(x)
        m = x.conj() @ hx.T
        evals, u = np.linalg.eigh(0.5 * (m + m.conj().T))
        x, hx = u.T @ x, u.T @ hx
        r = hx - evals[:, None] * x
        rnorm = np.linalg.norm(r, axis=1)
        history.append(float(rnorm.max()))
        if rnorm.max() < tolerance:
            converged = True
            break

    return EigensolverResult(
        eigenvalues=evals,
        coefficients=x,
        residual_norms=rnorm,
        iterations=it,
        converged=converged,
        history=history,
    )
