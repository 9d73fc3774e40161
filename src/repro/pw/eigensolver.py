"""Iterative eigensolvers for the plane-wave Kohn-Sham problem.

Two solvers are provided, mirroring the paper's PEtot_F optimisation story:

* :func:`band_by_band_cg` — the original PEtot algorithm: solve one band at
  a time with preconditioned conjugate gradients, Gram-Schmidt
  orthogonalising against the already-converged bands.  Its inner products
  are matrix-vector (BLAS-2-like) operations.

* :func:`all_band_cg` — the optimised algorithm: iterate on the whole band
  block simultaneously, using an expanded subspace [X, W] (current block +
  preconditioned residuals), an overlap-matrix orthogonalisation and a
  Rayleigh-Ritz subspace diagonalisation.  All heavy operations are
  matrix-matrix (BLAS-3) products, which is exactly the change that took
  PEtot from 15% to ~56% of peak in the paper.

* :func:`exact_diagonalization` — dense reference for small fragments and
  for the test-suite's correctness checks.

:func:`all_band_cg` additionally accepts ``band_groups=`` — a band-parallel
worker group (:class:`repro.parallel.bands.BandGroup`) that distributes the
per-band heavy work (H·psi, preconditioned residuals) over executor
workers while the caller remains the serial group root for the dense
cross-band reductions; results are bit-identical for any slice count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pw.hamiltonian import Hamiltonian


@dataclass
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
        True when all residuals fell below the tolerance.
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


def _residuals(h: Hamiltonian, coeffs: np.ndarray, evals: np.ndarray) -> np.ndarray:
    return h.apply(coeffs) - evals[:, None] * coeffs


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
    res = _residuals(h, coeffs, evals[:nbands])
    rn = np.linalg.norm(res, axis=1)
    return EigensolverResult(
        eigenvalues=evals[:nbands].copy(),
        coefficients=coeffs,
        residual_norms=rn,
        iterations=1,
        converged=True,
        history=[float(rn.max()) if nbands else 0.0],
    )


# ---------------------------------------------------------------------------
# All-band solver (BLAS-3): block iteration with Rayleigh-Ritz on [X, W]
# ---------------------------------------------------------------------------

def all_band_cg(
    h: Hamiltonian,
    nbands: int,
    initial: np.ndarray | None = None,
    max_iterations: int = 60,
    tolerance: float = 1e-6,
    rng: np.random.Generator | int | None = 0,
    band_groups=None,
) -> EigensolverResult:
    """All-band preconditioned block solver (LOBPCG-style without history).

    Parameters
    ----------
    h:
        Hamiltonian to diagonalise.
    nbands:
        Number of lowest eigenpairs wanted.
    initial:
        Optional starting coefficients ``(nbands, npw)``; reusing the
        previous SCF iteration's wavefunctions (as LS3DF does) makes each
        SCF step much cheaper.
    max_iterations:
        Maximum outer iterations.
    tolerance:
        Convergence threshold on the maximum residual 2-norm.
    rng:
        Seed/generator for the random start when ``initial`` is None.
    band_groups:
        Optional band-parallel worker group (duck-typed; canonically a
        :class:`repro.parallel.bands.BandGroup`).  When given, the heavy
        per-band work — H·psi applications and the preconditioned-residual
        line-search step — is delegated to its ``apply_h`` /
        ``residual_precond`` methods, which slice the band block over a
        worker group, while this function (the *group root*) keeps every
        cross-band dense reduction: Gram/overlap matrices, subspace
        rotations, Rayleigh-Ritz.  Results are bit-identical to the
        default in-process path for any slice count, because the sliced
        kernels are row-independent bit for bit
        (:meth:`repro.pw.hamiltonian.Hamiltonian.apply_local`,
        :meth:`~repro.pw.hamiltonian.Hamiltonian.add_nonlocal`) and the
        root-side algebra runs on full blocks of identical shape.  The
        default ``None`` keeps the single-worker path.

    Returns
    -------
    EigensolverResult
    """
    basis = h.basis
    if nbands < 1 or nbands > basis.npw // 2:
        raise ValueError(
            f"nbands={nbands} out of range for basis with {basis.npw} plane waves"
        )
    if initial is None:
        x = basis.random_coefficients(nbands, rng)
    else:
        x = basis.orthonormalize(np.asarray(initial, dtype=complex))
        if x.shape != (nbands, basis.npw):
            raise ValueError("initial coefficients have the wrong shape")

    precond = h.preconditioner()
    if band_groups is None:
        apply_h = h.apply

        def residual_precond(x, hx, evals):
            r = hx - evals[:, None] * x
            return r * precond[None, :], np.linalg.norm(r, axis=1)
    else:
        apply_h = band_groups.apply_h
        residual_precond = band_groups.residual_precond
    history: list[float] = []
    evals = np.zeros(nbands)
    converged = False
    it = 0
    p: np.ndarray | None = None  # LOBPCG-style search directions (history)
    for it in range(1, max_iterations + 1):
        hx = apply_h(x)
        # Rayleigh-Ritz within the current block first (keeps x H-orthogonal).
        hsub = x.conj() @ hx.T
        hsub = 0.5 * (hsub + hsub.conj().T)
        evals_sub, u = np.linalg.eigh(hsub)
        x = u.T @ x
        hx = u.T @ hx
        evals = evals_sub

        # Preconditioned residuals (per-band work: sliceable), then the
        # cross-band projection out of the current subspace (root work).
        w, rnorm = residual_precond(x, hx, evals)
        history.append(float(rnorm.max()))
        if rnorm.max() < tolerance:
            converged = True
            break

        w -= (w @ x.conj().T) @ x
        wnorm = np.linalg.norm(w, axis=1)
        keep = wnorm > 1e-14
        w = w[keep] / wnorm[keep, None]
        if w.shape[0] == 0:
            converged = rnorm.max() < tolerance
            break

        # Rayleigh-Ritz on the expanded subspace [x, w, p]  (the p block of
        # previous search directions gives LOBPCG-grade convergence while
        # keeping every heavy operation a matrix-matrix product).
        blocks = [x, w]
        if p is not None and p.shape[0]:
            q = p - (p @ x.conj().T) @ x
            q -= (q @ w.conj().T) @ w
            qnorm = np.linalg.norm(q, axis=1)
            keep_q = qnorm > 1e-10
            if np.any(keep_q):
                blocks.append(q[keep_q] / qnorm[keep_q, None])
        sub = np.vstack(blocks)
        overlap = sub @ sub.conj().T
        overlap = 0.5 * (overlap + overlap.conj().T)
        # Drop near-null directions for numerical safety.
        svals, svecs = np.linalg.eigh(overlap)
        good = svals > 1e-10
        trans = svecs[:, good] * (1.0 / np.sqrt(svals[good]))[None, :]
        sub_on = trans.conj().T @ sub
        hsub_big = sub_on.conj() @ apply_h(sub_on).T
        hsub_big = 0.5 * (hsub_big + hsub_big.conj().T)
        evals_big, u_big = np.linalg.eigh(hsub_big)
        x_new = u_big[:, :nbands].T @ sub_on
        # New search directions: the part of the update outside the old block.
        p = x_new - (x_new @ x.conj().T) @ x
        x = basis.orthonormalize(x_new)

    hx = apply_h(x)
    hsub = x.conj() @ hx.T
    hsub = 0.5 * (hsub + hsub.conj().T)
    evals, u = np.linalg.eigh(hsub)
    x = u.T @ x
    r = apply_h(x) - evals[:, None] * x
    rnorm = np.linalg.norm(r, axis=1)
    return EigensolverResult(
        eigenvalues=evals,
        coefficients=x,
        residual_norms=rnorm,
        iterations=it,
        converged=bool(converged or rnorm.max() < tolerance),
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

    precond = h.preconditioner()
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
            prev_dir = None
            prev_gk = None
            for _ in range(cg_steps_per_band):
                c = _project_out(c, x[:band])
                c = c / np.linalg.norm(c)
                hc = h.apply(c)
                eps = np.real(c.conj() @ hc)
                g = hc - eps * c
                gk = g * precond
                gk = _project_out(gk, x[:band])
                gk -= (c.conj() @ gk) * c
                gamma = 0.0
                if prev_dir is not None and prev_gk is not None:
                    denom = np.real(np.vdot(prev_gk, prev_gk))
                    if denom > 1e-30:
                        gamma = np.real(np.vdot(gk, gk)) / denom
                d = -gk + gamma * (prev_dir if prev_dir is not None else 0.0)
                prev_dir, prev_gk = d, gk
                dn = np.linalg.norm(d)
                if dn < 1e-14:
                    break
                d = d / dn
                # Exact line minimisation on the 2D subspace span{c, d}.
                hd = h.apply(d)
                h11 = np.real(c.conj() @ hc)
                h22 = np.real(d.conj() @ hd)
                h12 = c.conj() @ hd
                theta_mat = np.array([[h11, h12], [np.conj(h12), h22]])
                evals2, evecs2 = np.linalg.eigh(theta_mat)
                a, b = evecs2[0, 0], evecs2[1, 0]
                c = a * c + b * d
                c = c / np.linalg.norm(c)
            x[band] = c
        # Subspace rotation (kept cheap: nbands x nbands) + residual check.
        x = basis.orthonormalize(x)
        hx = h.apply(x)
        hsub = x.conj() @ hx.T
        hsub = 0.5 * (hsub + hsub.conj().T)
        evals, u = np.linalg.eigh(hsub)
        x = u.T @ x
        hx = u.T @ hx
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
