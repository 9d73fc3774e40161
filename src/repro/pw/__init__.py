"""Plane-wave density functional theory substrate (PEtot-like).

LS3DF solves each fragment with a plane-wave Kohn–Sham solver; the paper
uses PEtot (norm-conserving pseudopotentials, all-band conjugate-gradient
minimization, FFT-based dual-space Hamiltonian application).  This package
implements that substrate from scratch in NumPy:

* :mod:`repro.pw.grid`       — real/reciprocal FFT grids for orthorhombic cells
* :mod:`repro.pw.basis`      — plane-wave basis set (energy cutoff sphere)
* :mod:`repro.pw.pseudopotential` — analytic local + Kleinman–Bylander
  nonlocal model pseudopotentials
* :mod:`repro.pw.xc`         — LDA exchange-correlation (Slater + PZ81)
* :mod:`repro.pw.hartree`    — FFT Poisson solver / Hartree potential
* :mod:`repro.pw.hamiltonian`— dual-space Hamiltonian application
* :mod:`repro.pw.eigensolver`— all-band and band-by-band CG eigensolvers
* :mod:`repro.pw.density`    — charge density construction
* :mod:`repro.pw.energy`     — total energy functional
* :mod:`repro.pw.mixing`     — potential mixing (linear / Kerker / Anderson)
* :mod:`repro.pw.scf`        — direct (O(N^3)) self-consistent field driver
* :mod:`repro.pw.fsm`        — folded spectrum method for band-edge states
"""

from repro import exports

__all__, __getattr__ = exports(__name__, {
    "grid": "FFTGrid grid_density",
    "basis": "PlaneWaveBasis",
    "pseudopotential": "PseudopotentialSet SpeciesPseudopotential default_pseudopotentials",
    "hamiltonian": "Hamiltonian",
    "eigensolver": "all_band_cg band_by_band_cg exact_diagonalization",
    "mixing": "AndersonMixer KerkerMixer LinearMixer Mixer make_mixer",
    "scf": "DirectSCF SCFResult",
    "fsm": "folded_spectrum",
})
