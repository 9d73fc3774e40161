#!/usr/bin/env python
"""Profile one LS3DF SCF iteration, one stage at a time.

Runs the paper's four subroutines — Gen_VF, PEtot_F, Gen_dens, GENPOT —
on a model-scale problem, each under its own ``cProfile`` session, and
prints the top-20 functions by cumulative time per stage.  This is the
measurement behind the "Hot paths and where the time goes" section of
``docs/ARCHITECTURE.md``: PEtot_F dominates, and inside it the batched
per-band FFTs (``Hamiltonian.apply_local``) and the nonlocal projection
GEMMs (``Hamiltonian.add_nonlocal``) are nearly the whole bill.  Before
the stage profiles it prints, for every distinct fragment basis, the
sphere-pruned FFT line counts (``PlaneWaveBasis.fft_lines``) and the time
of each 1-D pass (z / y / x) of one inverse + forward band-block transform
— the per-pass split the next kernel change should start from.  After the
PEtot_F profile it prints, per fragment solve, the eigensolver steps and
the H·psi rows applied (``Hamiltonian.counter``) beside ``nbands · steps`` —
once for the profiled iteration, whose solves start *cold* (``n0`` start rows:
low-kinetic shells plus ``nbands`` random rows, Ritz-reduced to ``nbands``),
and once more, after GENPOT, for the *warm* solves of the next iteration
(``n0 = nbands``: the previous orbitals in the mixed potential).  Rows are
*packed pairs*: the all-band solver works on real orbitals and sends two of
them through H as one complex row, and only the bands still above the
tolerance at each step.  ``of unlocked`` is the share of ``ceil(n0 / 2) +
ceil(nbands / 2) · (steps + 1)`` — the start block, every band every step and
the exit verification — the solve paid: 1.00 when nothing converges before
the last band does, near 2 if rows went unpacked.  The solve ends when the
bands that carry charge are converged (``nconverge``); the ``guards`` columns
are the steps and rows the same solve adds when it waits for every band
instead - what used to be spent after the last gated band converged, and is
0 by construction now.

Usage::

    PYTHONPATH=src python tools/profile_hot_paths.py [--cells X Y Z]
                                                     [--ecut E] [--top N]

Everything runs on the serial backend so the profile sees the kernels
themselves, not pool plumbing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def profile_stage(name: str, func, top: int):
    profiler = cProfile.Profile()
    profiler.enable()
    out = func()
    profiler.disable()
    stats = pstats.Stats(profiler)
    print(f"\n{'=' * 72}\n{name}: top {top} by cumulative time\n{'=' * 72}")
    stats.sort_stats("cumulative").print_stats(top)
    return out


def time_fft_passes(basis, nbands: int, repeats: int = 20) -> dict:
    """Seconds per call of each pass of ``to_real_space`` / ``from_real_space``.

    Wraps ``np.fft.fft`` / ``np.fft.ifft`` with a clock for the duration of
    the measurement; ``"total"`` is the whole round trip, so the remainder
    is scatter, embedding and gather.
    """
    spent = dict.fromkeys(
        [(name, axis) for name in ("ifft", "fft") for axis in (-1, -2, -3)], 0.0
    )
    originals = {name: getattr(np.fft, name) for name in ("fft", "ifft")}

    def timed(name):
        def call(a, axis=-1, out=None):
            start = time.perf_counter()
            result = originals[name](a, axis=axis, out=out)
            spent[name, axis] += time.perf_counter() - start
            return result
        return call

    coeffs = basis.random_coefficients(nbands, rng=0)
    basis.from_real_space(basis.to_real_space(coeffs))  # warm pocketfft's plans
    for name in originals:
        setattr(np.fft, name, timed(name))
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            basis.from_real_space(basis.to_real_space(coeffs))
        total = time.perf_counter() - start
    finally:
        for name, func in originals.items():
            setattr(np.fft, name, func)
    passes = {key: value / repeats for key, value in spent.items()}
    passes["total"] = total / repeats
    return passes


def report_fft_passes(problems) -> None:
    """One block per distinct fragment basis: box, line counts, per-pass times."""
    seen = {}
    for problem in problems:
        basis = problem.basis
        seen.setdefault((basis.grid.shape, basis.npw), (basis, problem.nbands))
    print(f"\n{'=' * 72}\nsphere-pruned FFT passes per fragment basis\n{'=' * 72}")
    for (shape, npw), (basis, nbands) in seen.items():
        pruned, dense = basis.fft_lines
        occupied = np.nonzero(basis.to_grid(np.ones(basis.npw)))
        box = tuple(len(np.unique(i)) for i in occupied)
        passes = time_fft_passes(basis, nbands)
        print(
            f"grid {shape}  npw {npw}  box {box}  "
            f"fft_lines {pruned}/{dense} per band ({pruned / dense:.0%})"
        )
        for name, label in (("ifft", "to_real_space  "), ("fft", "from_real_space")):
            z, y, x = (passes[name, axis] * 1e3 for axis in (-1, -2, -3))
            print(f"  {label} ({nbands} bands): z {z:.3f} ms  y {y:.3f} ms  x {x:.3f} ms")
        fft = sum(v for k, v in passes.items() if k != "total")
        print(
            f"  round trip {passes['total'] * 1e3:.3f} ms, of which "
            f"{(passes['total'] - fft) * 1e3:.3f} ms scatter/embed/gather"
        )


def report_applications(labels, solves) -> None:
    """One row per fragment solve: start block, steps and the H·psi rows it cost.

    ``solves`` holds ``(start, n0, nbands, steps, rows, guard_steps, guard_rows)``;
    ``rows`` counts every row ``Hamiltonian.apply`` saw during
    ``solve_fragment_task`` — packed pairs of bands, all of them inside the
    eigensolve; the ``guard_*`` pair is what an every-band solve of the same
    task adds to that.
    """
    print(f"\n{'=' * 72}\nH·psi rows (two bands each) per fragment solve\n{'=' * 72}")
    print(f"{'fragment':<24}{'start':>6}{'n0':>5}{'nbands':>8}{'steps':>7}{'nb·it':>8}{'rows':>8}"
          f"{'of unlocked':>13}{'guards: +it':>13}{'+rows':>7}")
    unlocked = [-(-n0 // 2) + -(-nb // 2) * (it + 1) for _, n0, nb, it, *_ in solves]
    for label, (start, n0, nbands, steps, rows, gsteps, grows), full in zip(labels, solves, unlocked):
        print(f"{label:<24}{start:>6}{n0:>5}{nbands:>8}{steps:>7}{nbands * steps:>8}{rows:>8}"
              f"{rows / full:>13.2f}{gsteps:>13}{grows:>7}")
    for start in dict.fromkeys(s[0] for s in solves):
        picked = [(s, full) for s, full in zip(solves, unlocked) if s[0] == start]
        steps, rows, gsteps, grows = (sum(s[i] for s, _ in picked) for i in (3, 4, 5, 6))
        work = sum(s[2] * s[3] for s, _ in picked)
        print(f"{'all ' + start:<24}{'':>19}{steps:>7}{work:>8}{rows:>8}"
              f"{rows / sum(full for _, full in picked):>13.2f}{gsteps:>13}{grows:>7}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--cells", nargs=3, type=int, default=(2, 2, 1), metavar=("X", "Y", "Z"),
        help="supercell / fragment-grid dimensions (default: 2 2 1)",
    )
    parser.add_argument("--ecut", type=float, default=2.2,
                        help="plane-wave cutoff in Hartree (default: 2.2)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print per stage (default: 20)")
    args = parser.parse_args()

    from repro.atoms.toy import cscl_binary
    from repro.core.fragment_task import (
        get_task_problem, resolve_screening_potential, solve_fragment_task)
    from repro.core.patching import patch_fragment_fields, restrict_to_fragment
    from repro.core.scf import LS3DFSCF
    from repro.pw.eigensolver import _low_kinetic_block, all_band_cg

    cells = tuple(args.cells)
    structure = cscl_binary(cells, "Zn", "O", 6.0)
    scf = LS3DFSCF(
        structure,
        grid_dims=cells,
        ecut=args.ecut,
        buffer_cells=0.5,
        n_empty=2,
        mixer="kerker",
    )
    print(
        f"problem: {len(structure.symbols)} atoms, {scf.nfragments} fragments, "
        f"global grid {scf.division.global_grid.shape}, ecut {args.ecut} Ha"
    )
    v_in = scf.genpot.initial_potential()

    # Gen_VF: restrict the global potential to every fragment box and
    # build the picklable solve tasks.  The SCF loop runs the same
    # arithmetic fused into one task per fragment; here the stage kernels
    # run one after another so each gets its own profile.
    def gen_vf(potential, initial=None):
        tasks = []
        for i, fragment in enumerate(scf.fragments):
            restricted = restrict_to_fragment(scf.division, fragment, potential)
            tasks.append(
                scf.fragment_solver.make_task(
                    fragment, restricted,
                    eigensolver_tolerance=1e-4, eigensolver_iterations=40,
                    initial_coefficients=None if initial is None else initial[i],
                )
            )
        return tasks

    tasks = profile_stage("Gen_VF", lambda: gen_vf(v_in), args.top)
    report_fft_passes(scf.fragment_solver.problems().values())

    # PEtot_F: the per-fragment Kohn-Sham solves (the dominant stage).
    solves = []

    def petot_f(tasks):
        results = []
        for task in tasks:
            problem = get_task_problem(task)
            nbands, cold = problem.nbands, task.initial_coefficients is None
            n0 = nbands + (len(_low_kinetic_block(problem.basis, nbands)) if cold else 0)
            before = problem.hamiltonian.counter.n_apply
            results.append(solve_fragment_task(task, problem))
            rows = problem.hamiltonian.counter.n_apply - before
            solves.append(
                ("cold" if cold else "warm", n0, nbands, results[-1].solver_iterations, rows))
        return results

    def add_guards(tasks):
        """The last ``len(tasks)`` solves again, waiting for every band: the
        gated and the every-band iteration are the same statements until the
        gate fires."""
        for i, task in enumerate(tasks, len(solves) - len(tasks)):
            h = get_task_problem(task).hamiltonian
            h.set_effective_potential(resolve_screening_potential(task))
            before = h.counter.n_apply
            every = all_band_cg(
                h, solves[i][2], initial=task.initial_coefficients,
                max_iterations=task.max_iterations, tolerance=task.tolerance)
            rows = h.counter.n_apply - before
            solves[i] += (every.iterations - solves[i][3], rows - solves[i][4])

    results = profile_stage("PEtot_F", lambda: petot_f(tasks), args.top)
    add_guards(tasks)

    # Gen_dens: patch the weighted fragment densities into the global one.
    def gen_dens():
        return patch_fragment_fields(
            scf.division, scf.fragments, [r.density for r in results]
        )

    density = profile_stage("Gen_dens", gen_dens, args.top)

    # GENPOT: global Poisson + XC + mixing.
    def genpot():
        return scf.genpot.evaluate(density, v_in)

    out = profile_stage("GENPOT", genpot, args.top)
    # The next iteration's solves (outside the profiles): the orbitals just
    # found, in the mixed potential.
    warm = gen_vf(out.next_input_potential, [r.coefficients for r in results])
    petot_f(warm)
    add_guards(warm)
    report_applications([t.label for t in tasks + warm], solves)
    print(
        "\nconvergence metric after one iteration: "
        f"{out.potential_difference:.6e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
