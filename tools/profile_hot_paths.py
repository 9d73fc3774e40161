#!/usr/bin/env python
"""Profile one LS3DF SCF iteration, one stage at a time.

Runs the paper's four subroutines — Gen_VF, PEtot_F, Gen_dens, GENPOT —
on a model-scale problem, each under its own ``cProfile`` session, and
prints the top-20 functions by cumulative time per stage.  This is the
measurement behind the "Hot paths and where the time goes" section of
``docs/ARCHITECTURE.md``: PEtot_F dominates, and inside it the per-band
box-restricted DFT products (``Hamiltonian.apply_local``), the nonlocal
projection GEMMs (``Hamiltonian.add_nonlocal``) and the solver's own
algebra are nearly the whole bill.  Before the stage profiles it prints,
for every distinct fragment basis, the box of the cutoff sphere and the
time of each of the six DFT products (inverse z / y / x, forward x / y / z)
of one ``apply_potential`` call on the packed rows of the band block — the
per-product split the next kernel change should start from.  After the
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
    PYTHONPATH=src python tools/profile_hot_paths.py --sweep

Everything runs on the serial backend so the profile sees the kernels
themselves, not pool plumbing.  ``--sweep`` instead times the
``apply_potential`` kernel against the dense ``ifftn`` / ``fftn`` reference
on cubic grids n = 20 ... 60 (12 Bohr cell, cutoff scaled with n^2 so the
sphere keeps its share of the grid, four packed rows), to re-measure where
the matrix products stop paying.
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


#: The six products of ``PlaneWaveBasis.apply_potential``: the basis matrix
#: each one multiplies by, in the order they run.
PRODUCTS = (
    ("_ez", "inverse z"), ("_ey_t", "inverse y"), ("_ex_t", "inverse x"),
    ("_fx", "forward x"), ("_fy", "forward y"), ("_fz_t", "forward z"),
)


def best_time(func, repeats: int, rounds: int = 5) -> float:
    """Seconds per call of ``func``: the best of ``rounds`` averages."""
    func()  # warm the workspace pool
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            func()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def time_products(basis, rows: int, repeats: int = 50) -> dict:
    """Seconds per ``apply_potential`` call on ``rows`` packed rows, by product.

    Wraps ``np.matmul`` with a clock for the duration of the measurement and
    books each call to the basis matrix it multiplies by; ``"total"`` is the
    whole kernel, so the remainder is scatter, potential and gather.
    """
    names = {id(getattr(basis, attr)): label for attr, label in PRODUCTS}
    spent = dict.fromkeys(names.values(), 0.0)
    matmul = np.matmul

    def timed(a, b, out=None):
        start = time.perf_counter()
        result = matmul(a, b, out=out)
        spent[names.get(id(a)) or names[id(b)]] += time.perf_counter() - start
        return result

    coeffs = basis.random_coefficients(rows, rng=0)
    potential = np.random.default_rng(0).standard_normal(basis.grid.shape)
    basis.apply_potential(coeffs, potential)  # warm the workspace pool
    np.matmul = timed
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            basis.apply_potential(coeffs, potential)
        total = time.perf_counter() - start
    finally:
        np.matmul = matmul
    times = {label: value / repeats for label, value in spent.items()}
    times["total"] = total / repeats
    return times


def report_products(problems) -> None:
    """One block per distinct fragment basis: box and per-product times."""
    seen = {}
    for problem in problems:
        basis = problem.basis
        seen.setdefault((basis.grid.shape, basis.npw), (basis, problem.nbands))
    print(f"\n{'=' * 72}\nbox-restricted DFT products per fragment basis\n{'=' * 72}")
    for (shape, npw), (basis, nbands) in seen.items():
        rows = -(-nbands // 2)  # the solver packs two real bands per row
        times = time_products(basis, rows)
        print(f"grid {shape}  npw {npw}  box {basis._box}  "
              f"apply_potential on {rows} packed rows ({nbands} bands)")
        for direction in ("inverse", "forward"):
            split = "  ".join(f"{label.split()[1]} {value * 1e3:.3f} ms"
                              for label, value in times.items() if label.startswith(direction))
            print(f"  {direction}  {split}")
        products = sum(v for k, v in times.items() if k != "total")
        print(f"  kernel {times['total'] * 1e3:.3f} ms, of which "
              f"{(times['total'] - products) * 1e3:.3f} ms scatter / potential / gather")


def sweep(sizes=(20, 24, 30, 36, 40, 48, 60), rows: int = 4) -> None:
    """The kernel against the dense 3-D transform as the grid grows."""
    from repro.pw.basis import PlaneWaveBasis
    from repro.pw.grid import FFTGrid

    print(f"apply_potential on {rows} packed rows vs dense ifftn/fftn, 12 Bohr cube\n"
          f"{'n':>4}{'ecut':>7}{'npw':>7}{'box':>5}{'matmul ms':>11}{'dense ms':>10}{'ratio':>7}")
    for n in sizes:
        ecut = 2.2 * (n / 20) ** 2
        basis = PlaneWaveBasis(FFTGrid((12.0, 12.0, 12.0), (n, n, n)), ecut)
        coeffs = basis.random_coefficients(rows, rng=0)
        potential = np.random.default_rng(0).standard_normal(basis.grid.shape)
        scale = basis.grid.npoints / np.sqrt(basis.grid.volume)

        def dense():
            psi = np.fft.ifftn(basis.to_grid(coeffs), axes=(-3, -2, -1)) * scale
            return basis.from_grid(np.fft.fftn(psi * potential, axes=(-3, -2, -1))) / scale

        repeats = max(2, int(2e6 / (rows * n ** 4)))
        gemm = best_time(lambda: basis.apply_potential(coeffs, potential), repeats)
        reference = best_time(dense, repeats)
        print(f"{n:>4}{ecut:>7.2f}{basis.npw:>7}{basis._box[0]:>5}{gemm * 1e3:>11.3f}"
              f"{reference * 1e3:>10.3f}{gemm / reference:>7.2f}")


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
    parser.add_argument("--sweep", action="store_true",
                        help="only time the kernel against the dense transform, n = 20 ... 60")
    args = parser.parse_args()
    if args.sweep:
        sweep()
        return 0

    from repro.atoms.toy import cscl_binary
    from repro.core.fragment_task import get_task_problem, solve_fragment_task
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
    report_products(scf.fragment_solver.build_problem(f) for f in scf.fragments)

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
            h.set_effective_potential(task.screening_potential)
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
