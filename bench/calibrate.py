"""Host-speed reference: a fixed numpy kernel run beside the timed runs.

The build host is a few cores of a shared machine.  For minutes at a time a
neighbour slows every process on it by 10-35 %, CPU seconds rising with
wall seconds for bit-identical work, so raw seconds of two invocations of
the same code do not compare.  The harness therefore times this kernel —
batched complex FFTs and small GEMMs, the instruction mix of ``repro.pw``,
but no ``repro`` code — before and after every timed run, in as many
concurrent helper processes as the workload keeps busy, and reports every
time as ``seconds x NOMINAL_BURST_S / measured burst``: seconds at the
speed of a quiet host.  A change to ``repro`` cannot move the kernel; a slow
spell moves it and the run alike.

``python -m bench.calibrate CPU`` is the helper: pinned to that CPU, for every
line on stdin it runs ``BURSTS`` bursts and answers with their mean wall and
CPU seconds; it exits at end of input.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from bench.env import REPO_ROOT, child_environment

#: One burst on the quiet 2-core build host, measured once and frozen: the
#: speed every reported second is scaled to.  Only its being constant matters.
NOMINAL_BURST_S = 0.031

#: Bursts per helper per sample.
BURSTS = 5

_FFT_SHAPE = (8, 20, 20, 40)
_GEMM_N = 160


def _operands() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(11)
    field = rng.standard_normal(_FFT_SHAPE) + 1j * rng.standard_normal(_FFT_SHAPE)
    matrix = rng.standard_normal((_GEMM_N, _GEMM_N)) / _GEMM_N
    return field, matrix


def burst(field: np.ndarray, matrix: np.ndarray) -> float:
    """Wall seconds of one fixed piece of work (about 30 ms)."""
    t0 = time.perf_counter()
    for _ in range(5):
        spectrum = np.fft.fftn(field, axes=(1, 2, 3))
        spectrum *= 0.5
        field = np.fft.ifftn(spectrum, axes=(1, 2, 3))
        product = matrix
        for _ in range(12):
            product = product @ matrix
    return time.perf_counter() - t0


def helper_main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    field, matrix = _operands()
    burst(field, matrix)  # FFT plans, BLAS start-up
    print("READY", flush=True)
    for _ in sys.stdin:
        cpu0 = time.process_time()
        wall = sum(burst(field, matrix) for _ in range(BURSTS))
        print(json.dumps([wall / BURSTS, (time.process_time() - cpu0) / BURSTS]), flush=True)
    return 0


class Calibrator:
    """``procs`` helper processes, one pinned to each CPU, that run the kernel at the same moment."""

    def __init__(self, procs: int) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.helpers = []
        for i in range(procs):
            self.helpers.append(subprocess.Popen(
                [sys.executable, "-m", "bench.calibrate", str(cpus[i % len(cpus)])], cwd=REPO_ROOT,
                env=child_environment(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for helper in self.helpers:
            if helper.stdout.readline().strip() != "READY":
                self.close()
                raise RuntimeError("calibration helper failed to start")

    def sample(self) -> tuple[float, float]:
        """``(wall, cpu)`` seconds per burst, averaged over the helpers.

        Means, not medians: a helper that loses its core for a time slice
        has one long burst, and that loss is what is being measured.
        """
        for helper in self.helpers:
            helper.stdin.write("go\n")
            helper.stdin.flush()
        answers = [json.loads(helper.stdout.readline()) for helper in self.helpers]
        return statistics.fmean(a[0] for a in answers), statistics.fmean(a[1] for a in answers)

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()  # end of input: the helper returns
        for helper in self.helpers:
            try:
                helper.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


if __name__ == "__main__":
    raise SystemExit(helper_main(int(sys.argv[1])))
