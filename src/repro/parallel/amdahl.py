"""Amdahl's-law analysis of the strong-scaling data (paper Figure 3).

The paper fits its strong-scaling measurements to

    P_p = P_s * n / (1 + (n - 1) * alpha)

where ``P_p`` is the parallel performance on ``n`` cores, ``P_s`` the
effective single-core performance and ``alpha`` the serial fraction.  The
fit quality reported is an average absolute relative deviation of 0.26%
with serial fractions of 1/362,000 (PEtot_F) and 1/101,000 (LS3DF overall).
This module provides the model function and the least-squares fit used by
the Figure-3 benchmark, plus the *measured* serial fraction extracted from
real per-iteration LS3DF timings: alpha = t_serial / (t_serial + t_par),
where ``t_serial`` is the time spent in the driver's unparallelised code
(the serial Gen_VF / Gen_dens loops — gone when the fused fragment
pipeline is on — and GENPOT) and ``t_par`` the serial-equivalent cost of
the embarrassingly parallel per-fragment work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def amdahl_speedup(n: np.ndarray | float, alpha: float) -> np.ndarray | float:
    """Speedup of ``n`` cores for serial fraction ``alpha`` (Amdahl's law).

    Parameters
    ----------
    n:
        Core count(s); scalar or array.
    alpha:
        Serial fraction in [0, 1].

    Returns
    -------
    np.ndarray | float
        ``n / (1 + (n - 1) alpha)``, matching the input's shape (a float
        for scalar input).
    """
    n = np.asarray(n, dtype=float)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    out = n / (1.0 + (n - 1.0) * alpha)
    return out if out.ndim else float(out)


def amdahl_performance(
    n: np.ndarray | float, single_core_performance: float, alpha: float
) -> np.ndarray | float:
    """Aggregate performance  P_p = P_s * n / (1 + (n-1) alpha)."""
    return single_core_performance * amdahl_speedup(n, alpha)


@dataclass
class AmdahlFit:
    """Result of fitting Amdahl's law to measured performance data.

    Attributes
    ----------
    single_core_performance:
        Fitted P_s (same unit as the input performance values).
    serial_fraction:
        Fitted alpha.
    mean_absolute_relative_deviation:
        The paper's fit-quality metric, mean |P_fit / P_meas - 1|.
    max_absolute_relative_deviation:
        The worst-case deviation.
    """

    single_core_performance: float
    serial_fraction: float
    mean_absolute_relative_deviation: float
    max_absolute_relative_deviation: float

    @property
    def inverse_serial_fraction(self) -> float:
        """1 / alpha — the form the paper quotes (e.g. 1/101,000)."""
        if self.serial_fraction <= 0:
            return float("inf")
        return 1.0 / self.serial_fraction


def fit_amdahl(cores: np.ndarray, performance: np.ndarray) -> AmdahlFit:
    """Least-squares fit of Amdahl's law to (cores, performance) data.

    Parameters
    ----------
    cores:
        Core counts of the measurements (>= 2 distinct values required).
    performance:
        Measured aggregate performance (e.g. Tflop/s) at those core counts.

    Returns
    -------
    AmdahlFit
    """
    cores = np.asarray(cores, dtype=float)
    performance = np.asarray(performance, dtype=float)
    if cores.shape != performance.shape or cores.size < 2:
        raise ValueError("need at least two (cores, performance) points")
    if np.any(cores <= 0) or np.any(performance <= 0):
        raise ValueError("cores and performance must be positive")

    # Initial guesses: P_s from the smallest run, alpha tiny.
    p_s0 = performance[np.argmin(cores)] / cores[np.argmin(cores)]
    x0 = np.array([p_s0, 1e-5])

    def residuals(x: np.ndarray) -> np.ndarray:
        p_s, alpha = x
        alpha = abs(alpha)
        model = amdahl_performance(cores, p_s, alpha)
        return (model - performance) / performance

    # Imported on use: scipy.optimize costs ~0.45 s and ~40 MB, and every
    # driver, pool worker and daemon imports this package.
    from scipy.optimize import least_squares

    sol = least_squares(residuals, x0, method="lm", max_nfev=10_000)
    p_s, alpha = float(sol.x[0]), float(abs(sol.x[1]))
    rel_dev = np.abs(amdahl_performance(cores, p_s, alpha) / performance - 1.0)
    return AmdahlFit(
        single_core_performance=p_s,
        serial_fraction=alpha,
        mean_absolute_relative_deviation=float(np.mean(rel_dev)),
        max_absolute_relative_deviation=float(np.max(rel_dev)),
    )


# ---------------------------------------------------------------------------
# Measured serial fraction (from real per-iteration LS3DF timings)


@dataclass
class SerialFractionEstimate:
    """Serial fraction measured from one LS3DF iteration's timings.

    Attributes
    ----------
    serial_fraction:
        alpha = serial_time / (serial_time + parallel_time).
    serial_time:
        Wall-clock seconds of the driver's unparallelised work in the
        iteration: Gen_VF task building and the Gen_dens tree-reduce
        residue, GENPOT and checkpoint I/O when enabled.
    parallel_time:
        Serial-equivalent seconds of the executor-distributable work
        (summed per-fragment wall times of the fused tasks, which
        include the in-worker restrict and patch steps).
    """

    serial_fraction: float
    serial_time: float
    parallel_time: float

    @property
    def inverse_serial_fraction(self) -> float:
        """1 / alpha — the form the paper quotes (e.g. 1/101,000)."""
        if self.serial_fraction <= 0:
            return float("inf")
        return 1.0 / self.serial_fraction

    @property
    def max_speedup(self) -> float:
        """Amdahl's limit for this alpha: lim_{n->inf} speedup = 1/alpha."""
        return self.inverse_serial_fraction


def measured_serial_fraction(
    serial_time: float, parallel_time: float
) -> SerialFractionEstimate:
    """Serial fraction from measured serial and parallelisable times.

    Parameters
    ----------
    serial_time:
        Driver-side unparallelised seconds of one iteration
        (``IterationTimings.serial_time``: Gen_VF/Gen_dens residues, the
        serial GENPOT share and checkpoint I/O).
    parallel_time:
        Serial-equivalent seconds of the executor-distributable work
        (``IterationTimings.petot_f_cpu``).

    Returns
    -------
    SerialFractionEstimate
        alpha = serial / (serial + parallel) with both inputs recorded.
    """
    if serial_time < 0 or parallel_time < 0:
        raise ValueError("times must be non-negative")
    total = serial_time + parallel_time
    alpha = serial_time / total if total > 0 else 0.0
    return SerialFractionEstimate(
        serial_fraction=alpha,
        serial_time=float(serial_time),
        parallel_time=float(parallel_time),
    )


def serial_fraction_history(timings: Sequence) -> list[SerialFractionEstimate]:
    """Measured serial fraction of every iteration of an LS3DF run.

    Parameters
    ----------
    timings:
        A sequence of objects with ``serial_time`` and ``petot_f_cpu``
        attributes —
        :class:`repro.core.scf.IterationTimings` as recorded in
        ``LS3DFResult.timings`` (duck-typed here to keep this module
        free of core imports).

    Returns
    -------
    list[SerialFractionEstimate]
        One estimate per iteration, in order.
    """
    return [
        measured_serial_fraction(t.serial_time, t.petot_f_cpu)
        for t in timings
    ]


def measured_intra_group_efficiency(
    task_cpu: float, wall_time: float, nslices: int
) -> float:
    """Measured intra-group efficiency of one group's shared solve.

    The paper's two-level hierarchy gives each fragment group Np cores;
    the efficiency of one fragment solve on those Np cores is what
    :meth:`repro.parallel.groups.GroupDecomposition.intra_group_efficiency`
    *models*.  This is the measured counterpart, for timings taken
    anywhere (no backend here splits one solve over several workers):

        eff = task_cpu / (nslices * wall_time)

    so 1.0 means all ``nslices`` workers were busy the whole time; the
    gap is the group-wide reductions plus dispatch overhead, which erode
    the paper's efficiency at Np = 80.

    Parameters
    ----------
    task_cpu:
        Summed seconds the group's workers spent on the solve's work.
    wall_time:
        Wall-clock seconds of the solve.
    nslices:
        Workers that could run that work at once (Np, or Np x G when G
        groups run side by side).

    Returns
    -------
    float
        The measured efficiency (0.0 for degenerate inputs).
    """
    if task_cpu < 0:
        raise ValueError("task_cpu must be non-negative")
    if wall_time <= 0 or nslices <= 0:
        return 0.0
    return task_cpu / (nslices * wall_time)


def sharded_genpot_estimate(
    estimate: SerialFractionEstimate,
    genpot_time: float,
    conversion_time: float = 0.0,
) -> SerialFractionEstimate:
    """Predicted serial fraction after sharding the GENPOT global step.

    The paper's dual-layout design moves the Poisson/XC/mixing work of
    the global step onto the 1D slab decomposition (parallel bucket) but
    charges the fragment<->slab layout conversion to what remains serial:

        alpha' = (t_serial - t_genpot + t_conv) / (t_total + t_conv)

    Parameters
    ----------
    estimate:
        Measured serial fraction with the serial global step (``genpot``
        included in its ``serial_time``).
    genpot_time:
        The GENPOT wall time contained in ``estimate.serial_time`` that
        sharding moves to the parallel bucket.
    conversion_time:
        Layout-conversion cost charged back to the serial bucket (see
        :meth:`repro.parallel.comm.CommunicationModel.layout_conversion_time`).
    """
    if genpot_time < 0 or conversion_time < 0:
        raise ValueError("times must be non-negative")
    if genpot_time > estimate.serial_time:
        raise ValueError("genpot_time exceeds the measured serial time")
    return measured_serial_fraction(
        estimate.serial_time - genpot_time + conversion_time,
        estimate.parallel_time + genpot_time,
    )
