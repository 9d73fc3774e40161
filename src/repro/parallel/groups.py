"""Processor-group decomposition for the fragment solves.

LS3DF assigns each fragment to a *group* of ``Np`` cores; the ``Ng``
groups work on disjoint sets of fragments completely independently (no
inter-group communication inside PEtot_F), which is the source of the
method's near-perfect parallel scaling.  Within a group, PEtot_F
parallelises over the plane-wave (q-space) index, whose efficiency drops
once Np exceeds the amount of exploitable data parallelism — the reason
the paper settles on Np = 40 for the Cray systems and observes reduced
efficiency at Np = 80 (Jaguar, third test case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GroupDecomposition:
    """A decomposition of ``total_cores`` into ``Ng`` groups of ``Np`` cores.

    Attributes
    ----------
    total_cores:
        Number of cores devoted to the fragment solves.
    cores_per_group:
        Np, the number of cores per group.
    """

    total_cores: int
    cores_per_group: int

    def __post_init__(self) -> None:
        if self.total_cores <= 0 or self.cores_per_group <= 0:
            raise ValueError("core counts must be positive")
        if self.total_cores % self.cores_per_group != 0:
            raise ValueError(
                f"{self.total_cores} cores do not divide into groups of "
                f"{self.cores_per_group}"
            )

    @property
    def ngroups(self) -> int:
        """Ng, the number of independent fragment groups."""
        return self.total_cores // self.cores_per_group

    # ------------------------------------------------------------------
    def intra_group_efficiency(
        self,
        core_peak_gflops: float,
        saturation_gflops: float = 1600.0,
    ) -> float:
        """Parallel efficiency of one fragment solve on Np cores.

        PEtot_F distributes the plane-wave coefficients over the Np cores
        of the group; every conjugate-gradient step performs group-wide
        reductions (dot products, subspace matrices) whose relative cost
        grows with the group's aggregate compute rate ``Np * peak``.  The
        empirical form

            eff(Np) = 1 / (1 + (Np * peak / saturation)^2)

        reproduces the behaviour the paper reports: essentially flat
        efficiency for Np <= 40 on the Cray systems, a clear drop at
        Np = 80 (Jaguar third test case), and only a mild penalty at
        Np = 64 on the slower BlueGene/P cores.

        Returns a value in (0, 1].
        """
        if core_peak_gflops <= 0:
            raise ValueError("core_peak_gflops must be positive")
        x = self.cores_per_group * core_peak_gflops / saturation_gflops
        return float(np.clip(1.0 / (1.0 + x * x), 0.05, 1.0))
