"""Machine descriptions of the paper's three evaluation platforms.

The numbers are taken from the paper's Section VI and public system
documentation of the era:

* **Franklin** (NERSC, Cray XT4): 9,660 nodes x 2 cores of 2.6 GHz AMD
  Opteron (4 flops/cycle with SSE2 FMA-less dual-issue), 4 GB/node,
  SeaStar2 3D-torus interconnect; 101.5 Tflop/s peak.
* **Jaguar** (NCCS, Cray XT4): 7,832 nodes x 4 cores of 2.1 GHz AMD
  Opteron (quad-core Budapest), 8 GB/node; ~263 Tflop/s peak.
* **Intrepid** (ALCF, BlueGene/P): 40,960 nodes x 4 cores of 0.85 GHz
  PowerPC 450d (4 flops/cycle double hummer), 2 GB/node; 556 Tflop/s peak.

The efficiency factors encode how much of per-core peak a well-optimised
dense-linear-algebra-heavy plane-wave kernel sustains on each platform:
the paper reports ~40% of peak on Franklin, ~26% on Jaguar and ~31% on
Intrepid at the per-group level (before parallel overheads).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Machine:
    """A parallel machine description used by the performance model.

    Attributes
    ----------
    name:
        Machine name ("Franklin", "Jaguar", "Intrepid").
    total_cores:
        Number of cores in the full system.
    cores_per_node:
        Cores sharing a node (and its NIC).
    clock_ghz:
        Core clock in GHz.
    flops_per_cycle:
        Double-precision flops per cycle per core at peak.
    memory_per_core_gb:
        Memory per core (GB) — the constraint that forced the paper to a
        40 Ry / 32^3-grid setup on Intrepid.
    network_latency_us:
        Point-to-point message latency (microseconds).
    network_bandwidth_gbs:
        Per-link bandwidth (GB/s).
    kernel_efficiency:
        Fraction of per-core peak sustained by the PEtot_F compute kernel
        (BLAS-3 dominated) on this machine for production fragment sizes.
    small_fragment_efficiency:
        Same, but for the smallest (1x1x1) fragments whose matrices are too
        small to reach asymptotic BLAS-3 rates.
    file_io_bandwidth_gbs:
        Aggregate filesystem bandwidth (GB/s) — used only by the legacy
        file-I/O communication scheme of the early LS3DF versions.
    """

    name: str
    total_cores: int
    cores_per_node: int
    clock_ghz: float
    flops_per_cycle: int
    memory_per_core_gb: float
    network_latency_us: float
    network_bandwidth_gbs: float
    kernel_efficiency: float
    small_fragment_efficiency: float
    file_io_bandwidth_gbs: float = 10.0

    def __post_init__(self) -> None:
        if self.total_cores <= 0 or self.cores_per_node <= 0:
            raise ValueError("core counts must be positive")
        if not 0 < self.kernel_efficiency <= 1:
            raise ValueError("kernel_efficiency must be in (0, 1]")
        if not 0 < self.small_fragment_efficiency <= 1:
            raise ValueError("small_fragment_efficiency must be in (0, 1]")

    # ------------------------------------------------------------------
    @property
    def core_peak_gflops(self) -> float:
        """Per-core peak (Gflop/s)."""
        return self.clock_ghz * self.flops_per_cycle

    def peak_tflops(self, cores: int | None = None) -> float:
        """Aggregate peak (Tflop/s) of ``cores`` cores (default: whole system)."""
        n = self.total_cores if cores is None else cores
        if n <= 0 or n > self.total_cores:
            raise ValueError(
                f"core count {n} outside the machine's range (1..{self.total_cores})"
            )
        return n * self.core_peak_gflops / 1000.0


# The three evaluation platforms of the paper.
FRANKLIN = Machine(
    name="Franklin",
    total_cores=19_320,
    cores_per_node=2,
    clock_ghz=2.6,
    flops_per_cycle=2,
    memory_per_core_gb=2.0,
    network_latency_us=8.0,
    network_bandwidth_gbs=2.0,
    kernel_efficiency=0.42,
    small_fragment_efficiency=0.38,
    file_io_bandwidth_gbs=12.0,
)

JAGUAR = Machine(
    name="Jaguar",
    total_cores=31_328,
    cores_per_node=4,
    clock_ghz=2.1,
    flops_per_cycle=4,
    memory_per_core_gb=2.0,
    network_latency_us=7.0,
    network_bandwidth_gbs=2.0,
    kernel_efficiency=0.285,
    small_fragment_efficiency=0.25,
    file_io_bandwidth_gbs=18.0,
)

INTREPID = Machine(
    name="Intrepid",
    total_cores=163_840,
    cores_per_node=4,
    clock_ghz=0.85,
    flops_per_cycle=4,
    memory_per_core_gb=0.5,
    network_latency_us=3.0,
    network_bandwidth_gbs=0.425,
    kernel_efficiency=0.33,
    small_fragment_efficiency=0.30,
    file_io_bandwidth_gbs=8.0,
)

_MACHINES = {m.name.lower(): m for m in (FRANKLIN, JAGUAR, INTREPID)}


def machine_by_name(name: str) -> Machine:
    """Look up one of the paper's machines by (case-insensitive) name.

    Parameters
    ----------
    name:
        ``"franklin"``, ``"jaguar"`` or ``"intrepid"`` (any case).

    Returns
    -------
    Machine
        The matching description; ``KeyError`` (listing the valid names)
        for anything else.
    """
    try:
        return _MACHINES[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown machine {name!r}; available: {sorted(_MACHINES)}"
        ) from exc
