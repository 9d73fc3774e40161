"""Tests for the parallel-machine substrate (machines, groups, scheduler,
flop counts, communication model, performance model, Amdahl fits)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fragments import enumerate_fragments
from repro.parallel.amdahl import (
    amdahl_performance,
    amdahl_speedup,
    fit_amdahl,
    measured_intra_group_efficiency,
)
from repro.parallel.comm import CommScheme, CommunicationModel
from repro.parallel.flops import LS3DFWorkload
from repro.parallel.groups import GroupDecomposition
from repro.parallel.machine import FRANKLIN, INTREPID, JAGUAR, machine_by_name
from repro.parallel.perfmodel import DirectDFTCostModel, LS3DFPerformanceModel
from repro.parallel.scheduler import FragmentScheduler


# --- machines -----------------------------------------------------------------

def test_machine_peaks_match_paper():
    # Paper: Franklin 101.5 Tflop/s, Jaguar ~263, Intrepid 556.
    assert FRANKLIN.peak_tflops() == pytest.approx(101.5, rel=0.03)
    assert JAGUAR.peak_tflops() == pytest.approx(263.0, rel=0.03)
    assert INTREPID.peak_tflops() == pytest.approx(556.0, rel=0.03)


def test_machine_lookup_and_validation():
    assert machine_by_name("franklin").name == "Franklin"
    with pytest.raises(KeyError):
        machine_by_name("Summit")
    with pytest.raises(ValueError):
        FRANKLIN.peak_tflops(10**9)


# --- groups ----------------------------------------------------------------------

def test_group_decomposition_basics():
    d = GroupDecomposition(17280, 40)
    assert d.ngroups == 432
    with pytest.raises(ValueError):
        GroupDecomposition(100, 7)


def test_intra_group_efficiency_decreases_with_np():
    effs = [
        GroupDecomposition(busy * 960, busy).intra_group_efficiency(JAGUAR.core_peak_gflops)
        for busy in (10, 20, 40, 80)
    ]
    assert all(np.diff(effs) <= 0)
    assert effs[0] > 0.95
    assert effs[-1] < effs[1]


# --- workload / flops ---------------------------------------------------------------

def test_workload_counts_follow_paper_conventions():
    wl = LS3DFWorkload((8, 6, 9))
    assert wl.natoms == 3456
    assert wl.ncells == 432
    assert wl.nfragments == 8 * 432
    assert wl.global_grid_points == 432 * 40**3


def test_fragment_work_scales_with_size():
    wl = LS3DFWorkload((4, 4, 4))
    small = wl.fragment_work((1, 1, 1))
    large = wl.fragment_work((2, 2, 2))
    assert large.flops_per_iteration > small.flops_per_iteration
    assert large.nbands == pytest.approx(8 * small.nbands / 1.0, rel=0.01) or large.nbands > small.nbands


def test_total_flops_scale_linearly_with_system_size():
    f1 = LS3DFWorkload((4, 4, 4)).total_flops_per_iteration()
    f2 = LS3DFWorkload((8, 4, 4)).total_flops_per_iteration()
    assert f2 == pytest.approx(2.0 * f1, rel=0.02)


def test_flops_per_iteration_magnitude_matches_paper():
    # Paper: 31.35 Tflop/s * ~60 s/iteration ~ 1.9e15 flops for 3,456 atoms.
    wl = LS3DFWorkload((8, 6, 9), grid_per_cell=40, ecut_ry=50)
    total = wl.total_flops_per_iteration()
    assert 0.8e15 < total < 4e15


# --- scheduler ----------------------------------------------------------------------

def test_scheduler_balances_homogeneous_costs():
    sched = FragmentScheduler()
    summary = sched.schedule_by_costs([1.0] * 64, ngroups=8)
    assert summary.imbalance == pytest.approx(1.0)
    assert all(len(a) == 8 for a in summary.assignments)


def test_scheduler_with_fragment_objects_and_workload():
    wl = LS3DFWorkload((2, 2, 2))
    frags = enumerate_fragments((2, 2, 2))
    sched = FragmentScheduler(wl)
    summary = sched.schedule(frags, ngroups=8)
    # Every corner's 8 fragments have the same total cost -> good balance.
    assert summary.imbalance < 1.15
    assert sum(len(a) for a in summary.assignments) == len(frags)


def test_scheduler_validation():
    sched = FragmentScheduler()
    with pytest.raises(ValueError):
        sched.schedule_by_costs([1.0], ngroups=0)
    with pytest.raises(ValueError):
        sched.schedule_by_costs([-1.0], ngroups=1)


@settings(max_examples=25, deadline=None)
@given(
    ncosts=st.integers(min_value=1, max_value=60),
    ngroups=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
@example(ncosts=12, ngroups=7, seed=206)  # 1.343x the lower bound, and right
def test_property_lpt_schedule_bounds(ncosts, ngroups, seed):
    """List scheduling: makespan <= mean + (1 - 1/m) * max_cost.

    Graham's 4/3 is against the *optimal* makespan, which can sit well
    above the lower bound max(mean, max_cost) used here.
    """
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.1, 10.0, size=ncosts)
    summary = FragmentScheduler().schedule_by_costs(costs, ngroups)
    mean = costs.sum() / ngroups
    assert summary.makespan <= mean + (1.0 - 1.0 / ngroups) * costs.max() + 1e-9
    assert summary.makespan >= max(mean, costs.max()) - 1e-9


# --- communication -------------------------------------------------------------------

def test_comm_schemes_ranked_as_in_paper():
    """file I/O slower than collectives, collectives slower than isend/irecv
    at scale — the paper's three optimisation generations."""
    wl = LS3DFWorkload((10, 10, 8))
    data = wl.gen_vf_data_bytes()
    cores = 8000
    t_file = CommunicationModel(FRANKLIN, CommScheme.FILE_IO).transfer_time(data, cores)
    t_coll = CommunicationModel(FRANKLIN, CommScheme.COLLECTIVE).transfer_time(data, cores)
    t_p2p = CommunicationModel(FRANKLIN, CommScheme.POINT_TO_POINT).transfer_time(data, cores)
    assert t_file > t_coll > t_p2p


def test_comm_validation_and_allreduce():
    comm = CommunicationModel(FRANKLIN)
    with pytest.raises(ValueError):
        comm.transfer_time(-1.0, 10)
    with pytest.raises(ValueError):
        comm.transfer_time(1.0, 0)
    assert comm.allreduce_time(1e6, 1024) > 0
    assert comm.barrier_time(1024) > 0


# --- performance model ------------------------------------------------------------------

def test_perfmodel_percent_peak_in_paper_range():
    wl = LS3DFWorkload((8, 6, 9), grid_per_cell=40, ecut_ry=50)
    model = LS3DFPerformanceModel(FRANKLIN, wl, CommScheme.COLLECTIVE)
    low = model.evaluate(1080, 40)
    high = model.evaluate(17280, 40)
    # Paper: 40.5% at 1,080 cores, 34.9% at 17,280 cores.
    assert 36.0 < low.percent_peak < 45.0
    assert 29.0 < high.percent_peak < 39.0
    assert low.percent_peak > high.percent_peak
    assert high.tflops > low.tflops


def test_perfmodel_intrepid_largest_run_matches_headline():
    # Paper headline: 107.5 Tflop/s on 131,072 Intrepid cores (24.2% peak).
    wl = LS3DFWorkload((16, 16, 8), grid_per_cell=32, ecut_ry=40)
    p = LS3DFPerformanceModel(INTREPID, wl, CommScheme.POINT_TO_POINT).evaluate(131072, 64)
    assert 80.0 < p.tflops < 140.0
    assert 20.0 < p.percent_peak < 30.0


def test_perfmodel_weak_scaling_is_nearly_flat():
    points = []
    for dims, cores in [((4, 4, 4), 4096), ((8, 8, 4), 16384), ((8, 8, 8), 32768)]:
        wl = LS3DFWorkload(dims, grid_per_cell=32, ecut_ry=40)
        points.append(
            LS3DFPerformanceModel(INTREPID, wl, CommScheme.POINT_TO_POINT).evaluate(cores, 64)
        )
    eff = [p.percent_peak for p in points]
    assert max(eff) - min(eff) < 5.0
    # Total Tflop/s grows nearly linearly with cores.
    assert points[-1].tflops / points[0].tflops == pytest.approx(8.0, rel=0.2)


def test_perfmodel_breakdown_dominated_by_petot_f():
    wl = LS3DFWorkload((8, 8, 8), grid_per_cell=32, ecut_ry=40)
    b = LS3DFPerformanceModel(INTREPID, wl).iteration_breakdown(32768, 64)
    assert b["PEtot_F"] > 10 * (b["Gen_VF"] + b["Gen_dens"])
    assert b["GENPOT"] < b["PEtot_F"]


def test_perfmodel_np80_less_efficient_than_np40_on_jaguar():
    wl = LS3DFWorkload((8, 8, 6))
    model = LS3DFPerformanceModel(JAGUAR, wl, CommScheme.COLLECTIVE)
    p40 = model.evaluate(15360, 40)
    p80 = model.evaluate(30720, 80)
    assert p80.percent_peak < p40.percent_peak


def test_perfmodel_validation():
    wl = LS3DFWorkload((2, 2, 2))
    model = LS3DFPerformanceModel(FRANKLIN, wl)
    with pytest.raises(ValueError):
        model.iteration_breakdown(100, 7)


# --- direct O(N^3) comparison ---------------------------------------------------------------

def test_direct_cost_model_cubic_scaling():
    model = DirectDFTCostModel()
    t1 = model.time_per_iteration(512, 320)
    t2 = model.time_per_iteration(1024, 320)
    assert t2 == pytest.approx(8.0 * t1, rel=1e-9)
    assert model.time_per_iteration(512, 640) == pytest.approx(t1 / 2.0)
    assert model.time_to_converge(512, 320, 60) == pytest.approx(60 * t1)


def test_ls3df_speedup_and_crossover_shape():
    """Paper: crossover ~600 atoms; ~400x faster at 13,824 atoms."""
    direct = DirectDFTCostModel()
    wl = LS3DFWorkload((12, 12, 12), grid_per_cell=40)
    model = LS3DFPerformanceModel(FRANKLIN, wl, CommScheme.COLLECTIVE)
    speedup = direct.speedup_of_ls3df(model, 17280, 10)
    assert 200 < speedup < 1000
    crossover = direct.crossover_atoms(FRANKLIN, 320, 20)
    assert 200 < crossover < 1500


# --- Amdahl -----------------------------------------------------------------------------

def test_measured_intra_group_efficiency_helper():
    assert measured_intra_group_efficiency(2.0, 1.0, 4) == pytest.approx(0.5)
    assert measured_intra_group_efficiency(0.0, 1.0, 4) == 0.0
    assert measured_intra_group_efficiency(1.0, 0.0, 4) == 0.0
    with pytest.raises(ValueError):
        measured_intra_group_efficiency(-1.0, 1.0, 4)


def test_amdahl_speedup_limits():
    assert amdahl_speedup(1, 0.01) == pytest.approx(1.0)
    assert amdahl_speedup(10**9, 0.01) == pytest.approx(100.0, rel=1e-3)
    with pytest.raises(ValueError):
        amdahl_speedup(8, -0.1)


def test_fit_amdahl_recovers_injected_parameters():
    cores = np.array([1080, 2160, 4320, 8640, 17280], dtype=float)
    p_s, alpha = 2.4e-3, 1.0e-5  # Tflop/s per core, serial fraction
    perf = amdahl_performance(cores, p_s, alpha)
    fit = fit_amdahl(cores, perf)
    assert fit.single_core_performance == pytest.approx(p_s, rel=1e-4)
    assert fit.serial_fraction == pytest.approx(alpha, rel=1e-3)
    assert fit.mean_absolute_relative_deviation < 1e-6
    assert fit.inverse_serial_fraction == pytest.approx(1.0 / alpha, rel=1e-3)


def test_fit_amdahl_on_model_strong_scaling_is_tight():
    """The model's strong-scaling curve must be well described by Amdahl's
    law, as the paper found (mean deviation 0.26%)."""
    wl = LS3DFWorkload((8, 6, 9))
    model = LS3DFPerformanceModel(FRANKLIN, wl, CommScheme.COLLECTIVE)
    cores = [1080, 2160, 4320, 8640, 17280]
    perf = [model.evaluate(c, 40).tflops for c in cores]
    fit = fit_amdahl(np.array(cores, float), np.array(perf))
    assert fit.mean_absolute_relative_deviation < 0.05
    assert fit.serial_fraction < 1e-3


_IMPORT_HYGIENE_SCRIPT = """
import sys
import repro, repro.core, repro.parallel.remote, repro.store.server
assert "scipy.optimize" not in sys.modules, "scipy.optimize imported at package import"
from repro.parallel.amdahl import amdahl_performance, fit_amdahl
import numpy as np
cores = np.array([2.0, 4.0, 8.0])
fit_amdahl(cores, amdahl_performance(cores, 1.0, 0.01))
assert "scipy.optimize" in sys.modules, "the fit no longer goes through scipy.optimize"
"""


def test_importing_the_package_does_not_import_scipy_optimize():
    """Every driver, pool worker, ``repro-worker`` and daemon imports the
    package; scipy.optimize (~0.45 s, ~40 MB) is only for the VFF relaxer
    and the Amdahl fit, which import it when called."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_HYGIENE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fit_amdahl_validation():
    with pytest.raises(ValueError):
        fit_amdahl(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_amdahl(np.array([1.0, -2.0]), np.array([1.0, 2.0]))
