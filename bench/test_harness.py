"""Unit tests of the benchmark harness itself (no subprocesses, < 10 s)."""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import gen
from bench.compare import verdict
from bench.metrics import END_TO_END, GATED, PER_LAYER, RUN_SECONDS, WORKLOADS, TooFewSamples, percentile, spread
from bench.trace import TARGETS, Span, Tracer, layer_shares, self_times, summarize

ROOT = Path(__file__).resolve().parents[1]


def _span(id, name, start, end, parent=None, thread=1, layer="l"):
    return Span(id, name, layer, start, end, parent, 0, thread)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),       # overlaps a by 1 s
        _span(4, "c", 8.0, 12.0, parent=1),      # sticks out of the root by 2 s
        _span(5, "leaf", 1.5, 2.5, parent=2),
        _span(6, "other", 0.0, 7.0, thread=2),   # second thread: its own root
        _span(7, "a", 2.0, 3.0, parent=6, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[6] == pytest.approx(6.0)
    rows = summarize(spans)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["busy_s"] == pytest.approx(4.0)
    assert rows["a"]["self_s"] == pytest.approx(3.0)


def test_layer_rows_sum_to_the_root_span():
    spans = [
        _span(1, "root", 0.0, 10.0, layer="top"),
        _span(2, "a", 1.0, 4.0, parent=1, layer="x"),
        _span(3, "b", 5.0, 9.0, parent=1, layer="y"),
        _span(4, "leaf", 6.0, 7.0, parent=3, layer="x"),
        _span(5, "stray", 0.0, 3.0, thread=2, layer="x"),  # not under a root span
    ]
    shares = layer_shares(spans, "root")
    root = shares.pop("root")
    assert root == pytest.approx(10.0)
    assert sum(shares.values()) == pytest.approx(root)
    assert shares == pytest.approx({"top": 3.0, "x": 4.0, "y": 3.0})


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    samples = [float(i) for i in range(1, 241)]
    assert percentile(samples, 90) == 216.0          # 24 samples beyond it
    assert percentile(list(range(1, 101)), 90) == 90  # exactly ten beyond it
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0    # the median is always answered
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    assert spread([5.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_wrap_and_restore_leave_every_repro_attribute_identical():
    import repro.parallel  # noqa: F401  (binds several targets by name)
    import repro.store.server  # noqa: F401

    for target in TARGETS:
        importlib.import_module(target.module)

    def snapshot():
        state = {}
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                state.update({(name, key): value for key, value in vars(module).items() if callable(value)})
        for target in TARGETS:
            owner, attr = target.resolve()
            state[(target.module, target.attr)] = getattr(owner, attr)
            state[(target.module, target.attr, "own")] = attr in vars(owner)
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        patched = snapshot()
        for target in TARGETS:
            assert patched[(target.module, target.attr)] is not before[(target.module, target.attr)]
        # send_frame is imported by name into the store server: the alias moved too.
        assert patched[("repro.store.server", "send_frame")] is not before[("repro.store.server", "send_frame")]
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_every_wrapped_callable_is_public():
    for target in TARGETS:
        assert not any(part.startswith("_") for part in (*target.module.split("."), *target.attr.split(".")))


def test_wrapped_call_records_nested_spans_and_values():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", "l", value=lambda tracer, args, result: result)
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer", "l")
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].value == 2.0
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end <= by_name["outer"].end


def test_workload_inputs_are_a_pure_function_of_the_seed():
    specs, repeats = gen.service_burst(3, 1, 48, 12)
    assert (specs, repeats) == gen.service_burst(3, 1, 48, 12)
    assert (specs, repeats) != gen.service_burst(4, 1, 48, 12)
    assert specs != gen.service_burst(3, 2, 48, 12)[0]   # every run of an invocation is fresh
    assert len(specs) == 48 and sum(r is not None for r in repeats) == 12
    for i, source in enumerate(repeats):
        if source is not None:
            assert source < i and repeats[source] is None and specs[i] == specs[source]
    constants = [s["builder_args"]["lattice_constant"] for s, r in zip(specs, repeats) if r is None]
    assert len(set(constants)) == 36
    rho = gen.genpot_density(5, (8, 8, 16))
    assert np.array_equal(rho, gen.genpot_density(5, (8, 8, 16)))
    assert not np.array_equal(rho, gen.genpot_density(6, (8, 8, 16)))
    assert rho.min() > 0


def test_clock_scales_every_time_to_the_nominal_host_speed():
    from bench.calibrate import NOMINAL_BURST_S
    from bench.child import _Clock

    class TwiceAsSlow:
        def sample(self):
            return 2 * NOMINAL_BURST_S, 4 * NOMINAL_BURST_S

    result, run = _Clock(TwiceAsSlow()).timed(lambda x: x + 1, 1)
    assert result == 2
    assert run["host_slowdown"] == pytest.approx(2.0)
    assert run["wall_s"] == pytest.approx(run["raw_wall_s"] / 2)
    assert run["cpu_s"] == pytest.approx(run["raw_cpu_s"] / 4)


def test_benchmark_json_names_what_the_harness_emits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [(name, WORKLOADS[name]) for name in GATED]
    assert manifest["run_seconds"] == RUN_SECONDS
    assert manifest["paths"] == ["bench"]
    emitted = [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    assert manifest["end_to_end"] == emitted
    layers = [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    assert manifest["per_layer"] == layers
    names = [*WORKLOADS, *(m.name for m in END_TO_END), *(m.name for m in PER_LAYER)]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)


def test_compare_verdicts():
    def side(wall, samples):
        return {"end_to_end": {"wall_s": wall, "ops_failed_frac": 0.0}, "samples": {"wall_s": samples}}

    steady = [1.0, 1.0, 1.01, 0.99, 1.0]
    assert verdict("wall_s", 0.10, side(1.0, steady), side(1.05, steady))[0] == "ok"
    assert verdict("wall_s", 0.10, side(1.0, steady), side(1.2, steady))[0] == "regressed"
    assert verdict("wall_s", 0.10, side(1.0, steady), side(1.2, [0.8, 1.0, 1.2, 1.4, 1.6]))[0] == "unresolved"
    failing = side(1.0, steady)
    failing["end_to_end"]["ops_failed_frac"] = 0.1
    assert verdict("ops_failed_frac", 0.0, side(1.0, steady), failing)[0] == "regressed"
