"""``LS3DFSCF.iterate``: the SCF loop as a generator of the run so far.

On the golden 2x1x1 ZnO system under the golden protocol (serial
backend): every yield is a prefix of the drained run, ``run()`` hands
back the last yield, and a consumer that stops iterating leaves a
checkpoint that resumes ``==`` an uninterrupted run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

from generate import PROTOCOL, build  # noqa: E402

from repro.core.scf import LS3DFSCF  # noqa: E402

SYSTEM = "zno_2x1x1"


def _assert_same_run(got, want):
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.convergence_history == want.convergence_history
    assert got.energy_history == want.energy_history
    assert got.total_energy == want.total_energy
    assert got.quantum_energy == want.quantum_energy
    assert np.array_equal(got.density, want.density)
    assert np.array_equal(got.potential, want.potential)


def test_every_yield_is_a_prefix_of_the_drained_run():
    steps = list(build(SYSTEM).iterate(**PROTOCOL["run"]))
    result = build(SYSTEM).run(**PROTOCOL["run"])
    assert [step.iterations for step in steps] == list(range(1, result.iterations + 1))
    for k, step in enumerate(steps, 1):
        assert step.convergence_history == result.convergence_history[:k]
        assert step.energy_history == result.energy_history[:k]
        assert len(step.timings) == k
        assert step.nfragments == result.nfragments
    _assert_same_run(steps[-1], result)


def test_run_returns_the_last_yield(monkeypatch):
    yielded = []
    iterate = LS3DFSCF.iterate

    def watched(self, **kwargs):
        for step in iterate(self, **kwargs):
            yielded.append(step)
            yield step

    monkeypatch.setattr(LS3DFSCF, "iterate", watched)
    result = build(SYSTEM).run(**PROTOCOL["run"])
    assert result == yielded[-1]
    assert len(yielded) == result.iterations


def test_a_consumer_that_stops_early_resumes_bit_identically(tmp_path):
    reference = build(SYSTEM).run(**PROTOCOL["run"])
    scf = build(SYSTEM)
    for step in scf.iterate(checkpoint_dir=tmp_path, **PROTOCOL["run"]):
        if step.iterations == 2:
            break
    resumed = scf.run(checkpoint_dir=tmp_path, resume=True, **PROTOCOL["run"])
    _assert_same_run(resumed, reference)
    assert len(resumed.timings) == reference.iterations - 2
