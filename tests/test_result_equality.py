"""Result records compare by identity: ``==`` between two of them never
asks numpy for the truth value of an array."""

import dataclasses

import numpy as np
import pytest

from repro.core.fragment_task import FragmentTaskResult
from repro.core.scf import LS3DFResult
from repro.parallel.distributed import GlobalStepResult
from repro.pw.eigensolver import EigensolverResult
from repro.pw.fsm import FoldedSpectrumResult
from repro.pw.scf import SCFResult

_VALUES = {"float": 0.0, "int": 0, "bool": False, "str": "x"}


def _build(cls):
    """An instance with every required field filled: arrays get ``np.zeros(3)``."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            kwargs[f.name] = np.zeros(3) if "ndarray" in f.type else _VALUES.get(f.type)
    return cls(**kwargs)


@pytest.mark.parametrize("cls", [
    LS3DFResult, SCFResult, EigensolverResult, FragmentTaskResult,
    GlobalStepResult, FoldedSpectrumResult,
])
def test_results_with_array_fields_compare_by_identity(cls):
    a, b = _build(cls), _build(cls)
    assert a == a
    assert a != b
