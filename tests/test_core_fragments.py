"""Tests (incl. property-based) of the LS3DF fragment combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fragments import (
    Fragment,
    coverage_map,
    enumerate_fragments,
    fragment_weight,
)


def test_fragment_weight_3d_pattern():
    # The paper's alpha_S: +1 for 2x2x2 and 2x1x1-types, -1 for 2x2x1-types and 1x1x1.
    assert fragment_weight((2, 2, 2)) == 1
    assert fragment_weight((2, 2, 1)) == -1
    assert fragment_weight((2, 1, 2)) == -1
    assert fragment_weight((1, 2, 2)) == -1
    assert fragment_weight((2, 1, 1)) == 1
    assert fragment_weight((1, 1, 1)) == -1


def test_fragment_weight_2d_pattern_matches_figure1():
    # With one degenerate axis (m=1), the 2D weights of Figure 1 appear:
    # +1 for 1x1 and 2x2, -1 for 1x2 and 2x1.
    dims = (4, 4, 1)
    assert fragment_weight((1, 1, 1), dims) == 1
    assert fragment_weight((2, 2, 1), dims) == 1
    assert fragment_weight((1, 2, 1), dims) == -1
    assert fragment_weight((2, 1, 1), dims) == -1


def test_fragment_weight_validation():
    with pytest.raises(ValueError):
        fragment_weight((3, 1, 1))


def test_per_corner_signed_cell_count_is_one():
    # 8 - 3*4 + 3*2 - 1 = 1 (the identity quoted in the paper/DESIGN.md).
    total = 0
    for frag in enumerate_fragments((5, 5, 5)):
        if frag.corner == (0, 0, 0):
            total += frag.weight * frag.ncells
    assert total == 1


def test_enumerate_fragments_count():
    # 8 fragments per corner for a full 3D grid.
    assert len(enumerate_fragments((3, 3, 3))) == 8 * 27
    assert len(enumerate_fragments((2, 2, 2))) == 8 * 8
    # Degenerate axes reduce the per-corner count.
    assert len(enumerate_fragments((4, 4, 1))) == 4 * 16
    assert len(enumerate_fragments((1, 1, 1))) == 1


def test_fragment_dataclass_validation():
    with pytest.raises(ValueError):
        Fragment((0, 0, 0), (3, 1, 1), 1, (2, 2, 2))
    with pytest.raises(ValueError):
        Fragment((5, 0, 0), (1, 1, 1), -1, (2, 2, 2))
    with pytest.raises(ValueError):
        Fragment((0, 0, 0), (1, 1, 1), 1, (2, 2, 2))  # wrong weight


def test_covered_cells_and_covers_cell_wrap_around():
    frag = Fragment((2, 0, 0), (2, 1, 1), 1, (3, 1, 1))
    cells = frag.covered_cells()
    assert (2, 0, 0) in cells and (0, 0, 0) in cells  # wraps around
    assert (1, 0, 0) not in cells


def test_fragment_labels_unique():
    frags = enumerate_fragments((3, 2, 2))
    labels = [f.label for f in frags]
    assert len(set(labels)) == len(labels)


@settings(max_examples=40, deadline=None)
@given(
    m1=st.integers(min_value=1, max_value=6),
    m2=st.integers(min_value=1, max_value=6),
    m3=st.integers(min_value=1, max_value=6),
)
def test_property_coverage_identity(m1, m2, m3):
    """sum_F alpha_F 1_F(cell) == 1 for every cell and every grid shape.

    This is the central combinatorial invariant of the LS3DF patching
    scheme: each point of the supercell is represented exactly once.
    """
    cov = coverage_map((m1, m2, m3))
    assert np.all(cov == 1)


@settings(max_examples=30, deadline=None)
@given(
    m1=st.integers(min_value=2, max_value=5),
    m2=st.integers(min_value=2, max_value=5),
    m3=st.integers(min_value=2, max_value=5),
)
def test_property_signed_cell_volume_sums_to_system(m1, m2, m3):
    """sum_F alpha_F |F| equals the number of cells of the supercell."""
    frags = enumerate_fragments((m1, m2, m3))
    signed_volume = sum(f.weight * f.ncells for f in frags)
    assert signed_volume == m1 * m2 * m3
