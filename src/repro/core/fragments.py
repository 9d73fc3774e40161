"""Fragment enumeration and the +/- patching weights.

This module implements the combinatorial heart of LS3DF (Figure 1 of the
paper): from every corner ``(i, j, k)`` of the ``m1 x m2 x m3`` cell grid,
eight fragments are generated with sizes ``S = (s1, s2, s3)``,
``s_d in {1, 2}``, carrying the weight

    alpha_S = (-1)^(number of dimensions with s_d == 1)

(+1 for 2x2x2, -1 for 2x2x1-type, +1 for 2x1x1-type, -1 for 1x1x1).  With
these weights the total quantum energy and charge density are assembled as
``E = sum_F alpha_F E_F`` and ``rho = sum_F alpha_F rho_F``: per corner the
signed cell count is 8 - 3*4 + 3*2 - 1 = 1, so every cell of the supercell
is represented exactly once while the artificial surface, edge and corner
contributions of the fragments cancel between the + and - members.

The two-dimensional variant (used in the paper's Figure 1 and handy for
tests) is obtained by passing a grid with one dimension equal to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np


def fragment_weight(size: Sequence[int], grid_dims: Sequence[int] | None = None) -> int:
    """The LS3DF patching weight alpha_S of a fragment of the given size.

    Parameters
    ----------
    size:
        Fragment extent in grid cells along each axis; every entry must be
        1 or 2.
    grid_dims:
        Optional fragment-grid dimensions.  Axes along which the grid has
        only a single cell are *not subdivided* and therefore do not
        contribute to the sign (they behave like the "size 2" full-coverage
        direction); this is what makes the 2D illustration of the paper's
        Figure 1 (one degenerate axis) carry the 2D weights
        +1 / -1 / -1 / +1.

    Returns
    -------
    int
        ``+1`` or ``-1``.
    """
    size = tuple(int(s) for s in size)
    if any(s not in (1, 2) for s in size):
        raise ValueError(f"fragment sizes must be 1 or 2, got {size}")
    if grid_dims is None:
        active = (True,) * len(size)
    else:
        if len(grid_dims) != len(size):
            raise ValueError("grid_dims and size must have equal length")
        active = tuple(int(m) > 1 for m in grid_dims)
    ones = sum(1 for s, a in zip(size, active) if a and s == 1)
    return -1 if ones % 2 else 1


@dataclass(frozen=True)
class Fragment:
    """One LS3DF fragment: a corner, a size and a patching weight.

    Attributes
    ----------
    corner:
        Grid-cell index ``(i, j, k)`` of the fragment's origin corner.
    size:
        Extent in cells along each axis (each 1 or 2).
    weight:
        Patching weight alpha_F (+1 or -1).
    grid_dims:
        The global fragment-grid dimensions ``(m1, m2, m3)``; needed to
        resolve periodic wrap-around of the covered cells.
    """

    corner: tuple[int, int, int]
    size: tuple[int, int, int]
    weight: int
    grid_dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.corner) != 3 or len(self.size) != 3 or len(self.grid_dims) != 3:
            raise ValueError("corner, size and grid_dims must be 3-tuples")
        if any(s not in (1, 2) for s in self.size):
            raise ValueError("fragment sizes must be 1 or 2")
        if any(m < 1 for m in self.grid_dims):
            raise ValueError("grid dimensions must be positive")
        if any(not 0 <= c < m for c, m in zip(self.corner, self.grid_dims)):
            raise ValueError("corner must lie inside the grid")
        if self.weight != fragment_weight(self.size, self.grid_dims):
            raise ValueError("weight inconsistent with fragment size")

    # ------------------------------------------------------------------
    @property
    def ncells(self) -> int:
        """Number of grid cells covered by the fragment."""
        return int(np.prod(self.size))

    @property
    def label(self) -> str:
        """Human-readable identifier, e.g. ``'F(1,0,2)x212'``."""
        return (
            f"F({self.corner[0]},{self.corner[1]},{self.corner[2]})"
            f"x{self.size[0]}{self.size[1]}{self.size[2]}"
        )

    def covered_cells(self) -> list[tuple[int, int, int]]:
        """Grid-cell indices covered by the fragment (with periodic wrap)."""
        cells = []
        for di in range(self.size[0]):
            for dj in range(self.size[1]):
                for dk in range(self.size[2]):
                    cells.append(
                        (
                            (self.corner[0] + di) % self.grid_dims[0],
                            (self.corner[1] + dj) % self.grid_dims[1],
                            (self.corner[2] + dk) % self.grid_dims[2],
                        )
                    )
        return cells


def enumerate_fragments(grid_dims: Sequence[int]) -> list[Fragment]:
    """All fragments of an ``m1 x m2 x m3`` periodic fragment grid.

    From every grid corner, one fragment per size in {1,2}^3 is produced,
    except that along an axis where the grid has only one cell the size is
    fixed to 1 (a "2" would wrap onto itself and double-count).  For the
    usual case ``m_d >= 2`` this yields ``8 * m1 * m2 * m3`` fragments, the
    count the paper's cost model uses.

    Parameters
    ----------
    grid_dims:
        Fragment-grid dimensions (each >= 1).

    Returns
    -------
    list[Fragment]
    """
    dims = tuple(int(m) for m in grid_dims)
    if len(dims) != 3 or any(m < 1 for m in dims):
        raise ValueError("grid_dims must be three positive integers")
    size_choices = [(1,) if m == 1 else (1, 2) for m in dims]
    fragments: list[Fragment] = []
    for corner in product(*(range(m) for m in dims)):
        for size in product(*size_choices):
            fragments.append(
                Fragment(
                    corner=corner,
                    size=size,
                    weight=fragment_weight(size, dims),
                    grid_dims=dims,
                )
            )
    return fragments


def coverage_map(grid_dims: Sequence[int]) -> np.ndarray:
    """Net signed coverage of every grid cell, sum_F alpha_F * 1_F(cell).

    The LS3DF patching identity states this is exactly 1 everywhere; the
    test suite asserts it for arbitrary grid dimensions (property-based).
    """
    dims = tuple(int(m) for m in grid_dims)
    cover = np.zeros(dims, dtype=int)
    for frag in enumerate_fragments(dims):
        for cell in frag.covered_cells():
            cover[cell] += frag.weight
    return cover
