"""Gen_VF and Gen_dens: the LS3DF restriction and patching operators.

These are the two data-movement kernels of the paper's flow chart:

* **Gen_VF** takes the global input potential ``V_tot_in(r)`` and produces,
  for every fragment, its restriction to the fragment box Omega_F (the
  fragment region plus buffer);
* **Gen_dens** takes the fragment charge densities ``rho_F(r)`` and patches
  them into the global density ``rho_tot(r) = sum_F alpha_F rho_F(r)``,
  accumulating only over each fragment's *region* (the buffer is excluded),
  where the +/- weights make every grid point counted exactly once.

Because the fragment grids share the global grid spacing, both operations
are exact periodic array gathers/scatters — the Python analogue of the
MPI communication the paper optimised from file-I/O to collectives to
point-to-point isend/irecv.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from repro.core.division import SpatialDivision
from repro.core.fragments import Fragment


def restrict_to_fragment(
    division: SpatialDivision,
    fragment: Fragment,
    global_field: np.ndarray,
) -> np.ndarray:
    """Gen_VF: restrict a global real-space field to one fragment box.

    Parameters
    ----------
    division:
        The spatial division (owns the index maps).
    fragment:
        Target fragment.
    global_field:
        Field on the global FFT grid.

    Returns
    -------
    numpy.ndarray
        Field on the fragment-box grid (periodically wrapped copy).
    """
    if global_field.shape != division.global_grid.shape:
        raise ValueError("global field shape does not match the global grid")
    ix, iy, iz = division.global_indices(fragment, interior_only=False)
    return global_field[np.ix_(ix, iy, iz)].copy()


#: Index arrays (per axis, periodically wrapped) plus the weighted interior
#: array of one fragment — the unit the Gen_dens reduction sums over.
FragmentContribution = tuple[
    tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray
]


# Accumulator-allocation accounting of the Gen_dens reduction (PR 6): the
# chunked tree-reduce used to allocate one fresh global-grid array per
# chunk *and* one per merge (~2x chunks); with buffer recycling it
# allocates O(log #chunks).  Approximate counters (no lock) — used by the
# regression test and the kernel-pack benchmark, not for control flow.
_REDUCE_STATS = {"allocations": 0, "reused": 0}


def reduce_stats() -> dict[str, int]:
    """Snapshot of the Gen_dens accumulator allocation/reuse counters."""
    return dict(_REDUCE_STATS)


def reset_reduce_stats() -> None:
    """Zero the accumulator counters (benchmarks / tests)."""
    for k in _REDUCE_STATS:
        _REDUCE_STATS[k] = 0


def _accumulate_chunk(
    shape: tuple[int, int, int],
    contributions: Iterable[FragmentContribution],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter-add weighted interiors into one partial field.

    A fragment *region* never exceeds one period of the global grid per
    axis, so the per-axis index arrays are duplicate-free and the sliced
    in-place add is exact (one addition per addressed element — the same
    arithmetic as ``np.add.at``, without its slow unbuffered path).

    ``out`` may be a recycled accumulator of the right shape; it is
    zero-filled first, which is byte-identical to a fresh ``np.zeros``.
    """
    if out is None:
        partial = np.zeros(shape, dtype=float)
        _REDUCE_STATS["allocations"] += 1
    else:
        partial = out
        partial.fill(0.0)
        _REDUCE_STATS["reused"] += 1
    for (ix, iy, iz), interior in contributions:
        partial[np.ix_(ix, iy, iz)] += interior
    return partial


def tree_reduce_fields(
    partials: Iterable[np.ndarray],
    in_place: bool = False,
    release=None,
) -> np.ndarray:
    """Pairwise (binary-tree) sum of partial global fields.

    The reduction order is fixed by the input order alone — never by a
    worker count or arrival order — so results are bit-for-bit
    reproducible across execution backends.  This is the Python analogue
    of the production code's Gen_dens reduction over processor groups.

    Accepts any iterable and consumes it lazily with a binary-counter
    merge (equal-height subtrees combine as soon as both exist), so at
    most O(log N) partial fields are alive at once even when the input is
    a generator producing N of them.

    Parameters
    ----------
    partials:
        The partial fields, earliest first.
    in_place:
        Merge subtrees by mutating the earlier operand (``left += node``)
        instead of allocating a fresh array per merge.  Only valid when
        the caller owns every input array; elementwise float addition is
        commutative and the in-place form computes the identical sums, so
        the result is byte-identical to the allocating path.
    release:
        Optional callback receiving each input array the reduction has
        fully consumed (``in_place`` only) — the recycling hook
        :func:`patch_contributions` uses to refill its accumulator pool.
    """
    # Stack of (subtree height, subtree sum); heights strictly decrease
    # from bottom to top, exactly the binary representation of the count
    # of partials consumed so far.
    stack: list[tuple[int, np.ndarray]] = []
    for array in partials:
        node = array
        height = 0
        while stack and stack[-1][0] == height:
            _, left = stack.pop()
            if in_place:
                left += node  # left operand is the earlier subtree
                if release is not None:
                    release(node)
                node = left
            else:
                node = left + node
            height += 1
        stack.append((height, node))
    if not stack:
        raise ValueError("tree reduce needs at least one partial field")
    total: np.ndarray | None = None
    for _, node in reversed(stack):  # latest (smallest) subtree first
        if total is None:
            total = node
        elif in_place:
            node += total  # same bits as node + total (float add commutes)
            if release is not None:
                release(total)
            total = node
        else:
            total = node + total
    return total


#: Chunk size of the SCF loop's Gen_dens tree-reduce: fixed, never derived
#: from a worker count, so the summation tree (every density bit) is the
#: same on every backend.  One chunk is plain sequential summation.
PATCH_CHUNK_SIZE = 8


def patch_contributions(
    shape: tuple[int, int, int],
    contributions: Iterable[FragmentContribution],
    chunk_size: int | None = None,
) -> np.ndarray:
    """Sum pre-weighted fragment interiors into a global field.

    This is the reduction half of Gen_dens, operating on contributions
    whose alpha weights have already been applied — exactly what the fused
    fragment pipeline ships back from its workers.  ``contributions`` may
    be any iterable (it is consumed lazily, one chunk at a time).

    ``chunk_size=None`` accumulates every contribution sequentially into a
    single array (the reference addition order).  A positive
    ``chunk_size`` splits the contributions into fixed consecutive
    chunks, accumulates each into its own partial field, and combines the
    partials with a pairwise tree sum — the deterministic chunked
    tree-reduce the SCF loop uses with :data:`PATCH_CHUNK_SIZE`.  The
    chunk boundaries
    depend only on the contribution order and ``chunk_size``, so every
    backend (and any worker count) produces identical bits.
    """
    if chunk_size is None:
        return _accumulate_chunk(shape, contributions)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    iterator = iter(contributions)
    first_chunk = list(islice(iterator, chunk_size))
    if not first_chunk:
        return np.zeros(shape, dtype=float)

    # Accumulator pool (PR 6): every array the tree reduce finishes with
    # comes back here and seeds the next chunk's accumulation, so the
    # whole reduction allocates O(log #chunks) global-grid arrays instead
    # of ~2x #chunks.  The returned total is one of this call's own
    # arrays, so handing it to the caller is safe.
    pool: list[np.ndarray] = []

    def partials():
        # Lazy: together with the streaming tree reduce, only
        # O(log #chunks) partial global fields are alive at once.
        yield _accumulate_chunk(shape, first_chunk, out=pool.pop() if pool else None)
        while True:
            chunk = list(islice(iterator, chunk_size))
            if not chunk:
                return
            yield _accumulate_chunk(
                shape, chunk, out=pool.pop() if pool else None
            )

    return tree_reduce_fields(partials(), in_place=True, release=pool.append)


def patch_fragment_fields(
    division: SpatialDivision,
    fragments: Sequence[Fragment],
    fragment_fields: Iterable[np.ndarray],
    weights: Sequence[int] | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Gen_dens: patch weighted fragment fields into a global field.

    Only the fragment-region part of each fragment field (the box interior
    excluding the buffer) is accumulated, multiplied by the fragment's
    alpha weight.  For fragment fields that are restrictions of a common
    global field the output reproduces that field exactly (the patching
    identity); for independently computed fragment densities the +/-
    pattern cancels the artificial boundary contributions.

    Parameters
    ----------
    division:
        The spatial division.
    fragments:
        Fragments in the same order as ``fragment_fields``.
    fragment_fields:
        Per-fragment arrays on the fragment-box grids.
    weights:
        Optional per-fragment weight overrides (defaults to each
        fragment's alpha).
    chunk_size:
        ``None`` (default) accumulates sequentially in fragment order —
        the reference addition order.  A positive
        value sums through the deterministic chunked tree-reduce of
        :func:`patch_contributions` instead.

    Returns
    -------
    numpy.ndarray
        The patched field on the global grid.
    """
    fragments = list(fragments)
    fields = list(fragment_fields)
    if len(fields) != len(fragments):
        raise ValueError("number of fields must match number of fragments")
    if weights is None:
        weights = [f.weight for f in fragments]
    elif len(weights) != len(fragments):
        raise ValueError("weights length mismatch")

    def contributions():
        # Lazy: each weighted interior is built only as the accumulation
        # consumes it, keeping the transient footprint at one interior
        # (plus the partial fields) rather than all of them at once.
        for fragment, field, weight in zip(fragments, fields, weights):
            box = division.fragment_box(fragment)
            if field.shape != box.npoints:
                raise ValueError(
                    f"fragment field shape {field.shape} does not match box {box.npoints}"
                )
            interior = field[box.interior_slice]
            indices = division.global_indices(fragment, interior_only=True)
            yield (indices, weight * np.real(interior))

    return patch_contributions(
        division.global_grid.shape, contributions(), chunk_size=chunk_size
    )


def patching_identity_residual(
    division: SpatialDivision, global_field: np.ndarray
) -> float:
    """Max-norm residual of the restrict->patch round trip on a global field.

    Restricting an arbitrary global field to every fragment and patching
    the restrictions back must reproduce the field exactly; this helper
    (used by tests and by the driver's self-check) returns the maximum
    absolute deviation.
    """
    from repro.core.fragments import enumerate_fragments

    fragments = enumerate_fragments(division.grid_dims)
    fields = [
        restrict_to_fragment(division, f, global_field) for f in fragments
    ]
    patched = patch_fragment_fields(division, fragments, fields)
    return float(np.max(np.abs(patched - global_field)))
