"""Potential mixing schemes for the self-consistent field loop.

The LS3DF outer loop (and the direct DFT SCF) updates the input potential
from the output potential of the previous iteration.  Plain substitution
usually diverges ("charge sloshing"), so the paper mixes potentials from
previous iterations.  Three standard mixers are provided:

* :class:`LinearMixer`   — simple damping, V_in' = (1-a) V_in + a V_out;
* :class:`KerkerMixer`   — linear mixing with a G-dependent damping factor
  q^2/(q^2+q0^2) that suppresses long-wavelength sloshing in large cells;
* :class:`AndersonMixer` — Anderson/Pulay (DIIS) mixing over a history of
  residuals, the scheme production plane-wave codes (and LS3DF) use.

All mixers implement the :class:`Mixer` protocol — whole-grid real-space
potential arrays in, the next input potential out.  GENPOT calls
:meth:`Mixer.mix` once per iteration on the driver, on the gathered
potentials, whether or not the Poisson/XC fields were computed on slabs
(:mod:`repro.parallel.streaming`).

Mixers are also the one piece of GENPOT with cross-iteration memory
(Anderson's residual history), so the protocol includes
``state_dict()`` / ``load_state_dict()``: the checkpoint/restart layer
(:mod:`repro.io.checkpoint`) serialises the mixer state alongside the
wavefunctions and the input potential, and a resumed run replays the
exact arithmetic of an uninterrupted one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.pw import fftcache
from repro.pw.grid import FFTGrid


@runtime_checkable
class Mixer(Protocol):
    """Protocol of every potential-mixing scheme.

    ``kind`` is the mixer's registry name (what :func:`make_mixer`
    accepts and what checkpoint manifests record).

    Custom mixers only have to provide ``reset``/``mix`` to plug into
    :class:`repro.core.genpot.GlobalPotentialSolver`, sharded or not;
    implementing
    ``state_dict``/``load_state_dict`` as well makes them
    checkpointable (stateless custom mixers may omit the pair — the
    checkpoint layer then saves an empty state).
    """

    kind: str

    def reset(self) -> None: ...

    def mix(self, v_in: np.ndarray, v_out: np.ndarray) -> np.ndarray: ...

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable snapshot of the mixer's cross-iteration state.

        The default (inherited by stateless custom mixers that subclass
        this protocol) is an empty snapshot.

        Returns
        -------
        dict[str, np.ndarray]
            Flat mapping of state names to arrays (scalars as 0-d
            arrays), suitable for an ``.npz`` payload.  Restoring the
            snapshot with :meth:`load_state_dict` must reproduce the
            mixer's future :meth:`mix` outputs bit for bit.
        """
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Parameters
        ----------
        state:
            The mapping returned by :meth:`state_dict` (possibly after
            an ``.npz`` round trip).  Implementations must raise
            ``ValueError`` when the snapshot belongs to a differently
            configured mixer (wrong damping, wrong history length, ...),
            so a checkpoint from a different problem fails loudly.  The
            default accepts only the empty snapshot its default
            :meth:`state_dict` produces.
        """
        if state:
            raise ValueError(
                f"{type(self).__name__} does not implement load_state_dict "
                f"but the checkpoint carries mixer state {sorted(state)}"
            )


def _require_matching_scalar(state: dict, key: str, expected: float, kind: str) -> None:
    """Fail loudly when a checkpointed mixer parameter differs.

    Parameters
    ----------
    state:
        The snapshot being restored.
    key:
        Parameter name inside ``state``.
    expected:
        The live mixer's value of that parameter.
    kind:
        Mixer kind (for the error message).
    """
    if key not in state:
        raise ValueError(f"{kind} mixer state is missing {key!r}")
    found = float(state[key])
    if found != expected:
        raise ValueError(
            f"checkpointed {kind} mixer has {key}={found!r} but this mixer "
            f"was built with {key}={expected!r}"
        )


class LinearMixer(Mixer):
    """Simple linear (damped) potential mixing."""

    kind = "linear"

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def reset(self) -> None:
        """No state to clear; provided for interface uniformity."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot (the damping parameter only — linear mixing is stateless).

        Returns
        -------
        dict[str, np.ndarray]
            ``{"alpha": ...}``; recorded so a resumed run can verify it
            mixes with the same damping.
        """
        return {"alpha": np.float64(self.alpha)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Validate a snapshot (no mutable state to restore).

        Parameters
        ----------
        state:
            A :meth:`state_dict` snapshot; a differing ``alpha`` raises
            ``ValueError``.
        """
        _require_matching_scalar(state, "alpha", self.alpha, self.kind)

    def mix(self, v_in: np.ndarray, v_out: np.ndarray) -> np.ndarray:
        if v_in.shape != v_out.shape:
            raise ValueError("potential shape mismatch")
        return (1.0 - self.alpha) * v_in + self.alpha * v_out


class KerkerMixer(Mixer):
    """Kerker-preconditioned linear mixing.

    The residual is filtered in reciprocal space by q^2 / (q^2 + q0^2),
    which damps the long-wavelength components responsible for charge
    sloshing in large supercells — important precisely in the LS3DF regime
    of thousands of atoms.
    """

    kind = "kerker"

    def __init__(self, grid: FFTGrid, alpha: float = 0.5, q0: float = 0.8) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        self.grid = grid
        self.alpha = float(alpha)
        self.q0 = float(q0)

        def build_filter() -> np.ndarray:
            g2 = grid.g2
            filt = g2 / (g2 + q0 * q0)
            # G=0: keep a small fraction so the average potential can
            # still move.
            filt.flat[0] = alpha and 1.0
            return filt

        # Shared (read-only) across equal grids; the G=0 entry is always
        # 1.0 for any valid alpha > 0, so the filter depends only on q0.
        self._filter = grid.memo(("kerker_filter", self.q0), build_filter)

    def reset(self) -> None:
        """No state to clear; provided for interface uniformity."""

    def mix(self, v_in: np.ndarray, v_out: np.ndarray) -> np.ndarray:
        if v_in.shape != self.grid.shape or v_out.shape != self.grid.shape:
            raise ValueError("potential shape mismatch")
        # Pooled workspace transforms — bit-identical to the allocating
        # path (see repro.pw.fftcache).
        with fftcache.scratch(self.grid.shape) as w1, fftcache.scratch(
            self.grid.shape
        ) as w2:
            resid_g = fftcache.fftn(v_out - v_in, out=w1)
            resid_g *= self._filter
            update = fftcache.ifftn(resid_g, out=w2)
            return v_in + self.alpha * update.real

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot (parameters only — the Kerker filter has no history).

        Returns
        -------
        dict[str, np.ndarray]
            ``{"alpha": ..., "q0": ...}``; the filter itself is derived
            deterministically from the grid and these parameters, so it
            is not stored.
        """
        return {"alpha": np.float64(self.alpha), "q0": np.float64(self.q0)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Validate a snapshot (no mutable state to restore).

        Parameters
        ----------
        state:
            A :meth:`state_dict` snapshot; a differing ``alpha`` or
            ``q0`` raises ``ValueError``.
        """
        _require_matching_scalar(state, "alpha", self.alpha, self.kind)
        _require_matching_scalar(state, "q0", self.q0, self.kind)


@dataclass
class _HistoryEntry:
    v_in: np.ndarray
    residual: np.ndarray


class AndersonMixer(Mixer):
    """Anderson (Pulay/DIIS) mixing with a bounded history.

    Finds the linear combination of previous (v_in, residual) pairs that
    minimises the norm of the combined residual, then takes a damped step
    along the combined output.  Falls back to plain linear mixing while the
    history is too short or the normal equations are ill-conditioned.
    """

    kind = "anderson"

    def __init__(self, alpha: float = 0.4, history: int = 5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if history < 1:
            raise ValueError("history must be >= 1")
        self.alpha = float(alpha)
        self.history = int(history)
        self._entries: deque[_HistoryEntry] = deque(maxlen=history)

    def reset(self) -> None:
        """Clear the mixing history (call when the SCF problem changes)."""
        self._entries.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot: parameters plus the bounded (v_in, residual) history.

        Returns
        -------
        dict[str, np.ndarray]
            ``alpha`` and ``history`` (the configured bounds) plus
            ``v_in_stack`` / ``residual_stack``, the history entries
            stacked oldest-first along axis 0 (zero-length when the
            history is empty).  Restoring this with
            :meth:`load_state_dict` makes every later :meth:`mix` output
            bit-identical to a never-interrupted mixer's.
        """
        if self._entries:
            v_in_stack = np.stack([e.v_in for e in self._entries])
            residual_stack = np.stack([e.residual for e in self._entries])
        else:
            v_in_stack = np.zeros((0,))
            residual_stack = np.zeros((0,))
        return {
            "alpha": np.float64(self.alpha),
            "history": np.int64(self.history),
            "v_in_stack": v_in_stack,
            "residual_stack": residual_stack,
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot: replace the history deque entry for entry.

        Parameters
        ----------
        state:
            A :meth:`state_dict` snapshot; a differing ``alpha`` or
            ``history`` bound raises ``ValueError`` (the normal-equation
            arithmetic depends on both).
        """
        _require_matching_scalar(state, "alpha", self.alpha, self.kind)
        _require_matching_scalar(state, "history", self.history, self.kind)
        v_in_stack = np.asarray(state["v_in_stack"])
        residual_stack = np.asarray(state["residual_stack"])
        if v_in_stack.shape != residual_stack.shape:
            raise ValueError("anderson mixer state stacks disagree in shape")
        self._entries.clear()
        for v_in, residual in zip(v_in_stack, residual_stack):
            self._entries.append(_HistoryEntry(v_in.copy(), residual.copy()))

    def mix(self, v_in: np.ndarray, v_out: np.ndarray) -> np.ndarray:
        if v_in.shape != v_out.shape:
            raise ValueError("potential shape mismatch")
        residual = v_out - v_in
        self._entries.append(_HistoryEntry(v_in.copy(), residual.copy()))
        n = len(self._entries)
        if n == 1:
            return v_in + self.alpha * residual

        # Solve min || sum_k c_k r_k ||^2  subject to  sum_k c_k = 1.
        res_mat = np.stack([e.residual.ravel() for e in self._entries])
        gram = res_mat @ res_mat.T
        scale = np.trace(gram) / n
        if scale <= 0:
            return v_in + self.alpha * residual
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = gram / scale
        a[:n, n] = 1.0
        a[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        try:
            sol = np.linalg.solve(a, rhs)
            coeffs = sol[:n]
        except np.linalg.LinAlgError:
            coeffs = np.zeros(n)
            coeffs[-1] = 1.0
        if not np.all(np.isfinite(coeffs)) or np.abs(coeffs).max() > 1e4:
            # Ill-conditioned history: drop the oldest entries and fall back.
            while len(self._entries) > 1:
                self._entries.popleft()
            return v_in + self.alpha * residual

        v_opt = np.zeros_like(v_in)
        r_opt = np.zeros_like(v_in)
        for c_k, entry in zip(coeffs, self._entries):
            v_opt += c_k * entry.v_in
            r_opt += c_k * entry.residual
        return v_opt + self.alpha * r_opt


def make_mixer(kind: str, grid: FFTGrid | None = None, **kwargs) -> Mixer:
    """Factory used by the SCF drivers.

    All three shipped mixers implement (and explicitly subclass) the
    :class:`Mixer` protocol, so callers dispatch on the protocol rather
    than a concrete-class union.

    Parameters
    ----------
    kind:
        One of ``"linear"``, ``"kerker"``, ``"anderson"``.
    grid:
        Required for the Kerker mixer.
    kwargs:
        Forwarded to the mixer constructor.
    """
    kind = kind.lower()
    if kind == "linear":
        return LinearMixer(**kwargs)
    if kind == "kerker":
        if grid is None:
            raise ValueError("Kerker mixing requires the FFT grid")
        return KerkerMixer(grid, **kwargs)
    if kind == "anderson":
        return AndersonMixer(**kwargs)
    raise ValueError(f"unknown mixer kind {kind!r}")
