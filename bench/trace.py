"""Span recorder that wraps public ``repro`` callables from outside.

:class:`Tracer` replaces an attribute on its defining module or class —
and every ``repro.*`` module global bound to the same object, since
several are imported by name — with a wrapper that records one
:class:`Span` per call, and puts the originals back afterwards.  Spans
stay in memory until :meth:`Tracer.dump`.  Worker subprocesses are never
instrumented; their busy time comes from the public result fields.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

_MISSING = object()


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span of the same thread."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    value: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A public callable to wrap: ``module`` + dotted ``attr`` path inside it.

    ``value`` optionally maps ``(tracer, args, result)`` of a call to a
    number stored on the span (bytes written, bytes computed, tasks).
    """

    module: str
    attr: str
    name: str
    layer: str
    value: Callable | None = None

    def resolve(self) -> tuple[object, str]:
        """``(owner, attribute name)``: the module or class that defines it."""
        owner = importlib.import_module(self.module)
        *path, attr = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr


def _apply_local_bytes(tracer, args, result) -> float:
    """Bytes the FFT share of H*psi touches, computed from array shapes.

    Two batched FFTs and the V*psi product each read and write one
    ``(nbands, *grid)`` complex128 workspace.
    """
    hamiltonian, coefficients = args[0], args[1]
    points = 1
    for n in hamiltonian.basis.grid.shape:
        points *= int(n)
    return 3 * 2 * 16.0 * len(coefficients) * points


def _append_bytes(tracer, args, result) -> float:
    from repro.store.events import encode_record

    return float(len(encode_record(result)))


def _checkpoint_bytes(tracer, args, result) -> float:
    return float(sum(p.stat().st_size for p in Path(result).parent.glob("state-*.npz")))


def _batch_tasks(tracer, args, result) -> float:
    """Task count of an executor call; keeps one task per kind for pickling."""
    if len(args) < 2:
        return 0.0
    tasks = args[1]
    batch = list(tasks) if isinstance(tasks, (list, tuple)) else [tasks]
    if batch:
        tracer.samples.setdefault(type(batch[0]).__name__, batch[0])
    return float(len(batch))


_EXECUTOR_METHODS = ("run", "run_pipeline", "run_global", "run_bands", "submit_global", "submit_pipeline_batch")

#: Every callable the traced run wraps.  All are public names.
TARGETS: tuple[Target, ...] = (
    Target("repro.pw.hamiltonian", "Hamiltonian.apply_local", "pw.apply_local", "repro.pw", _apply_local_bytes),
    Target("repro.pw.hamiltonian", "Hamiltonian.add_nonlocal", "pw.add_nonlocal", "repro.pw"),
    Target("repro.pw.eigensolver", "all_band_cg", "pw.all_band_cg", "repro.pw"),
    Target("repro.pw.hartree", "hartree_potential", "pw.hartree", "repro.pw"),
    Target("repro.pw.xc", "lda_xc", "pw.xc", "repro.pw"),
    Target("repro.core.scf", "LS3DFSCF.run", "core.scf", "repro.core"),
    Target("repro.core.patching", "restrict_to_fragment", "core.gen_vf", "repro.core"),
    Target("repro.core.fragment_solver", "FragmentSolver.make_task", "core.gen_vf", "repro.core"),
    Target("repro.core.fragment_solver", "FragmentSolver.make_pipeline_task", "core.gen_vf", "repro.core"),
    Target("repro.core.fragment_task", "solve_fragment_task", "core.petot_f", "repro.core"),
    Target("repro.core.fragment_task", "run_fragment_pipeline_task", "core.petot_f", "repro.core"),
    Target("repro.core.fragment_task", "run_fragment_pipeline_task_grouped", "core.petot_f", "repro.core"),
    Target("repro.core.patching", "patch_fragment_fields", "core.gen_dens", "repro.core"),
    Target("repro.core.patching", "patch_contributions", "core.gen_dens", "repro.core"),
    Target("repro.core.genpot", "GlobalPotentialSolver.evaluate", "core.genpot", "repro.core"),
    *(
        Target("repro.parallel.executor", f"{cls}.{method}", "parallel.executor", "repro.parallel.executor", _batch_tasks)
        for cls in ("SerialFragmentExecutor", "ProcessPoolFragmentExecutor")
        for method in _EXECUTOR_METHODS
    ),
    *(
        Target("repro.parallel.remote", f"RemoteExecutor.{method}", "parallel.executor", "repro.parallel.executor", _batch_tasks)
        for method in _EXECUTOR_METHODS
    ),
    Target("repro.parallel.streaming", "stream_genpot", "parallel.genpot", "repro.parallel.distributed"),
    Target("repro.parallel.remote", "send_frame", "parallel.remote.send", "repro.parallel.remote"),
    Target("repro.parallel.remote", "recv_frame", "parallel.remote.recv", "repro.parallel.remote"),
    Target("repro.io.checkpoint", "save_checkpoint", "io.checkpoint", "repro.io", _checkpoint_bytes),
    Target("repro.io.gridio", "write_npz_atomic", "io.npz_atomic", "repro.io"),
    Target("repro.io.gridio", "fsync_directory", "io.fsync_dir", "repro.io"),
    Target("repro.store.store", "RunStore.submit", "store.submit", "repro.store"),
    Target("repro.store.stream", "EventStream.append", "store.append", "repro.store", _append_bytes),
    Target("repro.store.stream", "EventStream.read_head", "store.read_head", "repro.store"),
    Target("repro.store.stream", "EventStream.replay", "store.replay", "repro.store"),
    Target("repro.store.client", "ServiceClient.submit", "store.client.submit", "repro.store"),
    Target("repro.store.client", "ServiceClient.status", "store.client.status", "repro.store"),
    Target("repro.store.client", "ServiceClient.result", "store.client.result", "repro.store"),
)


class Tracer:
    """Records spans from wrapped callables; one per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        # One task object per kind seen by an executor call (see _batch_tasks).
        self.samples: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (namespace, key, original or _MISSING) of every replaced attribute.
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str, value: Callable | None = None) -> Callable:
        """A callable that behaves like ``fn`` and records a span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(
                next(self._ids), name, layer, time.perf_counter(), 0.0,
                stack[-1] if stack else None, self.run, threading.get_ident(),
            )
            stack.append(span.id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if value is not None and result is not None:
                    span.value = float(value(self, args, result))
                self.spans.append(span)

        return traced

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Replace every target, on its owner and on each ``repro.*`` alias."""
        for target in targets:
            owner, attr = target.resolve()
            original = getattr(owner, attr)
            traced = self.wrap(original, target.name, target.layer, target.value)
            # A method inherited from a private base class is shadowed on the
            # public class and deleted again on restore.
            self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for key, bound in list(vars(module).items()):
                    if bound is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def restore(self) -> None:
        """Put every replaced attribute back (identical objects)."""
        while self._patched:
            owner, key, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write the spans (and ``extra``) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(extra or {})
        body["spans"] = [asdict(s) for s in self.spans]
        path.write_text(json.dumps(body) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (or stick out of the parent when they
    were attributed across threads); the union of their intervals, clipped
    to the parent, is what gets subtracted.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def summarize(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s``, ``self_s`` and summed ``value``."""
    own = self_times(spans)
    rows: dict[str, dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "value": 0.0})
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += own[span.id]
        row["value"] += span.value
    return rows


def layer_shares(spans: Sequence[Span], root_name: str) -> dict[str, float]:
    """Self time per layer inside the ``root_name`` spans, plus their total.

    The rows sum to ``"root"`` (the summed duration of the root spans) by
    construction; the README's dominant-layer shares are read from here.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    shares: dict[str, float] = {"root": sum(s.duration for s in spans if s.name == root_name and s.parent is None)}
    for span in spans:
        top = span
        while top.parent is not None and top.parent in by_id:
            top = by_id[top.parent]
        if top.name == root_name:
            shares[span.layer] = shares.get(span.layer, 0.0) + own[span.id]
    return shares
