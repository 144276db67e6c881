"""In-memory span tracer that wraps graspscore's public functions.

A span is one call of a wrapped function: name, start, end, busy time,
parent span, operation id and thread. Spans stay in memory while the
benchmark runs and are written out once at the end.

Functions are wrapped at every name a caller looks them up by: a module
attribute (``geometry.ray_mesh_first_hit``, called as
``geometry.ray_mesh_first_hit(...)`` from ``gripper``) and every
``from .x import f`` binding in another module (``pipeline.enumerate_candidates``).
Wrappers are installed for one traced operation and removed afterwards,
so untraced operations run the unmodified functions.

Span names use the defining module: ``geometry.ray_mesh_first_hit``,
``spatial.SpatialIndex.knn_batch``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Methods that carry real work; module-level public functions are found
# automatically. Per-record methods (GraspRecord.row, ScoreBreakdown.as_tuple)
# are left out on purpose: a span per CSV row would dominate the trace.
TRACED_METHODS = (
    ("candidates", "CandidateGrid", "build"),
    ("candidates", "CandidateEnumerator", "__iter__"),
    ("spatial", "SpatialIndex", "from_mesh"),
    ("spatial", "SpatialIndex", "knn_batch"),
)


@dataclass
class Span:
    """One call of a wrapped function.

    ``busy`` is the time the call was running. It equals ``end - start``
    except for generators, which are busy only while resumed.
    """

    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    busy: float = 0.0


# --- counters recorded at the wrapped boundaries ---------------------------
# Each hook maps (args, kwargs, result) of one call to counter increments.


def _rays(args, kwargs, result):
    return {"geometry.rays": len(args[0]), "geometry.hits": int((result[1] >= 0).sum())}


def _knn_queries(args, kwargs, result):
    return {"spatial.knn_queries": len(result[0])}


def _rows_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"labels.rows_written": int(result), "labels.bytes_written": os.path.getsize(path)}


def _rows_read(args, kwargs, result):
    return {"labels.rows_read": len(result)}


def _nms_kept(args, kwargs, result):
    return {"scene.nms_kept": len(result)}


def _collides(args, kwargs, result):
    return {"scene.collision_calls": 1, "scene.collided": int(bool(result))}


def _samples(args, kwargs, result):
    return {"mesh.samples": len(result[0])}


def _enumerated(args, kwargs, yielded):
    return {"candidates.valid": yielded, "candidates.cells": int(args[0].n_enumerated)}


COUNTER_HOOKS = {
    "geometry.ray_mesh_first_hit": _rays,
    "spatial.SpatialIndex.knn_batch": _knn_queries,
    "labels.write_labels": _rows_written,
    "labels.read_predictions": _rows_read,
    "labels.read_labels": _rows_read,
    "scene.grasp_nms": _nms_kept,
    "gripper.gripper_collides": _collides,
    "mesh.sample_surface": _samples,
    # For a generator the hook gets the number of items yielded.
    "candidates.CandidateEnumerator.__iter__": _enumerated,
}


class Tracer:
    """Collects spans and counters for traced operations."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._op = -1
        self._targets = _find_targets(package)

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _new_span(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            # A pool worker thread: the call was caused by the main thread's
            # innermost open span (the one that started the pool).
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, parent, self._op, threading.get_ident())
            self.spans.append(span)
        return span

    def _count(self, name, args, kwargs, result):
        hook = COUNTER_HOOKS.get(name)
        if hook is None:
            return
        counts = self.counters.setdefault(self._op, {})
        with self._lock:
            for key, value in hook(args, kwargs, result).items():
                counts[key] = counts.get(key, 0) + value

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._new_span(name)
            stack = tracer._stack()
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                stack.pop()
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = None
            yielded = 0
            try:
                while True:
                    stack = tracer._stack()
                    t0 = time.perf_counter()
                    if span is None:
                        span = tracer._new_span(name)
                        span.start = t0
                    stack.append(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end = time.perf_counter()
                        span.busy += span.end - t0
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                inner.close()
                if span is not None:
                    tracer._count(name, args, kwargs, yielded)

        return traced

    @contextmanager
    def installed(self, op: int):
        """Wrap every target for the duration of one operation."""
        self._op = op
        self.counters.setdefault(op, {})
        undo = []
        try:
            for name, fn, bindings in self._targets:
                wrapped = self.wrap(name, fn)
                for owner, attr, original in bindings:
                    if isinstance(original, classmethod):
                        setattr(owner, attr, classmethod(wrapped))
                    else:
                        setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._op = -1

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _find_targets(package):
    """(span name, function, [(owner, attribute, original value)]) per target."""
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    namespaces = [package, *modules.values()]

    targets = []
    for short, mod in sorted(modules.items()):
        for attr, fn in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            bindings = [(ns, a, v) for ns in namespaces for a, v in vars(ns).items() if v is fn]
            targets.append((f"{short}.{attr}", fn, bindings))
    for short, cls_name, attr in TRACED_METHODS:
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        targets.append((f"{short}.{cls_name}.{attr}", fn, [(cls, attr, raw)]))
    return targets


# --- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: busy time minus the time its children cover.

    Children on the span's own thread run while the span waits, one at a
    time, so each covers its busy time. Children on other threads (a pool
    the span started) may overlap one another, so they cover the union of
    their intervals, clipped to the span's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id, ())
        covered = sum(k.busy for k in kids if k.thread == s.thread)
        covered += _union_length(
            [(max(k.start, s.start), min(k.end, s.end)) for k in kids if k.thread != s.thread]
        )
        out[s.id] = max(0.0, s.busy - covered)
    return out


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def inclusive_times(spans: list[Span], names) -> float:
    """Busy time of the outermost spans named in ``names``.

    A span nested under another span of the same set is not counted again.
    """
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        nested = False
        while p is not None:
            if by_id[p].name in names:
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            total += s.busy
    return total


# Per-layer metric definitions: (kind, span names). "incl" sums busy time of
# the outermost named spans; "self" sums their self time.
LAYER_TIMES = {
    "geometry.raycast_s": ("incl", ["geometry.ray_mesh_first_hit"]),
    "gripper.contacts_self_s": ("self", ["gripper.resolve_contacts_batch", "gripper.resolve_contacts"]),
    "candidates.enum_self_s": ("self", ["candidates.CandidateEnumerator.__iter__"]),
    "candidates.grid_s": ("incl", ["candidates.CandidateGrid.build"]),
    "pipeline.self_s": ("self", ["pipeline.label_mesh"]),
    "pipeline.score_s": ("incl", ["pipeline.score_frames"]),
    "spatial.knn_s": ("incl", ["spatial.SpatialIndex.knn_batch"]),
    "metrics.normalize_s": ("incl", ["metrics.normalize_and_combine"]),
    "labels.write_s": ("incl", ["labels.write_labels"]),
    "labels.read_s": ("incl", ["labels.read_predictions", "labels.read_labels"]),
    "scene.nms_s": ("incl", ["scene.grasp_nms"]),
    "scene.collision_s": ("incl", ["gripper.gripper_collides", "gripper.collision_box_corners"]),
    "scene.eval_self_s": ("self", ["scene.evaluate_ap"]),
    "meshio.load_s": ("incl", ["meshio.load_mesh"]),
    "mesh.sample_s": ("incl", ["mesh.sample_surface"]),
    "mesh.mass_s": ("incl", ["mesh.mass_properties"]),
    "spatial.build_s": ("incl", ["spatial.SpatialIndex.from_mesh"]),
    "scene.build_s": ("incl", ["scene.build_scene"]),
}

LAYER_COUNTS = (
    "geometry.rays",
    "geometry.hits",
    "candidates.cells",
    "candidates.valid",
    "spatial.knn_queries",
    "labels.rows_written",
    "labels.bytes_written",
    "labels.rows_read",
    "scene.nms_kept",
    "scene.collision_calls",
    "scene.collided",
    "mesh.samples",
)

# Children of evaluate_ap that are not the NMS or collision stages make up
# the true-score recompute (association, contact resolution, scoring).
_NOT_TRUESCORE = {"scene.grasp_nms", "gripper.gripper_collides", "gripper.collision_box_corners"}


def layer_metrics(spans: list[Span], counters: dict[str, int], n_ops: int) -> dict[str, float]:
    """Per-operation averages of every per-layer metric over ``n_ops`` ops."""
    selfs = self_times(spans)
    out = {}
    for metric, (kind, names) in LAYER_TIMES.items():
        if kind == "incl":
            total = inclusive_times(spans, names)
        else:
            total = sum(selfs[s.id] for s in spans if s.name in names)
        out[metric] = total / n_ops
    eval_ids = {s.id for s in spans if s.name == "scene.evaluate_ap"}
    out["scene.truescore_s"] = sum(
        s.busy for s in spans if s.parent in eval_ids and s.name not in _NOT_TRUESCORE
    ) / n_ops
    for key in LAYER_COUNTS:
        out[key] = counters.get(key, 0) / n_ops
    cells = counters.get("candidates.cells", 0)
    out["candidates.valid_ratio"] = counters.get("candidates.valid", 0) / cells if cells else 0.0
    return out


def self_time_table(spans: list[Span], n_ops: int, op_s: float) -> str:
    """Text table of self and inclusive time per span name, per operation."""
    selfs = self_times(spans)
    rows: dict[str, list[float]] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[s.id]
    for name, row in rows.items():
        row[2] = inclusive_times(spans, [name])
    lines = [f"{'span':<44} {'calls/op':>9} {'self s/op':>10} {'self %':>7} {'incl s/op':>10}"]
    for name, (calls, self_s, incl_s) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        share = 100.0 * self_s / n_ops / op_s if op_s > 0 else 0.0
        lines.append(
            f"{name:<44} {calls / n_ops:>9.1f} {self_s / n_ops:>10.4f} {share:>6.1f}% {incl_s / n_ops:>10.4f}"
        )
    return "\n".join(lines)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
