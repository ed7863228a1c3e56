"""Wall-clock spans recorded around calls into the engine's layers.

The engine's own tracer runs on the simulated clock, so the benchmark
keeps its own: :class:`SpanRecorder` stores one record per call of a
wrapped entry point, and :class:`Patcher` installs the wrappers at every
binding site of a target (the defining module or class, plus every
``from x import f`` copy in a loaded ``repro`` module) and removes them
again.

Span records live in memory until the run ends, when
:meth:`SpanRecorder.write` stores them in one file.  Each holds its layer,
label, parent span, op id and start/end (``time.perf_counter``).  Every
thread keeps its own span stack.  The lifecycle manager runs a served
query on a thread of its own while the submitting thread blocks, so a
span opened on a thread whose stack is empty is parented to the
innermost span open on the op's driving thread: that span is the one
waiting for it, and it stays inside the op's root span tree.

Self time is a span's duration minus the part of its interval that its
children cover (overlapping children are merged first).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

# Record field positions.
LAYER, LABEL, PARENT, OP, START, END = range(6)

#: Layer of the per-op root span the harness opens around each op.
ROOT = "op"


class SpanRecorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[layer, label, parent, op, start, end]`` per span.
        self.records: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._driver: Optional[int] = None
        self._lock = threading.Lock()
        self.op_id: Optional[int] = None
        #: (label, phase) -> items counted by counting wrappers.
        self.counts: dict[tuple[str, str], int] = {}

    # -- op roots ------------------------------------------------------
    def begin_op(self, op_id: int, label: str) -> int:
        """Open the root span of op ``op_id`` on the calling thread,
        which becomes the op's driving thread."""
        self._driver = threading.get_ident()
        self.op_id = op_id
        return self.begin(ROOT, label)

    def end_op(self, index: int) -> None:
        self.end(index)
        self.op_id = None

    # -- spans -----------------------------------------------------------
    def begin(self, layer: str, label: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1]
        else:
            driver = self._stacks.get(self._driver)
            parent = driver[-1] if driver else -1
        record = [layer, label, parent, self.op_id, 0.0, 0.0]
        # The lifecycle's baton runs one thread at a time, but the index
        # must match the appended record even if two threads overlap.
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        record[START] = self.clock()
        return index

    def end(self, index: int) -> None:
        self.records[index][END] = self.clock()
        self._stacks[threading.get_ident()].pop()

    def count(self, label: str, amount: int) -> None:
        """Add ``amount`` items to ``label``'s tally for the current
        phase: ``"setup"`` (op ids below zero) or ``"ops"``."""
        if self.op_id is None:
            return
        key = (label, "setup" if self.op_id < 0 else "ops")
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- analysis --------------------------------------------------------
    def write(self, path: Path, **meta: Any) -> None:
        """Write every span to ``path`` as gzipped JSON: ``meta``, the
        ``names`` table, and one ``[layer, label, parent, op, start_us,
        end_us]`` row per span (layer and label index ``names``; times
        in microseconds from the first span)."""
        names: dict[str, int] = {}
        origin = self.records[0][START] if self.records else 0.0
        rows = [
            [
                names.setdefault(record[LAYER], len(names)),
                names.setdefault(record[LABEL], len(names)),
                record[PARENT],
                record[OP],
                round((record[START] - origin) * 1e6, 1),
                round((record[END] - origin) * 1e6, 1),
            ]
            for record in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({**meta, "names": list(names), "spans": rows}, out)


def self_times(records: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    clipped to its own; records must all be closed."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in records:
        parent = record[PARENT]
        if parent >= 0:
            children.setdefault(parent, []).append(
                (record[START], record[END])
            )
    out = []
    for index, record in enumerate(records):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append(max(end - start - covered, 0.0))
    return out


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``owner`` is a dotted module path, optionally followed by ``:Class``;
    ``attribute`` names the function or method.  ``layer`` may be a
    callable ``(args) -> (layer, label)`` for entry points whose layer
    depends on the receiver (RDD ``compute``).  ``outermost`` skips
    nested calls of a recursive function.  ``count`` returns how many
    items a call handles, summed per label.  ``modules`` limits the
    ``from x import f`` rebinding to the named modules (default: every
    loaded ``repro`` module).
    """

    owner: str
    attribute: str
    layer: Any
    label: Optional[str] = None
    outermost: bool = False
    count: Optional[Callable[[tuple], int]] = None
    modules: Optional[tuple[str, ...]] = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        module = __import__(module_name, fromlist=["_"])
    return module, (getattr(module, class_name) if class_name else None)


def _wrap(recorder: SpanRecorder, target: Target, fn: Callable):
    label = target.label or f"{target.owner}.{target.attribute}"
    layer = target.layer
    count = target.count
    begin = recorder.begin
    end = recorder.end

    if callable(layer):
        classify = layer

        @functools.wraps(fn)
        def dynamic(*args, **kwargs):
            span = begin(*classify(args))
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return dynamic

    if target.outermost:
        active = threading.local()

        @functools.wraps(fn)
        def outermost(*args, **kwargs):
            if getattr(active, "on", False):
                return fn(*args, **kwargs)
            active.on = True
            span = begin(layer, label)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)
                active.on = False

        return outermost

    if count is not None:

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            recorder.count(label, count(args))
            span = begin(layer, label)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return counting

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        span = begin(layer, label)
        try:
            return fn(*args, **kwargs)
        finally:
            end(span)

    return plain


class Patcher:
    """Installs wrappers for a list of targets and restores the
    originals on :meth:`uninstall`."""

    def __init__(self, recorder: SpanRecorder, targets: list[Target]):
        self.recorder = recorder
        self.targets = targets
        #: (namespace object, attribute, original value) per patched site.
        self._sites: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._sites:
            return
        for target in self.targets:
            module, cls = _resolve(target.owner)
            if cls is not None:
                self._patch_method(cls, target)
            else:
                self._patch_function(module, target)

    def _patch_method(self, cls, target: Target) -> None:
        raw = cls.__dict__[target.attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(self.recorder, target, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(self.recorder, target, raw.__func__))
        else:
            wrapped = _wrap(self.recorder, target, raw)
        self._sites.append((cls, target.attribute, raw))
        setattr(cls, target.attribute, wrapped)

    def _patch_function(self, module, target: Target) -> None:
        original = getattr(module, target.attribute)
        wrapped = _wrap(self.recorder, target, original)
        if target.modules is not None:
            names = target.modules
        else:
            names = [
                name
                for name in list(sys.modules)
                if name == "repro" or name.startswith("repro.")
            ]
        for name in names:
            namespace = sys.modules.get(name)
            if namespace is None:
                namespace = __import__(name, fromlist=["_"])
            for attribute, value in list(vars(namespace).items()):
                if value is original:
                    self._sites.append((namespace, attribute, original))
                    setattr(namespace, attribute, wrapped)

    def uninstall(self) -> None:
        for namespace, attribute, original in reversed(self._sites):
            setattr(namespace, attribute, original)
        self._sites.clear()
