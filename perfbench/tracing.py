"""Spans, self times and the wrappers of a traced benchmark run.

A traced run replaces each layer's public functions and methods with a
wrapper that records one :class:`Span` per call: the layer name, start,
end and the span that was open when the call began.  Spans stay in
memory; :func:`layer_report` turns them into per-layer call counts and
self times (a span's duration minus the part its direct children
cover), and the root spans' own self time becomes ``unattributed_s``,
so the layer self times plus ``unattributed_s`` add up to the traced
wall time by construction.

A function is replaced at *every* binding of its object across the
loaded ``repro`` modules, because ``from x import f`` copies the
binding: patching only the defining module misses every caller that
imported the name.  Methods are replaced on the class that defines
them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Name prefix of the modules whose bindings :meth:`Patcher.patch_function`
#: rewrites.
PACKAGE = "repro"


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the enclosing span."""

    id: int
    layer: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-layer counts in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record the enclosed block as one span of ``layer``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, layer, start, end, parent))

    def wrap(
        self,
        layer: str,
        fn: Callable,
        counter: Callable[[tuple, dict, object], dict] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``.

        ``counter(args, kwargs, result)`` returns counts to add under
        ``<layer>.<name>`` after each call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{name}"] += value
            return result

        return traced


class Patcher:
    """Installs wrappers and puts the originals back on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def patch_method(
        self, cls: type, name: str, wrap: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``wrap(fn)``."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(cls, name, new)
        self._undo.append(lambda: setattr(cls, name, raw))

    def patch_function(
        self, fn: Callable, wrap: Callable[[Callable], Callable]
    ) -> int:
        """Replace every binding of ``fn`` in the loaded package modules.

        Returns the number of bindings replaced; raises ``LookupError``
        when there is none, since then no caller would be traced.
        """
        wrapper = wrap(fn)
        bindings = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE
                or module_name.startswith(PACKAGE + ".")
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    namespace[attr] = wrapper
                    self._undo.append(
                        functools.partial(namespace.__setitem__, attr, fn)
                    )
                    bindings += 1
        if not bindings:
            raise LookupError(
                f"{fn.__module__}.{fn.__qualname__} is bound in no loaded "
                f"{PACKAGE} module"
            )
        return bindings

    def patch_field(
        self, obj: object, name: str, wrap: Callable[[Callable], Callable]
    ) -> None:
        """Replace a callable field, also on a frozen dataclass."""
        old = getattr(obj, name)
        object.__setattr__(obj, name, wrap(old))
        self._undo.append(lambda: object.__setattr__(obj, name, old))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0–100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_report(
    spans: list[Span], layers: list[str], roots: set[str]
) -> dict[str, float]:
    """Per-layer ``calls`` and ``self_s``, plus the wall-time balance.

    ``roots`` names the spans the benchmark opens around its timed
    calls; their summed duration is ``traced_wall_s`` and their own self
    time, which no layer claims, is ``unattributed_s``.  Every span must
    belong to a root or to one of ``layers``.
    """
    own = self_times(spans)
    report: dict[str, float] = {}
    for layer in layers:
        report[f"{layer}.calls"] = 0
        report[f"{layer}.self_s"] = 0.0
    wall = unattributed = 0.0
    for span in spans:
        if span.layer in roots:
            if span.parent is not None:
                raise ValueError(f"root span {span.layer} has a parent")
            wall += span.duration
            unattributed += own[span.id]
        elif span.layer in layers:
            if span.parent is None:
                raise ValueError(f"{span.layer} span outside any root")
            report[f"{span.layer}.calls"] += 1
            report[f"{span.layer}.self_s"] += own[span.id]
        else:
            raise ValueError(f"span of unknown layer {span.layer!r}")
    report["traced_wall_s"] = wall
    report["unattributed_s"] = unattributed
    return report
