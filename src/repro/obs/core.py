"""Metric primitives and the hierarchical registry.

The observability layer is deliberately tiny and dependency-free: three
primitives (:class:`Counter`, :class:`Gauge`, :class:`Timer`), one
container (:class:`Registry`) that names them hierarchically with dotted
prefixes, and a :class:`NullRegistry` whose instruments are shared
no-ops so instrumented code costs nothing when observability is off.

Conventions
-----------
* Names are dotted paths (``"sweep.cache.hits"``); a :meth:`Registry.child`
  view prepends its prefix to every name and shares the parent's storage,
  so any layer can be handed a sub-registry without knowing where it is
  mounted.
* Counters only go up; gauges hold the last value written; timers
  accumulate total seconds and an observation count.
* :meth:`Registry.snapshot` renders everything into plain dicts (JSON
  ready) and :meth:`Registry.merge` folds such a snapshot back in —
  the mechanism the sweep engine uses to combine each batch's
  measurements as the batch completes: counters and timers add, gauges
  last-write-win.
* Instrumented code should take an ``obs`` argument defaulting to
  ``None`` and normalize it with :func:`get_registry`; the null registry
  it falls back to makes every instrument call a no-op.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Counter:
    """A monotonically increasing number (usually an integer count;
    accumulated cycle totals use float amounts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time value; keeps the last write."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Timer:
    """Accumulated wall time over any number of observations."""

    __slots__ = ("total_seconds", "count")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.count += 1


class Registry:
    """A named, hierarchical collection of instruments.

    Instruments are created on first use and identified by their full
    dotted name; asking twice for the same name returns the same object.
    ``child(prefix)`` mounts a view whose instruments live in the same
    flat storage under ``prefix.…`` — cheap, and snapshots of the root
    see every descendant.
    """

    #: Null registries flip this off; hot paths may check it to skip
    #: whole instrumentation blocks instead of issuing no-op calls.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._phases: list[str] = []

    # -- instruments ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def timer(self, name: str) -> Timer:
        """The timer called ``name`` (created on first use)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer()
        return timer

    # -- timing --------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Time a ``with`` block into ``timer(name)``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.timer(name).observe(time.perf_counter() - start)

    @contextmanager
    def phase(self, name: str):
        """A top-level :meth:`span` that also records run-phase order.

        Phases appear (in entry order, once each) in snapshots and run
        manifests; their wall time lives in the ``phase.{name}`` timer.
        """
        self._register_phase(name)
        with self.span(f"phase.{name}"):
            yield self

    def _register_phase(self, name: str) -> None:
        if name not in self._phases:
            self._phases.append(name)

    # -- hierarchy -----------------------------------------------------
    def child(self, prefix: str) -> "Registry":
        """A view of this registry under ``prefix``."""
        return _ChildRegistry(self, prefix)

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> dict:
        """Everything measured so far, as plain JSON-ready dicts."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "timers": {
                name: {
                    "total_seconds": timer.total_seconds,
                    "count": timer.count,
                }
                for name, timer in sorted(self._timers.items())
            },
            "phases": list(self._phases),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a sweep batch) into this
        registry: counters and timers accumulate, gauges take the
        snapshot's value, unseen phases append in snapshot order.

        Merging into a :meth:`child` view prefixes every merged name —
        the way per-batch snapshots (whose names are relative to the
        batch's local registry) are mounted at the right point of the
        parent's hierarchy.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, record in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.total_seconds += record["total_seconds"]
            timer.count += record["count"]
        for name in snapshot.get("phases", []):
            self._register_phase(name)


class _ChildRegistry(Registry):
    """A prefix view sharing its root's storage (see :meth:`Registry.child`)."""

    def __init__(self, root: Registry, prefix: str):
        self._root = root
        self._prefix = prefix

    def _full(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._root.counter(self._full(name))

    def gauge(self, name: str) -> Gauge:
        return self._root.gauge(self._full(name))

    def timer(self, name: str) -> Timer:
        return self._root.timer(self._full(name))

    def _register_phase(self, name: str) -> None:
        # Phases are a run-level concept: the ordered list lives on the
        # root, with this view's prefix baked into the name.
        self._root._register_phase(self._full(name))

    @contextmanager
    def phase(self, name: str):
        # Delegate wholesale so the phase timer lands at the root's
        # ``phase.{full name}`` — where manifests look it up.
        with self._root.phase(self._full(name)):
            yield self

    def child(self, prefix: str) -> Registry:
        return _ChildRegistry(self._root, self._full(prefix))

    def snapshot(self) -> dict:
        """The *root's* snapshot — one flat namespace per run."""
        return self._root.snapshot()


class _NullInstrument:
    """One object serving as no-op counter, gauge and timer."""

    __slots__ = ()
    value = 0
    total_seconds = 0.0
    count = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "NullRegistry":
        return NULL_REGISTRY

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = _NullSpan()


class NullRegistry(Registry):
    """The disabled registry: every instrument is a shared no-op.

    Instrumented code can call it unconditionally; nothing allocates,
    nothing is recorded, ``snapshot()`` is empty.  Hot loops may check
    :attr:`enabled` to skip instrumentation blocks wholesale.
    """

    enabled = False

    def __init__(self) -> None:
        pass

    def counter(self, name: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def span(self, name: str):
        return _NULL_SPAN

    def phase(self, name: str):
        return _NULL_SPAN

    def child(self, prefix: str) -> Registry:
        return self

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}, "phases": []}

    def merge(self, snapshot: dict) -> None:
        pass


#: The shared disabled registry instrumented code falls back to.
NULL_REGISTRY = NullRegistry()


def get_registry(obs: Registry | None) -> Registry:
    """Normalize an optional ``obs`` argument to a usable registry."""
    return obs if obs is not None else NULL_REGISTRY
