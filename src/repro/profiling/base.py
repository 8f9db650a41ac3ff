"""Shared interface of the concrete profilers.

A profiler consumes a stream of columnar
:class:`~repro.trace.batch.EventBatch` batches and builds a frequency
distribution over its profiling unit (paths, edges, blocks…).
Each profiler reports the two cost figures the paper compares schemes on:
counter space and dynamic profiling operations.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable
from dataclasses import dataclass

from repro.trace.batch import EventBatch


@dataclass(frozen=True)
class ProfileReport:
    """Outcome of a profiling run.

    ``frequencies`` maps the scheme's unit key (path signature, edge pair,
    block uid, …) to its observed count.
    """

    scheme: str
    frequencies: dict
    counter_space: int
    profiling_ops: int

    @property
    def num_units(self) -> int:
        """Distinct profiled units."""
        return len(self.frequencies)


class Profiler(abc.ABC):
    """Base class: feed event batches, then ask for the report."""

    #: Scheme name used in reports.
    name: str = "abstract"

    @abc.abstractmethod
    def observe_batch(self, batch: EventBatch) -> None:
        """Process the next batch of the stream.

        The report depends only on the stream, not on how it was split
        into batches.
        """

    @abc.abstractmethod
    def report(self) -> ProfileReport:
        """Finalize and return the profile."""

    def run(self, events: EventBatch | Iterable[EventBatch]) -> ProfileReport:
        """Convenience: observe a whole stream and report.

        Accepts one :class:`~repro.trace.batch.EventBatch` or an
        iterable of batches forming one stream.
        """
        if isinstance(events, EventBatch):
            events = (events,)
        for batch in events:
            self.observe_batch(batch)
        return self.report()
