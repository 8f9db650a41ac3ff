"""Deterministic fault injection for the sweep executor.

Real batch failures — a crash, an operator's Ctrl-C — are
timing-dependent and miserable to reproduce in tests.  This module
replaces them with a *plan*: a description of exactly which batch
misbehaves in exactly which way.  The executor threads the plan into
:func:`~repro.experiments.engine.executor._run_cells`, so the fault
fires inside the batch (on the main thread or a pool thread) at the
same point a real failure would.

Fault kinds
-----------
``crash``
    Raise :class:`InjectedFault` before the batch computes anything,
    which stops the sweep with every earlier batch already cached.
``interrupt``
    Send ``SIGINT`` to the current process before computing — a
    deterministic stand-in for the operator's Ctrl-C mid-sweep.  The
    handler runs on the main thread, which stops the sweep at its next
    batch boundary.

Every decision is a pure function of the batch index, so a faulted run
is as reproducible as a healthy one.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ExperimentError, ReproError

#: The misbehaviors a :class:`FaultSpec` can inject.
FAULT_KINDS = ("crash", "interrupt")


class InjectedFault(RuntimeError):
    """The stand-in exception a ``crash`` fault raises inside a batch."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned misbehavior.

    ``batch`` is the batch's scheduling index (the executor numbers
    batches in canonical plan order).  ``kind`` must be one of
    :attr:`kinds`, or the spec raises :attr:`error`; a harness with its
    own vocabulary subclasses and overrides both.
    """

    kinds: ClassVar[tuple[str, ...]] = FAULT_KINDS
    error: ClassVar[type[ReproError]] = ExperimentError

    kind: str
    batch: int

    def __post_init__(self) -> None:
        if self.kind not in self.kinds:
            raise self.error(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(self.kinds)
            )

    def fires(self, batch_index: int) -> bool:
        """Whether this fault triggers for one batch."""
        return batch_index == self.batch


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec` the executor consults.

    ``before`` runs ahead of a batch's computation.  A plan with no
    matching spec is a no-op, so production code paths can thread
    ``faults=None`` or an empty plan at zero behavioral cost.
    """

    specs: tuple[FaultSpec, ...] = ()

    def before(self, batch_index: int) -> None:
        """Fire any faults planned for this batch."""
        for spec in self.specs:
            if not spec.fires(batch_index):
                continue
            if spec.kind == "crash":
                raise InjectedFault(f"injected crash: batch {batch_index}")
            if spec.kind == "interrupt":
                os.kill(os.getpid(), signal.SIGINT)


def crash_on(batch: int) -> FaultSpec:
    """A batch that crashes before computing anything."""
    return FaultSpec(kind="crash", batch=batch)


def interrupt_on(batch: int) -> FaultSpec:
    """A batch that delivers SIGINT to the sweep, as Ctrl-C would."""
    return FaultSpec(kind="interrupt", batch=batch)


def plan(*specs: FaultSpec) -> FaultPlan:
    """Bundle fault specs into a :class:`FaultPlan`."""
    return FaultPlan(specs=tuple(specs))
