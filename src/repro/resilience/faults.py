"""Deterministic fault injection for the sweep executor.

Real batch failures — a crash, a corrupt result, an operator's Ctrl-C
— are timing-dependent and miserable to reproduce in tests.  This
module replaces them with a *plan*: a description of exactly which
batch, on exactly which attempt, misbehaves in exactly which way.  The
executor threads the plan into :func:`~repro.experiments.engine.
executor._run_cells`, so the fault fires inside the batch (on the main
thread or a pool thread) at the same point a real failure would.

Fault kinds
-----------
``crash``
    Raise :class:`InjectedFault` before the batch computes anything.
    With ``times=k`` the batch is *flaky*: it fails on its first ``k``
    attempts and then succeeds — the shape retry logic exists for.
``corrupt``
    Compute normally but return a mangled result (one point dropped),
    exercising the executor's result validation.
``interrupt``
    Send ``SIGINT`` to the current process before computing — a
    deterministic stand-in for the operator's Ctrl-C mid-sweep.  The
    handler runs on the main thread, which stops the sweep at its next
    batch boundary.

Every decision is a pure function of ``(batch_index, attempt)``, so a
faulted run is as reproducible as a healthy one.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ExperimentError

#: The misbehaviors a :class:`FaultSpec` can inject.
FAULT_KINDS = ("crash", "corrupt", "interrupt")


class InjectedFault(RuntimeError):
    """The stand-in exception a ``crash`` fault raises inside a batch."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned misbehavior.

    ``batch`` is the batch's scheduling index (the executor numbers
    batches in canonical plan order).  ``times`` bounds how many
    attempts fire the fault: ``times=2`` fails attempts 0 and 1 and lets
    attempt 2 succeed; ``times=None`` fires on every attempt.  ``kind``
    must be one of :attr:`kinds`; a harness with its own vocabulary
    subclasses and overrides it.
    """

    kinds: ClassVar[tuple[str, ...]] = FAULT_KINDS

    kind: str
    batch: int
    times: int | None = 1

    def __post_init__(self) -> None:
        if self.kind not in self.kinds:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(self.kinds)
            )
        if self.times is not None and self.times < 1:
            raise ExperimentError(
                f"fault times must be >= 1 or None, got {self.times}"
            )

    def fires(self, batch_index: int, attempt: int) -> bool:
        """Whether this fault triggers for one (batch, attempt)."""
        if batch_index != self.batch:
            return False
        return self.times is None or attempt < self.times


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec` the executor consults.

    ``before`` runs ahead of a batch's computation (crash / interrupt
    kinds); ``after`` post-processes the computed points (corrupt
    kind).  A plan with no matching spec is a no-op, so production code
    paths can thread ``faults=None`` or an empty plan at zero
    behavioral cost.
    """

    specs: tuple[FaultSpec, ...] = ()

    def before(self, batch_index: int, attempt: int) -> None:
        """Fire any pre-compute faults planned for this attempt."""
        for spec in self.specs:
            if not spec.fires(batch_index, attempt):
                continue
            if spec.kind == "crash":
                raise InjectedFault(
                    f"injected crash: batch {batch_index}, attempt {attempt}"
                )
            if spec.kind == "interrupt":
                os.kill(os.getpid(), signal.SIGINT)

    def corrupts(self, batch_index: int, attempt: int) -> bool:
        """Whether a ``corrupt`` fault fires for this attempt."""
        return any(
            spec.kind == "corrupt" and spec.fires(batch_index, attempt)
            for spec in self.specs
        )

    def after(self, batch_index: int, attempt: int, points: list) -> list:
        """Post-process a batch's computed points (corrupt faults)."""
        if self.corrupts(batch_index, attempt):
            return points[:-1]
        return points


def crash_on(batch: int, times: int | None = 1) -> FaultSpec:
    """A batch that crashes on its first ``times`` attempts."""
    return FaultSpec(kind="crash", batch=batch, times=times)


def corrupt_on(batch: int, times: int | None = 1) -> FaultSpec:
    """A batch that returns a mangled result on its first attempts."""
    return FaultSpec(kind="corrupt", batch=batch, times=times)


def interrupt_on(batch: int) -> FaultSpec:
    """A batch that delivers SIGINT to the sweep, as Ctrl-C would."""
    return FaultSpec(kind="interrupt", batch=batch, times=1)


def plan(*specs: FaultSpec) -> FaultPlan:
    """Bundle fault specs into a :class:`FaultPlan`."""
    return FaultPlan(specs=tuple(specs))
