"""``repro.resilience`` — fault tolerance for long-running execution.

The sweep engine's failure story lives here, split from the executor so
policy and mechanism stay testable on their own:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: bounded
  retries with exponential backoff and deterministic jitter.
* :mod:`repro.resilience.faults` — :class:`FaultPlan`/:class:`FaultSpec`:
  deterministic injection of crashes, corrupt results and interrupts,
  keyed by (batch, attempt).
* :mod:`repro.resilience.signals` — :func:`interrupt_guard`: cooperative
  SIGINT/SIGTERM shutdown.

See ``docs/resilience.md`` for the failure-mode tour and the guarantees
the executor builds on these pieces.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_on,
    crash_on,
    interrupt_on,
    plan,
)
from repro.resilience.policy import DEFAULT_POLICY, RetryPolicy
from repro.resilience.signals import InterruptFlag, interrupt_guard

__all__ = [
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InterruptFlag",
    "RetryPolicy",
    "corrupt_on",
    "crash_on",
    "interrupt_guard",
    "interrupt_on",
    "plan",
]
