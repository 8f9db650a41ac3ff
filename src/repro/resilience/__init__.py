"""``repro.resilience`` — fault tolerance for long-running execution.

The failure story of the sweep engine and the serving layer lives here,
split from them so policy and mechanism stay testable on their own:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: the serving
  client's bounded reconnect-retries with exponential backoff and
  deterministic jitter.
* :mod:`repro.resilience.signals` — :func:`interrupt_guard`: cooperative
  SIGINT/SIGTERM shutdown.

See ``docs/resilience.md`` for the failure-mode tour and the guarantees
the executor builds on these pieces.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "policy": ("RetryPolicy",),
        "signals": ("InterruptFlag", "interrupt_guard"),
    },
)
