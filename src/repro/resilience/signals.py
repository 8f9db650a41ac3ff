"""Graceful-shutdown signal handling for long-running sweeps.

:func:`interrupt_guard` converts SIGINT/SIGTERM from "kill the process
mid-write" into a cooperative flag the executor polls between units of
work: on the first signal the sweep stops *submitting*, drains what
already completed, flushes the cache, and raises a structured
:class:`~repro.errors.SweepInterrupted` carrying the partial results.
A second signal while draining falls back to an immediate
``KeyboardInterrupt`` so an operator is never locked out.

Signal handlers can only be installed from the main thread; anywhere
else the guard degrades to an inert flag and the default Python
behavior (``KeyboardInterrupt`` in the main thread) applies.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager


class InterruptFlag:
    """Records whether (and by which signal) a run was interrupted."""

    def __init__(self) -> None:
        self.fired = False
        self.signal_name = "SIGINT"

    def trip(self, signal_name: str) -> None:
        self.fired = True
        self.signal_name = signal_name


@contextmanager
def interrupt_guard():
    """Trap SIGINT/SIGTERM into an :class:`InterruptFlag` for a block.

    Yields the flag; callers poll ``flag.fired`` at safe points.  The
    previous handlers are restored on exit, however the block ends.  A
    repeated signal while the flag is already set raises
    ``KeyboardInterrupt`` immediately (the "I really mean it" escape
    hatch).
    """
    flag = InterruptFlag()
    if threading.current_thread() is not threading.main_thread():
        # Handlers are a main-thread privilege; run unguarded.
        yield flag
        return

    def handler(signum, frame):
        if flag.fired:
            raise KeyboardInterrupt
        flag.trip(signal.Signals(signum).name)

    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handler)
    except (ValueError, OSError):
        # Exotic embedding; restore whatever we managed and run unguarded.
        for signum, old in previous.items():
            signal.signal(signum, old)
        yield flag
        return
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
