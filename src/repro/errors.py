"""Exception hierarchy shared across the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem at fault.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class CFGError(ReproError):
    """A control-flow graph is malformed or an operation on it is invalid."""


class CFGValidationError(CFGError):
    """A :class:`repro.cfg.Program` failed structural validation.

    Carries the full list of findings so callers can report every problem at
    once instead of fixing them one by one.
    """

    def __init__(self, findings: list[str]):
        self.findings = list(findings)
        summary = "; ".join(self.findings[:5])
        if len(self.findings) > 5:
            summary += f"; … ({len(self.findings) - 5} more)"
        super().__init__(f"CFG validation failed: {summary}")


class AssemblerError(ReproError):
    """The ISA assembler rejected a source program."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class MachineError(ReproError):
    """The ISA interpreter encountered a fault (bad address, div by zero…)."""


class MachineLimitExceeded(MachineError):
    """The ISA interpreter hit its configured step budget.

    Used to bound runaway programs in tests and examples; carries the number
    of executed steps for diagnostics.
    """

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"execution exceeded the step budget of {steps}")


class TraceError(ReproError):
    """A branch-event stream violated the trace invariants."""


class WireFormatError(TraceError):
    """A serialized :class:`~repro.trace.batch.EventBatch` payload is
    malformed.

    Raised by :mod:`repro.serving.wire` for truncated buffers, bad
    magic, unsupported format versions, and column values outside their
    domain.  A :class:`TraceError` subclass because the wire format is a
    trace representation: callers catching trace-stream problems catch
    wire problems too.
    """


class FrameTooLargeError(WireFormatError):
    """A transport frame's length prefix exceeds the configured cap.

    Raised *before* any allocation is attempted, so a hostile or
    corrupt length prefix can never drive an unbounded read.  Carries
    the declared and permitted sizes for diagnostics.
    """

    def __init__(self, declared: int, limit: int):
        self.declared = declared
        self.limit = limit
        super().__init__(
            f"frame of {declared} bytes exceeds the {limit}-byte limit"
        )


class ProfilingError(ReproError):
    """A profiling scheme was misused or fed inconsistent data."""


class PredictionError(ReproError):
    """An online predictor was misused or fed inconsistent data."""


class WorkloadError(ReproError):
    """A workload definition is inconsistent or cannot be generated."""


class DynamoError(ReproError):
    """The Dynamo simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ServingError(ReproError):
    """The prediction server was misused or reached an invalid state."""


class BackpressureError(ServingError):
    """A tenant's bounded ingest queue is full; the caller should retry.

    The server rejects rather than buffers: ``retry_after_seconds`` is
    the server's hint for when capacity is likely to be available, and
    ``queued_events``/``capacity`` describe the queue at rejection time
    so clients and load generators can adapt their pacing.
    """

    def __init__(
        self,
        tenant_id: str,
        queued_events: int,
        capacity: int,
        retry_after_seconds: float,
    ):
        self.tenant_id = tenant_id
        self.queued_events = queued_events
        self.capacity = capacity
        self.retry_after_seconds = retry_after_seconds
        super().__init__(
            f"tenant {tenant_id!r} ingest queue full "
            f"({queued_events}/{capacity} events queued); "
            f"retry after {retry_after_seconds:.3f}s"
        )


class SequenceError(ServingError):
    """A tenant batch arrived with an inadmissible sequence number.

    ``expected`` is the next sequence number the server will apply for
    the tenant; ``got`` is what the batch carried.  A *gap* (``got >
    expected``) means the client skipped ahead and must back up; a
    *rewrite* (``got`` already applied but with a different payload
    digest than the original) means the client is trying to change
    history and the stream cannot be trusted.
    """

    def __init__(
        self,
        tenant_id: str,
        expected: int,
        got: int,
        reason: str = "gap",
    ):
        self.tenant_id = tenant_id
        self.expected = expected
        self.got = got
        self.reason = reason
        super().__init__(
            f"tenant {tenant_id!r} batch seq {got} is inadmissible "
            f"({reason}); next expected seq is {expected}"
        )


class DrainingError(ServingError):
    """The server is draining and admits no new work; retry elsewhere.

    Raised (and sent as a typed reply) for every admission attempted
    after :meth:`~repro.serving.server.PredictionServer.drain` begins.
    ``retry_after_seconds`` hints when a replacement server is expected
    to be reachable (a rolling restart's handover window).
    """

    def __init__(self, retry_after_seconds: float):
        self.retry_after_seconds = retry_after_seconds
        super().__init__(
            "server is draining and admits no new work; retry after "
            f"{retry_after_seconds:.3f}s"
        )


class ConnectionLostError(ServingError):
    """The serving client lost its connection past the retry budget.

    Raised by :class:`~repro.serving.transport.ServingClient` after its
    bounded reconnect-and-retry (for idempotent operations) or
    immediately (for non-idempotent ones).  The final transport failure
    is chained as ``__cause__``.
    """

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        suffix = f" after {attempts} attempts" if attempts else ""
        super().__init__(message + suffix)


class CheckpointError(ServingError):
    """A durable serving checkpoint could not be read or is invalid.

    Torn WAL tails are *not* errors (they are truncated on open, by
    design); this covers unrecoverable store states: foreign magic, a
    version this build does not speak, or a corrupt snapshot body.
    """


class SweepInterrupted(ExperimentError):
    """A sweep was stopped by SIGINT/SIGTERM before finishing.

    Carries the work that *did* complete: ``partial`` holds the finished
    :class:`~repro.experiments.sweep.SweepPoint` results in canonical
    order, ``completed``/``total`` count cells.  Every completed cell
    was already flushed to the sweep cache (when one was attached), so a
    rerun resumes without replaying them.
    """

    def __init__(
        self,
        partial: list | None = None,
        completed: int = 0,
        total: int = 0,
        signal_name: str = "SIGINT",
    ):
        self.partial = list(partial) if partial is not None else []
        self.completed = completed
        self.total = total
        self.signal_name = signal_name
        super().__init__(
            f"sweep interrupted by {signal_name} after "
            f"{completed}/{total} cells"
        )
