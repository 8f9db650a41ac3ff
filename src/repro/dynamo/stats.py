"""Result records of Dynamo simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.core import Registry, get_registry


@dataclass(frozen=True)
class CycleBreakdown:
    """Where the simulated run's cycles went."""

    interpretation: float = 0.0
    profiling: float = 0.0
    selection: float = 0.0
    fragment_execution: float = 0.0
    dispatch: float = 0.0
    flushes: float = 0.0

    @property
    def total(self) -> float:
        """All cycles spent under Dynamo."""
        return (
            self.interpretation
            + self.profiling
            + self.selection
            + self.fragment_execution
            + self.dispatch
            + self.flushes
        )

    def publish(self, obs: Registry | None) -> None:
        """Accumulate this breakdown into an obs registry.

        One counter per component (relative to ``obs``), so cycles sum
        cleanly across runs.  No-op on the null registry.
        """
        reg = get_registry(obs)
        reg.counter("interpretation").inc(self.interpretation)
        reg.counter("profiling").inc(self.profiling)
        reg.counter("selection").inc(self.selection)
        reg.counter("fragment_execution").inc(self.fragment_execution)
        reg.counter("dispatch").inc(self.dispatch)
        reg.counter("flushes").inc(self.flushes)


@dataclass(frozen=True)
class DynamoRun:
    """Outcome of simulating one (benchmark, scheme, delay) cell.

    ``speedup_percent`` is Dynamo's gain over native execution, the
    quantity Figure 5 plots: positive means Dynamo is faster.
    """

    benchmark: str
    scheme: str
    delay: int
    native_cycles: float
    dynamo_cycles: float
    breakdown: CycleBreakdown
    num_fragments: int
    emitted_instructions: int
    flushes: int
    bailed_out: bool
    #: Warm (post-warm-up) Dynamo cycles per native cycle.
    steady_rate: float = 1.0
    #: Run-length extension applied (see DynamoConfig.amortization).
    amortization: float = 1.0
    #: Fragments resident in the cache when the run ended.
    resident_fragments: int = 0
    #: Fraction of resident fragments not executed in the run's last
    #: tenth — the phase-induced noise the flush heuristic removes.
    dead_fragment_fraction: float = 0.0

    @property
    def speedup_percent(self) -> float:
        """Speedup over native execution (Figure 5's x-axis)."""
        if self.dynamo_cycles <= 0:
            return 0.0
        return 100.0 * (self.native_cycles / self.dynamo_cycles - 1.0)

    def render(self) -> str:
        """One-line report form."""
        tag = " BAIL-OUT" if self.bailed_out else ""
        return (
            f"{self.benchmark:>10s} {self.scheme:>12s} τ={self.delay:<4d} "
            f"speedup={self.speedup_percent:+7.2f}% "
            f"fragments={self.num_fragments:>6,} flushes={self.flushes}{tag}"
        )

    def publish(self, obs: Registry | None) -> None:
        """Accumulate this run's accounting into an obs registry.

        Counters (relative to ``obs``): ``runs``, ``native_cycles``,
        ``dynamo_cycles``, ``fragments``, ``emitted_instructions``,
        ``flushes``, ``bail_outs`` and the per-component cycle counters
        under ``cycles.*``.  ``resident_fragments`` is a gauge (last run
        wins).  No-op on the null registry.
        """
        reg = get_registry(obs)
        reg.counter("runs").inc()
        reg.counter("native_cycles").inc(self.native_cycles)
        reg.counter("dynamo_cycles").inc(self.dynamo_cycles)
        reg.counter("fragments").inc(self.num_fragments)
        reg.counter("emitted_instructions").inc(self.emitted_instructions)
        reg.counter("flushes").inc(self.flushes)
        if self.bailed_out:
            reg.counter("bail_outs").inc()
        reg.gauge("resident_fragments").set(self.resident_fragments)
        self.breakdown.publish(reg.child("cycles"))
