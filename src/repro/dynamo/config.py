"""Cost-model configuration of the Dynamo simulator.

All costs are in abstract cycles per unit, scaled so that one native
instruction costs 1.  The defaults are calibrated to paper-era figures:
Dynamo's interpreter ran at roughly 10–20× native; fragment code ran
~10–20% faster than native thanks to trace layout and lightweight
optimization; building a fragment (record + optimize + emit) cost on the
order of 10² cycles per emitted instruction, amortized over reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DynamoError

#: Execution tiers of the miniature Dynamo VM: ``interp`` runs the plain
#: interpreter with no profiling at all (the baseline), ``compiled``
#: profiles, records and runs fragments as closure-specialized
#: superblocks with direct fragment→fragment linking (see
#: :mod:`repro.dynamo.compiler`).
TIERS = ("interp", "compiled")


@dataclass(frozen=True)
class DynamoConfig:
    """Cost constants and policies of the simulated Dynamo.

    Attributes
    ----------
    interp_per_instr:
        Cycles to interpret one instruction (no profiling included).
    native_per_instr:
        Cycles per instruction of the native binary (the baseline).
    fragment_speedup:
        Relative cycle count of optimized fragment code (< 1 is faster
        than native: trace layout, redundancy elimination…).
    counter_cost:
        NET: cycles per head-counter increment (backward-arrival bump).
    bit_cost:
        Path-profile: cycles per history-bit shift / indirect-target
        append while bit tracing.
    table_cost:
        Path-profile: cycles per path-table lookup+update at a path end.
    instrument_fragments:
        Path-profile: whether bit tracing stays active inside fragments.
        The scheme needs complete path frequencies — paths flowing
        through cached code must still build signatures — so Dynamo's
        path-profile port kept the instrumentation in emitted code.  NET
        needs nothing inside fragments.
    select_per_instr:
        Extra interpretation cycles per instruction while recording a
        trace (the interpret-and-collect pass).
    emit_per_instr:
        Cycles per instruction to optimize + emit a fragment.
    dispatch_cost:
        Cycles to enter the code cache from the interpreter (context
        switch).  Fragment→fragment transfers are linked and free.
    cache_budget_instructions:
        Fragment-cache capacity in emitted instructions.
    flush_penalty:
        Cycles per cache flush (when emission overflows the budget).
    bail_out_flushes:
        Bail out to native execution after this many flushes.
    bail_out_fragments:
        Bail out when the run materializes more fragments than this —
        Dynamo's "excessively many dynamic paths, no dominant reuse"
        give-up condition (paper §6: gcc, go and the other huge-path
        programs bail).
    bail_out_overhead:
        Relative slowdown reported when Dynamo bails out (the aborted
        warm-up work); the paper treats bailed-out programs as "no
        speedup".
    amortization:
        Run-length extension factor.  The reproduction's traces are
        ~2000× shorter than the paper's multi-billion-event runs, which
        exaggerates one-time warm-up costs (interpretation before
        prediction, fragment emission).  The simulator measures the warm
        steady-state cycle rate over the trace's tail and extends the
        run by this factor at that rate, restoring paper-scale
        amortization.  Set to 1.0 to report the raw short-run figures.
    steady_state_fraction:
        Fraction of the trace's tail used to estimate the warm rate.
    tier:
        Execution tier for real (VM) runs: one of :data:`TIERS`.  The
        cost model is tier-independent; the knob selects how
        :class:`repro.dynamo.vm.DynamoVM` actually executes fragments.
    """

    interp_per_instr: float = 12.0
    native_per_instr: float = 1.0
    fragment_speedup: float = 0.85
    counter_cost: float = 2.0
    bit_cost: float = 0.4
    table_cost: float = 2.0
    instrument_fragments: bool = True
    select_per_instr: float = 30.0
    emit_per_instr: float = 40.0
    dispatch_cost: float = 30.0
    cache_budget_instructions: int = 60_000
    flush_penalty: float = 50_000.0
    bail_out_flushes: int = 4
    bail_out_fragments: int = 3_500
    bail_out_overhead: float = 0.02
    amortization: float = 40.0
    steady_state_fraction: float = 0.25
    tier: str = "compiled"

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise DynamoError(
                f"unknown execution tier {self.tier!r}; expected one of "
                f"{', '.join(TIERS)}"
            )
        if self.interp_per_instr <= self.native_per_instr:
            raise DynamoError(
                "interpretation must cost more than native execution"
            )
        if not 0 < self.fragment_speedup <= 1.5:
            raise DynamoError("fragment_speedup out of a sane range")
        if self.cache_budget_instructions < 1:
            raise DynamoError("cache budget must be positive")


#: The default configuration used by the Figure 5 experiments.
DEFAULT_CONFIG = DynamoConfig()
