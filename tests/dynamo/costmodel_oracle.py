"""Reference oracle: the boolean-mask form of the Dynamo cost model.

:func:`repro.dynamo.costmodel.simulate_costs` builds each per-occurrence
column once per call and sums with ``np.dot``/``np.count_nonzero``.
Before that it built one boolean mask per execution mode and summed
each mode through a boolean-index copy, and its asymptotic rate
re-gathered every column.  That form is kept here, minus five tail sums
it computed and never read, as the oracle the production model must
equal exactly: every :class:`~repro.dynamo.stats.DynamoRun` field,
floats included, compares with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.dynamo.config import DEFAULT_CONFIG, DynamoConfig
from repro.dynamo.stats import CycleBreakdown, DynamoRun
from repro.prediction.base import PredictionOutcome
from repro.trace.recorder import PathTrace


def simulate_costs(
    trace: PathTrace,
    outcome: PredictionOutcome,
    config: DynamoConfig = DEFAULT_CONFIG,
    benchmark: str | None = None,
) -> DynamoRun:
    """Run the mask-per-mode cost model for one predictor outcome."""
    n = len(trace.path_ids)
    instr_per_path = trace.instructions_per_path()
    cond_per_path = trace.cond_branches_per_path()
    indirect_per_path = trace.indirect_branches_per_path()

    # Materialization time per path (n when never predicted).
    never = n
    t_per_path = np.full(trace.num_paths, never, dtype=np.int64)
    if len(outcome.predicted_ids):
        t_per_path[outcome.predicted_ids] = outcome.prediction_times

    occ_instr = instr_per_path[trace.path_ids]
    occ_profile_units = (cond_per_path + indirect_per_path)[trace.path_ids]
    t_occ = t_per_path[trace.path_ids]
    index = np.arange(n, dtype=np.int64)

    cached = index > t_occ
    selecting = index == t_occ
    interpreted = ~cached & ~selecting

    executing = interpreted | selecting
    interp_instr = float(occ_instr[executing].sum())
    interpretation = interp_instr * config.interp_per_instr

    if outcome.scheme.startswith("net"):
        arrivals = trace.backward_arrival_mask()
        bumps = int((arrivals & executing).sum())
        profiling = bumps * config.counter_cost
    else:
        profiled = executing
        if config.instrument_fragments:
            profiled = np.ones(n, dtype=bool)
        units = float(occ_profile_units[profiled].sum())
        profiling = units * config.bit_cost + float(
            profiled.sum()
        ) * config.table_cost

    emitted = (
        int(instr_per_path[outcome.predicted_ids].sum())
        if len(outcome.predicted_ids)
        else 0
    )
    per_emit = config.select_per_instr + config.emit_per_instr
    selection = emitted * per_emit

    fragment_rate = config.native_per_instr * config.fragment_speedup
    fragment_execution = float(occ_instr[cached].sum()) * fragment_rate

    # Cache entries: a cached occurrence whose predecessor was not cached.
    prev_cached = np.empty(n, dtype=bool)
    if n:
        prev_cached[0] = False
        prev_cached[1:] = cached[:-1]
    entry_mask = cached & ~prev_cached
    dispatch = int(entry_mask.sum()) * config.dispatch_cost

    flushes = max(
        0,
        -(-emitted // config.cache_budget_instructions) - 1,
    )
    flush_cycles = flushes * config.flush_penalty
    bailed = (
        flushes > config.bail_out_flushes
        or outcome.num_predictions > config.bail_out_fragments
    )

    native = float(occ_instr.sum()) * config.native_per_instr
    breakdown = CycleBreakdown(
        interpretation=interpretation,
        profiling=profiling,
        selection=selection,
        fragment_execution=fragment_execution,
        dispatch=dispatch,
        flushes=flush_cycles,
    )

    steady_rate = _asymptotic_rate(trace, outcome, config)

    extension = max(config.amortization - 1.0, 0.0) * native
    native_total = native + extension
    dynamo_total = breakdown.total + steady_rate * extension
    if bailed:
        dynamo_total = native_total * (1.0 + config.bail_out_overhead)

    return DynamoRun(
        benchmark=benchmark or trace.name,
        scheme=outcome.scheme,
        delay=outcome.delay,
        native_cycles=native_total,
        dynamo_cycles=dynamo_total,
        breakdown=breakdown,
        num_fragments=outcome.num_predictions,
        emitted_instructions=emitted,
        flushes=flushes,
        bailed_out=bailed,
        steady_rate=steady_rate,
        amortization=config.amortization,
    )


def _asymptotic_rate(
    trace: PathTrace,
    outcome: PredictionOutcome,
    config: DynamoConfig,
) -> float:
    """Warm cycles per native cycle once every predicted path is cached."""
    n = len(trace.path_ids)
    if n == 0:
        return 1.0
    instr_per_path = trace.instructions_per_path()
    occ_instr = instr_per_path[trace.path_ids]
    occ_units = (
        trace.cond_branches_per_path() + trace.indirect_branches_per_path()
    )[trace.path_ids]

    ever = np.zeros(trace.num_paths, dtype=bool)
    if len(outcome.predicted_ids):
        ever[outcome.predicted_ids] = True
    ecached = ever[trace.path_ids]

    cycles = float(occ_instr[ecached].sum()) * (
        config.native_per_instr * config.fragment_speedup
    )
    cycles += float(occ_instr[~ecached].sum()) * config.interp_per_instr

    if outcome.scheme.startswith("net"):
        arrivals = trace.backward_arrival_mask()
        cycles += int((arrivals & ~ecached).sum()) * config.counter_cost
    else:
        profiled = (
            np.ones(n, dtype=bool) if config.instrument_fragments else ~ecached
        )
        cycles += (
            float(occ_units[profiled].sum()) * config.bit_cost
            + float(profiled.sum()) * config.table_cost
        )

    prev = np.empty(n, dtype=bool)
    prev[0] = False
    prev[1:] = ecached[:-1]
    cycles += int((ecached & ~prev).sum()) * config.dispatch_cost

    native = float(occ_instr.sum()) * config.native_per_instr
    return cycles / native if native > 0 else 1.0
