"""Vectorized Dynamo cost model.

Given a trace and a predictor outcome, the model charges every path
occurrence to one of three execution modes:

* **interpreted** — before the path materializes: ``n × interp`` plus the
  scheme's profiling work;
* **selection** — the occurrence that materializes the path: interpreted
  *and* recorded/optimized/emitted;
* **fragment** — every later occurrence: ``n × native × speedup`` plus a
  dispatch cost when entering the cache from the interpreter (linked
  fragment→fragment transfers are free).

The per-scheme profiling charges follow paper §4: NET bumps a head
counter on backward arrivals while interpreting; path-profile based
prediction shifts a history bit per branch and updates the path table at
every path end — and, because the scheme needs complete path frequencies
even for paths flowing through cached code, the bit tracing stays live
inside fragments (``instrument_fragments``).

This model is O(flow) in numpy.  The event-level simulator
(:meth:`repro.dynamo.system.DynamoSystem.run_detailed`) agrees with it
exactly on fragments, emitted instructions and the interpretation,
selection, dispatch and flush cycles, and up to float summation order
on fragment execution and path-profile profiling.  NET profiling
differs by design: this model charges a counter bump for a selecting
occurrence that arrives by a backward branch at a head already hot,
which the event-level NET does not (see ``docs/cost_model.md``).
"""

from __future__ import annotations

import numpy as np

from repro.dynamo.config import DEFAULT_CONFIG, DynamoConfig
from repro.dynamo.stats import CycleBreakdown, DynamoRun
from repro.prediction.base import PredictionOutcome
from repro.trace.recorder import PathTrace


def native_cycles(trace: PathTrace, config: DynamoConfig) -> float:
    """Cycles the native binary spends on the whole trace."""
    instr = trace.instructions_per_path()[trace.path_ids]
    return float(instr.sum()) * config.native_per_instr


def simulate_costs(
    trace: PathTrace,
    outcome: PredictionOutcome,
    config: DynamoConfig = DEFAULT_CONFIG,
    benchmark: str | None = None,
) -> DynamoRun:
    """Run the vectorized cost model for one predictor outcome.

    Each per-occurrence column (the instruction gather, the
    materialization time and the cached mask) is built once.  Every
    total is an exact integer — a dot product, a count of set mask
    entries, or a per-path dot with :meth:`PathTrace.freqs` — made a
    float only before its cost multiply.
    """
    n = len(trace.path_ids)
    freqs = trace.freqs()
    instr_per_path = trace.instructions_per_path()

    # Materialization time per path (n, i.e. never, when not predicted);
    # prediction times index the trace, so they are below n.
    t_per_path = np.full(trace.num_paths, n, dtype=np.int64)
    if len(outcome.predicted_ids):
        t_per_path[outcome.predicted_ids] = outcome.prediction_times
    occ_instr = instr_per_path[trace.path_ids]
    t_occ = t_per_path[trace.path_ids]
    # The selecting occurrence is interpreted; every later one is cached.
    cached = np.arange(n, dtype=np.int64) > t_occ

    total_instr = int(np.dot(freqs, instr_per_path))
    interpretation, profiling, fragment_execution, dispatch = _mode_cycles(
        trace,
        outcome.scheme,
        config,
        cached,
        int(np.dot(occ_instr, cached)),
        total_instr,
    )

    emitted = (
        int(instr_per_path[outcome.predicted_ids].sum())
        if len(outcome.predicted_ids)
        else 0
    )
    selection = emitted * (config.select_per_instr + config.emit_per_instr)

    flushes = max(
        0,
        -(-emitted // config.cache_budget_instructions) - 1,
    )
    flush_cycles = flushes * config.flush_penalty
    bailed = (
        flushes > config.bail_out_flushes
        or outcome.num_predictions > config.bail_out_fragments
    )

    native = float(total_instr) * config.native_per_instr
    breakdown = CycleBreakdown(
        interpretation=interpretation,
        profiling=profiling,
        selection=selection,
        fragment_execution=fragment_execution,
        dispatch=dispatch,
        flushes=flush_cycles,
    )

    # Asymptotic steady-state rate: the run once every path that ever
    # materializes is resident.  Used to extend the short measured run to
    # paper-scale lengths (see DynamoConfig.amortization).
    steady_rate = _asymptotic_rate(
        trace, outcome, config, t_per_path, t_occ, total_instr
    )

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


def _mode_cycles(
    trace: PathTrace,
    scheme: str,
    config: DynamoConfig,
    cached: np.ndarray,
    cached_instr: int,
    total_instr: int,
) -> tuple[float, float, float, float]:
    """Interpretation, profiling, fragment and dispatch cycles.

    ``cached`` marks the occurrences that run in the fragment cache and
    ``cached_instr`` is their instruction total; every other occurrence
    is interpreted and profiled by ``scheme`` (path-profile with
    ``instrument_fragments`` profiles the cached ones too).
    """
    n = len(cached)
    interpretation = float(total_instr - cached_instr) * config.interp_per_instr
    if scheme.startswith("net"):
        # A head-counter bump per backward arrival outside the cache.
        bumps = np.count_nonzero(trace.backward_arrival_mask() > cached)
        profiling = bumps * config.counter_cost
    else:
        units_per_path = (
            trace.cond_branches_per_path() + trace.indirect_branches_per_path()
        )
        units = int(np.dot(trace.freqs(), units_per_path))
        profiled = n
        if not config.instrument_fragments:
            units -= int(np.dot(units_per_path[trace.path_ids], cached))
            profiled -= np.count_nonzero(cached)
        profiling = (
            float(units) * config.bit_cost + float(profiled) * config.table_cost
        )
    fragment_rate = config.native_per_instr * config.fragment_speedup
    fragment_execution = float(cached_instr) * fragment_rate
    # Cache entries: a cached occurrence whose predecessor was not cached.
    entries = (
        int(cached[0]) + np.count_nonzero(cached[1:] > cached[:-1]) if n else 0
    )
    dispatch = entries * config.dispatch_cost
    return interpretation, profiling, fragment_execution, dispatch


def _asymptotic_rate(
    trace: PathTrace,
    outcome: PredictionOutcome,
    config: DynamoConfig,
    t_per_path: np.ndarray,
    t_occ: np.ndarray,
    total_instr: int,
) -> float:
    """Warm cycles per native cycle once every predicted path is cached.

    Occurrences of ever-predicted paths run in the fragment cache (plus
    dispatch at interpreter→cache entries); occurrences of never-predicted
    paths are interpreted forever, with the scheme's residual profiling.
    ``t_per_path``/``t_occ`` are the materialization times
    :func:`simulate_costs` built, ``n`` for a path never predicted.
    """
    n = len(t_occ)
    if n == 0:
        return 1.0
    ever_instr = int(
        np.dot(trace.freqs(), trace.instructions_per_path() * (t_per_path < n))
    )
    interpretation, profiling, fragment_execution, dispatch = _mode_cycles(
        trace, outcome.scheme, config, t_occ < n, ever_instr, total_instr
    )
    cycles = fragment_execution + interpretation + profiling + dispatch
    native = float(total_instr) * config.native_per_instr
    return cycles / native if native > 0 else 1.0
