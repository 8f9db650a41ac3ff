"""Extension studies beyond the paper's own tables and figures.

Each function computes one of the repository's extension experiments —
the §4 overhead table, NET design ablations, the §6.1-future-work
retirement study, the related-work hardware comparison, and the offline
edge-vs-path showdown — returning structured rows.  The benchmark
harness asserts on and renders these; the CLI exposes them through
``python -m repro extended <name>``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dynamo.config import DynamoConfig
from repro.dynamo.system import DynamoSystem
from repro.errors import ExperimentError
from repro.experiments.report import fmt, render_table
from repro.metrics.hotpaths import hot_path_set
from repro.metrics.quality import evaluate_prediction
from repro.prediction.net import NETPredictor
from repro.trace.recorder import PathTrace, record_path_trace
from repro.workloads.base import load_benchmark
from repro.workloads.phased import load_phased

if TYPE_CHECKING:
    from repro.analysis.edge_vs_path import ShowdownResult
    from repro.metrics.windowed import WindowedQuality
    from repro.profiling.overhead import OverheadRow

# Each study imports the modules only it runs (the CFG, the ISA, the
# hardware models, the profilers), so that reading ``EXTENDED_IDS``
# loads none of them.


# ----------------------------------------------------------------------
# §4 overhead
# ----------------------------------------------------------------------
def overhead_rows(max_events: int = 400_000) -> tuple[list[OverheadRow], int]:
    """Every profiler's cost figures over one generated-program run
    (program seed 25, every loop 25 trips).

    The walker's event batches feed every profiler; the tier-1 suite
    checks each profiler against a one-event-at-a-time reference.
    """
    from repro.cfg.analysis import procedure_loops
    from repro.cfg.generators import generate_program
    from repro.profiling.overhead import compare_schemes
    from repro.trace.batch import EventBatch
    from repro.trace.walker import CFGWalker, RandomOracle, TripCountOracle

    program = generate_program(seed=25, num_procedures=4)
    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = 25
    oracle = TripCountOracle(RandomOracle(5, default_bias=0.5), trip_counts)
    walker = CFGWalker(program, oracle)
    events = EventBatch.concat(
        list(walker.walk_batched(max_events=max_events, truncate=True))
    )
    return compare_schemes(program, events), len(events)


# ----------------------------------------------------------------------
# NET ablations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationRow:
    """NET variants at one delay on one benchmark."""

    benchmark: str
    hit_region: float
    hit_single_shot: float
    hit_all_starts: float
    noise_region: float
    noise_single_shot: float


def net_ablation_rows(
    traces: dict[str, PathTrace], delay: int = 50
) -> list[AblationRow]:
    """Region model vs single-shot vs all-starts counting."""
    rows = []
    for name, trace in traces.items():
        hot = hot_path_set(trace)

        def score(predictor):
            return evaluate_prediction(trace, hot, predictor.run(trace))

        region = score(NETPredictor(delay))
        single = score(NETPredictor(delay, retire_heads=True))
        all_starts = score(
            NETPredictor(delay, count_backward_arrivals_only=False)
        )
        rows.append(
            AblationRow(
                benchmark=name,
                hit_region=region.hit_rate,
                hit_single_shot=single.hit_rate,
                hit_all_starts=all_starts.hit_rate,
                noise_region=region.noise_rate,
                noise_single_shot=single.noise_rate,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Retirement (windowed metrics)
# ----------------------------------------------------------------------
def retirement_rows(
    flow: int = 400_000, window: int = 10_000
) -> list[WindowedQuality]:
    """Windowed quality of NET at τ=50 under the three retirement
    policies, over the four-phase workload."""
    from repro.metrics.windowed import (
        FlushOnSpike,
        NeverRetire,
        RetireIdle,
        evaluate_windowed,
    )

    trace = load_phased(flow=flow).trace()
    outcome = NETPredictor(50).run(trace)
    return [
        evaluate_windowed(trace, outcome, policy, window)
        for policy in (NeverRetire(), RetireIdle(patience=2), FlushOnSpike())
    ]


# ----------------------------------------------------------------------
# Hardware comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HardwareRow:
    """One branch-predictor result on one program."""

    program: str
    scheme: str
    accuracy_percent: float
    table_bits: int


@dataclass(frozen=True)
class TraceCacheRow:
    """Trace-cache vs NET on one program."""

    program: str
    cache_hit_percent: float
    distinct_lines: int
    net_predictions: int
    net_hit_percent: float


def hardware_rows() -> tuple[list[HardwareRow], list[TraceCacheRow]]:
    """Branch-predictor accuracies and trace-cache/NET comparisons."""
    from repro.hardware.branch_predictors import compare_branch_predictors
    from repro.hardware.trace_cache import TraceCache
    from repro.isa.machine import run_to_completion
    from repro.isa.programs import hashtable, lexer, sort

    predictor_rows: list[HardwareRow] = []
    cache_rows: list[TraceCacheRow] = []
    for module, kwargs in (
        (sort, {"seed": 2, "size": 400}),
        (hashtable, {"seed": 3, "num_ops": 2000}),
        (lexer, {"seed": 1, "size": 6000}),
    ):
        program = module.build()
        memory = module.make_memory(**kwargs)
        events, _ = run_to_completion(program, memory, max_steps=30_000_000)
        for stats in compare_branch_predictors(events):
            predictor_rows.append(
                HardwareRow(
                    program=program.name,
                    scheme=stats.scheme,
                    accuracy_percent=stats.accuracy_percent,
                    table_bits=stats.table_bits,
                )
            )
        cache = TraceCache()
        cache_stats = cache.simulate(events, program.cfg.entry_block.uid)
        trace = record_path_trace(program.cfg, events)
        hot = hot_path_set(trace, fraction=0.001)
        net = evaluate_prediction(trace, hot, NETPredictor(10).run(trace))
        cache_rows.append(
            TraceCacheRow(
                program=program.name,
                cache_hit_percent=cache_stats.hit_rate_percent,
                distinct_lines=len(cache_stats.distinct_lines),
                net_predictions=net.num_predicted,
                net_hit_percent=net.hit_rate,
            )
        )
    return predictor_rows, cache_rows


# ----------------------------------------------------------------------
# Edge-vs-path showdown
# ----------------------------------------------------------------------
def showdown_rows(traces: dict[str, PathTrace]) -> list[ShowdownResult]:
    """The BMS-style comparison across a trace set."""
    from repro.analysis.edge_vs_path import edge_vs_path_showdown

    return [edge_vs_path_showdown(trace) for trace in traces.values()]


# ----------------------------------------------------------------------
# Eviction-policy ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvictionRow:
    """One cache policy's behaviour under pressure.

    ``speedup_percent`` is ``None`` for FIFO: ``run_detailed`` only
    models the flush policy, so the FIFO row's evictions come from
    replaying NET's fragment emissions through a FIFO cache and it has
    no speedup.
    """

    policy: str
    speedup_percent: float | None
    flushes: int
    evictions: int


def _fifo_replay(
    emissions: Iterable[tuple[int, int]], budget: int
) -> tuple[dict[int, int], int]:
    """Emit ``(path id, size)`` fragments, in order, into a cache of
    ``budget`` instructions that evicts the oldest fragments until a new
    one fits.

    Returns the resident fragments (path id → size, oldest first) and
    the number of evictions.  A real cache would also unlink every
    fragment jumping into a victim; the cost models charge nothing for a
    linked transfer, so this one keeps no links.
    """
    resident: dict[int, int] = {}
    occupancy = evictions = 0
    for path_id, size in emissions:
        while resident and occupancy + size > budget:
            occupancy -= resident.pop(next(iter(resident)))
            evictions += 1
        resident[path_id] = size
        occupancy += size
    return resident, evictions


def eviction_rows(
    budget: int = 8_000, flow_scale: float = 1.0
) -> list[EvictionRow]:
    """Flush-all vs FIFO eviction on li at τ=50 under a deliberately
    small cache."""
    delay = 50
    trace = load_benchmark("li", flow_scale=flow_scale).trace()
    config = DynamoConfig(
        cache_budget_instructions=budget,
        bail_out_flushes=10**9,  # observe pressure without bailing
        bail_out_fragments=10**9,
    )
    run = DynamoSystem(config).run_detailed(trace, "net", delay)
    instr = trace.instructions_per_path()
    outcome = NETPredictor(delay).run(trace)
    _, evictions = _fifo_replay(
        ((int(pid), int(instr[pid])) for pid in outcome.predicted_ids),
        budget,
    )
    return [
        EvictionRow("flush", run.speedup_percent, run.flushes, 0),
        EvictionRow("fifo", None, 0, evictions),
    ]


# ----------------------------------------------------------------------
# Registry + rendering
# ----------------------------------------------------------------------
def run_extended(name: str, flow_scale: float = 1.0) -> str:
    """Run one extension study and return its text rendering."""
    if name == "overhead":
        rows, num_events = overhead_rows()
        return render_table(
            ["scheme", "counters", "profiling ops", "units"],
            [
                [r.scheme, r.counter_space, r.profiling_ops, r.num_units]
                for r in rows
            ],
            title=f"Profiling overhead over {num_events:,} events (§4)",
        )
    if name == "ablations":
        traces = {
            bench: load_benchmark(bench, flow_scale=flow_scale).trace()
            for bench in ("compress", "li", "perl")
        }
        rows = net_ablation_rows(traces)
        return render_table(
            [
                "benchmark",
                "hit region",
                "hit single-shot",
                "hit all-starts",
                "noise region",
                "noise single-shot",
            ],
            [
                [
                    r.benchmark,
                    fmt(r.hit_region, 2),
                    fmt(r.hit_single_shot, 2),
                    fmt(r.hit_all_starts, 2),
                    fmt(r.noise_region, 2),
                    fmt(r.noise_single_shot, 2),
                ]
                for r in rows
            ],
            title="NET ablations at τ=50",
        )
    if name == "retirement":
        flow = max(int(400_000 * flow_scale), 40_000)
        rows = retirement_rows(flow=flow)
        return render_table(
            ["policy", "windowed hit %", "phase noise %", "resident", "retired"],
            [
                [
                    q.policy,
                    fmt(q.windowed_hit_rate, 2),
                    fmt(q.phase_noise_rate, 2),
                    fmt(q.mean_resident, 1),
                    q.retired_total,
                ]
                for q in rows
            ],
            title="Path retirement (§6.1 future work)",
        )
    if name == "hardware":
        predictor_rows, cache_rows = hardware_rows()
        text = render_table(
            ["program", "predictor", "accuracy %", "state bits"],
            [
                [r.program, r.scheme, fmt(r.accuracy_percent, 2), r.table_bits]
                for r in predictor_rows
            ],
            title="Branch predictors (related work §7)",
        )
        text += "\n\n" + render_table(
            ["program", "cache hit %", "lines", "NET preds", "NET hit %"],
            [
                [
                    r.program,
                    fmt(r.cache_hit_percent, 2),
                    r.distinct_lines,
                    r.net_predictions,
                    fmt(r.net_hit_percent, 2),
                ]
                for r in cache_rows
            ],
            title="Trace cache vs NET",
        )
        return text
    if name == "showdown":
        from repro.experiments.data import benchmark_traces

        traces = benchmark_traces(flow_scale=flow_scale)
        rows = showdown_rows(traces)
        return render_table(
            ["benchmark", "hot", "recovered", "hot flow %", "overest ×"],
            [
                [
                    r.benchmark,
                    r.true_hot,
                    r.recovered,
                    fmt(r.hot_flow_coverage_percent),
                    fmt(1 + r.mean_overestimate, 2),
                ]
                for r in rows
            ],
            title="Edge vs path profiles (§7 showdown)",
        )
    if name == "mini-dynamo":
        from repro.isa.machine import run_to_completion
        from repro.isa.programs import ALL_PROGRAMS, demo_memory

        system = DynamoSystem()
        rows = []
        for bench, module in ALL_PROGRAMS.items():
            memory = demo_memory(bench)
            program = module.build()
            _, machine = run_to_completion(
                program, memory, max_steps=60_000_000
            )
            cells = [bench]
            for scheme in ("net", "path-profile"):
                result = system.run_vm(
                    program, memory, scheme, delay=20, max_steps=60_000_000
                )
                correct = result.output == machine.state.output
                cells.append(
                    f"{result.steady_speedup_percent():+.1f}"
                    + ("" if correct else " WRONG")
                )
            rows.append(cells)
        return render_table(
            ["program", "NET steady %", "path-profile steady %"],
            rows,
            title="Miniature Dynamo, live (τ=20)",
        )
    if name == "eviction":
        rows = eviction_rows(flow_scale=flow_scale)
        return render_table(
            ["policy", "speedup %", "flushes", "evictions"],
            [
                [
                    r.policy,
                    "n/a"
                    if r.speedup_percent is None
                    else fmt(r.speedup_percent, 2),
                    r.flushes,
                    r.evictions,
                ]
                for r in rows
            ],
            title="Cache capacity policies under pressure",
        )
    known = ", ".join(EXTENDED_IDS)
    raise ExperimentError(f"unknown extended study {name!r}; known: {known}")


#: The extension studies ``run_extended`` accepts.
EXTENDED_IDS = (
    "overhead",
    "ablations",
    "retirement",
    "hardware",
    "showdown",
    "eviction",
    "mini-dynamo",
)
