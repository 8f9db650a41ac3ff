"""Every profiling and prediction scheme on one generated program.

Generates a random structured program, executes it under a loop-bounded
oracle, and pits the whole §2 zoo against each other: bit tracing,
Ball–Larus, k-bounded general paths, edge/block profiling, and NET's
head counters — then the online predictors (path-profile, NET, Boa,
first-execution) scored with the §3 metrics.

Run:  python examples/compare_schemes.py
"""

from repro.cfg import generate_program, procedure_loops
from repro.experiments.report import render_table
from repro.metrics import evaluate_prediction, hot_path_set
from repro.prediction import (
    BoaPredictor,
    FirstExecutionPredictor,
    NETPredictor,
    PathProfilePredictor,
)
from repro.profiling import compare_schemes
from repro.trace import (
    CFGWalker,
    EventBatch,
    RandomOracle,
    TripCountOracle,
    record_path_trace,
)


def main() -> None:
    program = generate_program(seed=17, num_procedures=4)
    print(program.describe())

    trip_counts = {}
    for name in program.procedures:
        for header in procedure_loops(program, name).headers:
            trip_counts[header] = 40
    oracle = TripCountOracle(RandomOracle(2, default_bias=0.5), trip_counts)
    # Nested 40-trip loops can run a long time; profile the first
    # million transfers (profilers are stream-oriented anyway).
    walker = CFGWalker(program, oracle)
    events = EventBatch.concat(
        list(walker.walk_batched(max_events=1_000_000, truncate=True))
    )
    print(f"executed {len(events):,} control transfers\n")

    print(render_table(
        headers=["scheme", "counters", "profiling ops", "units"],
        rows=[
            [row.scheme, row.counter_space, row.profiling_ops, row.num_units]
            for row in compare_schemes(program, events)
        ],
        title="Profiling overhead (paper §2/§4)",
    ))

    trace = record_path_trace(program, events, name="generated")
    hot = hot_path_set(trace, fraction=0.001)
    print(f"\n0.1% hot set: {hot.num_hot} of {trace.num_paths} paths, "
          f"{hot.captured_flow_percent:.1f}% of flow\n")

    rows = []
    for predictor in (
        FirstExecutionPredictor(),
        PathProfilePredictor(20),
        NETPredictor(20),
        BoaPredictor(20),
    ):
        outcome = predictor.run(trace)
        quality = evaluate_prediction(trace, hot, outcome)
        rows.append([
            outcome.scheme,
            f"{quality.hit_rate:.2f}",
            f"{quality.noise_rate:.2f}",
            f"{quality.profiled_flow_percent:.2f}",
            outcome.counter_space,
        ])
    print(render_table(
        headers=["predictor", "hit %", "noise %", "profiled %", "counters"],
        rows=rows,
        title="Online prediction quality at τ=20 (paper §3/§5)",
    ))


if __name__ == "__main__":
    main()
