"""Dynamo end to end: from real machine code to cached fragments.

Assembles the run-length compressor, executes it on the register-machine
interpreter, extracts its interprocedural forward paths, and then runs
the Dynamo simulator over the trace with both prediction schemes —
showing the full cycle breakdown (interpretation, profiling, trace
selection, fragment execution, dispatch) behind the Figure 5 speedups.

Run:  python examples/dynamo_demo.py
"""

from repro.dynamo import (
    DynamoConfig,
    DynamoSystem,
    TraceOptimizer,
    measured_fragment_sizes,
)
from repro.isa import run_to_completion
from repro.isa.programs import rle
from repro.trace import record_path_trace, summarize
from repro.workloads import load_benchmark


def show(run) -> None:
    print(run.render())
    breakdown = run.breakdown
    total = breakdown.total
    for component in (
        "interpretation",
        "profiling",
        "selection",
        "fragment_execution",
        "dispatch",
    ):
        cycles = getattr(breakdown, component)
        print(f"    {component:>20s}: {cycles:>14,.0f} cycles "
              f"({100 * cycles / total:5.1f}%)")
    print(f"    {'steady-state rate':>20s}: {run.steady_rate:.3f} "
          f"Dynamo cycles per native cycle\n")


def main() -> None:
    # --- A real program through the real pipeline --------------------
    program = rle.build()
    memory = rle.make_memory(seed=11, size=24_000)
    print(f"running {program.name!r} "
          f"({program.num_instructions} instructions) ...")
    events, machine = run_to_completion(program, memory, max_steps=10**7)
    trace = record_path_trace(program.cfg, events, name="rle")
    print(summarize(trace).render(), "\n")

    # Optimize the actual fragments: Dynamo's "lightweight optimization"
    # (branch straightening, constant propagation, dead-code removal)
    # applied to the real machine code of each hot path.
    optimizer = TraceOptimizer(program)
    freqs = trace.freqs()
    hottest = max(range(trace.num_paths), key=lambda i: freqs[i])
    fragment = optimizer.optimize(trace.table.path(hottest))
    print(
        f"hottest path optimized: {fragment.original_instructions} -> "
        f"{fragment.optimized_instructions} instructions "
        f"(straightened {fragment.removed('straightened')} jumps, "
        f"measured S_opt={fragment.speedup_factor:.2f})\n"
    )

    sizes = measured_fragment_sizes(program, trace)
    system = DynamoSystem(DynamoConfig(amortization=200.0))
    for scheme in ("net", "path-profile"):
        show(
            system.run_detailed(trace, scheme, delay=10, fragment_sizes=sizes)
        )

    # --- A benchmark surrogate at Figure 5 scale ----------------------
    surrogate = load_benchmark("li").trace()
    print(f"surrogate: {surrogate.name}, flow={surrogate.flow:,}")
    system = DynamoSystem()
    for scheme in ("net", "path-profile"):
        for delay in (10, 50, 100):
            run = system.run(surrogate, scheme, delay)
            print(f"  {run.render()}")


if __name__ == "__main__":
    main()
