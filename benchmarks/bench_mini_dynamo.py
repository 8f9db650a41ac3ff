"""The miniature Dynamo on every bundled ISA program.

The concrete, end-to-end counterpart of Figure 5: a *working* dynamic
optimizer accelerates real machine code without changing any program's
output — and driving it with path-profile-based prediction instead of
NET turns the speedups into slowdowns, live.

Two legs:

* ``test_mini_dynamo`` — the modeled-cycle scheme comparison (NET vs
  path-profile steady-state speedups) on the default compiled tier;
* ``test_tier_speedup`` — the *wall-clock* execution-tier comparison:
  plain interpretation vs closure-compiled superblocks, proven
  digest-identical before any timing is trusted.  Each program's two
  tiers go through :func:`conftest.time_alternating`, and the ≥2x
  compiled-vs-interpreter floor is judged on each program's median
  per-round ratio.  Emits ``BENCH_dynamo.json``.  (The compiled tier's
  counters and checkpoints are proven equal to a step-by-step fragment
  replay in the test suite.)
"""

from conftest import (
    ROUNDS,
    emit,
    emit_json,
    pair_ratios,
    quartiles,
    render_spread,
    time_alternating,
)

from repro.dynamo import TIERS, DynamoVM
from repro.experiments.report import fmt, render_table
from repro.isa import run_to_completion
from repro.isa.programs import ALL_PROGRAMS, demo_memory

MAX_STEPS = 200_000_000

#: Wall-clock floor: the compiled tier must run at least this much
#: faster than plain interpretation on every bundled program, each
#: loop-dominated enough to be gated (measured 6.6–37x; the floor
#: leaves margin for slow CI).
MIN_COMPILED_SPEEDUP = 2.0


def run_all():
    rows = []
    for name, module in ALL_PROGRAMS.items():
        memory = demo_memory(name)
        program = module.build()
        _, machine = run_to_completion(program, memory, max_steps=MAX_STEPS)
        row = {"name": name}
        for scheme in ("net", "path-profile"):
            vm = DynamoVM(program, delay=20, scheme=scheme)
            vm.load_memory(memory)
            result = vm.run(max_steps=MAX_STEPS)
            row[scheme] = {
                "correct": result.output == machine.state.output,
                "cached": result.stats.cached_fraction,
                "fragments": result.stats.fragments_built,
                "steady": result.steady_speedup_percent(),
            }
        rows.append(row)
    return rows


def test_mini_dynamo(results_dir):
    rows = run_all()
    table_rows = []
    for row in rows:
        net, pp = row["net"], row["path-profile"]
        table_rows.append(
            [
                row["name"],
                str(net["correct"] and pp["correct"]),
                fmt(100 * net["cached"]),
                net["fragments"],
                fmt(net["steady"], 1),
                fmt(pp["steady"], 1),
            ]
        )
    net_avg = sum(r["net"]["steady"] for r in rows) / len(rows)
    pp_avg = sum(r["path-profile"]["steady"] for r in rows) / len(rows)
    table_rows.append(
        ["Average", "", "", "", fmt(net_avg, 1), fmt(pp_avg, 1)]
    )
    text = render_table(
        headers=[
            "program",
            "correct",
            "cached %",
            "fragments",
            "NET steady %",
            "path-prof steady %",
        ],
        rows=table_rows,
        title="Miniature Dynamo over real ISA programs (τ=20)",
    )
    emit(results_dir, "mini_dynamo", text)

    for row in rows:
        name = row["name"]
        net, pp = row["net"], row["path-profile"]
        # Acceleration never changes program results, for either scheme.
        assert net["correct"] and pp["correct"], name
        # The working set lives in the fragment cache.
        assert net["cached"] > 0.95, name
        # NET beats native everywhere; path-profile prediction does not
        # beat NET anywhere (its profiling never turns off).
        assert net["steady"] > 0.0, name
        assert net["steady"] > pp["steady"], name
    assert net_avg > 10.0
    assert pp_avg < 0.0


def _run_tier(program, memory, tier):
    vm = DynamoVM(program, delay=20, tier=tier)
    vm.load_memory(memory)
    return vm, vm.run(max_steps=MAX_STEPS)


def test_tier_speedup(results_dir):
    table_rows = []
    payload_programs = {}
    speedups = {}
    total_seconds = {tier: 0.0 for tier in TIERS}
    for name, module in ALL_PROGRAMS.items():
        memory = demo_memory(name)
        program = module.build()
        runs, seconds = time_alternating(
            {
                tier: lambda tier=tier: _run_tier(program, memory, tier)
                for tier in TIERS
            }
        )
        # Correctness first: no timing counts unless the compiled tier
        # is digest-identical to plain interpretation.
        interp_vm, _ = runs["interp"]
        compiled_vm, compiled = runs["compiled"]
        assert interp_vm.state_digest() == compiled_vm.state_digest(), name

        instructions = {
            tier: result.stats.interpreted_instructions
            + result.stats.fragment_instructions
            for tier, (_, result) in runs.items()
        }
        times = {tier: quartiles(seconds[tier]) for tier in TIERS}
        mips = {
            tier: instructions[tier] / times[tier]["median"] / 1e6
            for tier in TIERS
        }
        for tier in TIERS:
            total_seconds[tier] += times[tier]["median"]
        speedup = quartiles(
            pair_ratios(seconds["interp"], seconds["compiled"])
        )
        speedups[name] = speedup["median"]
        table_rows.append(
            [
                name,
                f"{instructions['compiled']:,}",
                fmt(mips["interp"], 2),
                fmt(mips["compiled"], 2),
                render_spread(speedup, 2),
            ]
        )
        payload_programs[name] = {
            "instructions": instructions["compiled"],
            "tiers": {
                tier: {"seconds": times[tier], "mips": mips[tier]}
                for tier in TIERS
            },
            "speedup_compiled_vs_interp": speedup,
            "digest_identical": True,
            "compiled_fragments": compiled.stats.fragments_compiled,
            "link_patches": compiled.stats.link_patches,
        }

    min_speedup = min(speedups.values())
    mean_speedup = sum(speedups.values()) / len(speedups)
    text = render_table(
        headers=[
            "program",
            "instructions",
            "interp MIPS",
            "compiled MIPS",
            "vs interp (IQR)",
        ],
        rows=table_rows,
        title=(
            f"Execution tiers, wall clock (τ=20), median of {ROUNDS} "
            f"alternating rounds · min {min_speedup:.2f}x, "
            f"mean {mean_speedup:.2f}x compiled vs interp"
        ),
    )
    emit(results_dir, "dynamo_tiers", text)
    emit_json(
        results_dir,
        "dynamo",
        {
            "rounds": ROUNDS,
            "min_compiled_speedup": MIN_COMPILED_SPEEDUP,
            "programs": payload_programs,
            "min_speedup_vs_interp": min_speedup,
            "mean_speedup_vs_interp": mean_speedup,
        },
    )

    # The compiled tier wins in aggregate and clears the floor on every
    # program.
    assert total_seconds["compiled"] < total_seconds["interp"], (
        total_seconds
    )
    for name, ratio in speedups.items():
        assert ratio >= MIN_COMPILED_SPEEDUP, (name, ratio)
