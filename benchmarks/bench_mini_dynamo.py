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
  digest-identical before any timing is trusted.  Emits
  ``BENCH_dynamo.json`` and, at full scale, gates a real ≥2x
  compiled-vs-interpreter floor the way ``BENCH_events.json`` gates the
  columnar floor.  (The compiled tier's counters and checkpoints are
  proven equal to a step-by-step fragment replay in the test suite.)
"""

import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.dynamo import TIERS, DynamoVM
from repro.experiments.report import fmt, render_table
from repro.isa import run_to_completion
from repro.isa.programs import ALL_PROGRAMS, demo_memory

MAX_STEPS = 200_000_000

#: Full-scale wall-clock floor: the compiled tier must run at least this
#: much faster than plain interpretation on every hot-loop program
#: (measured 6.6–37x; the floor leaves margin for slow CI).
MIN_COMPILED_SPEEDUP = 2.0

#: Every bundled program is loop-dominated enough to be gated.
HOT_LOOP_PROGRAMS = tuple(sorted(ALL_PROGRAMS))


def run_all():
    rows = []
    for name, module in ALL_PROGRAMS.items():
        memory = demo_memory(name, scale=BENCH_FLOW_SCALE)
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


def test_mini_dynamo(benchmark, results_dir):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
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
    if BENCH_FLOW_SCALE >= 1.0:
        for row in rows:
            name = row["name"]
            net, pp = row["net"], row["path-profile"]
            # The working set lives in the fragment cache.
            assert net["cached"] > 0.95, name
            # NET beats native everywhere; path-profile prediction does
            # not beat NET anywhere (its profiling never turns off).
            assert net["steady"] > 0.0, name
            assert net["steady"] > pp["steady"], name
        assert net_avg > 10.0
        assert pp_avg < 0.0


def _timed_run(program, memory, tier, reps=2):
    """Best-of-``reps`` wall clock for one tier; returns (vm, result, s)."""
    best = None
    for _ in range(reps):
        vm = DynamoVM(program, delay=20, tier=tier)
        vm.load_memory(memory)
        start = time.perf_counter()
        result = vm.run(max_steps=MAX_STEPS)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[2]:
            best = (vm, result, elapsed)
    return best


def run_tiers():
    rows = []
    for name, module in ALL_PROGRAMS.items():
        memory = demo_memory(name, scale=BENCH_FLOW_SCALE)
        program = module.build()
        row = {"name": name, "tiers": {}}
        for tier in TIERS:
            vm, result, elapsed = _timed_run(program, memory, tier)
            stats = result.stats
            total = (
                stats.interpreted_instructions
                + stats.fragment_instructions
            )
            row["tiers"][tier] = {
                "seconds": elapsed,
                "instructions": total,
                "mips": total / elapsed / 1e6 if elapsed > 0 else 0.0,
                "digest": vm.state_digest(),
                "stats": stats,
            }
        rows.append(row)
    return rows


def test_tier_speedup(benchmark, results_dir):
    rows = benchmark.pedantic(run_tiers, rounds=1, iterations=1)

    # Correctness first: no timing is reported unless the compiled tier
    # is digest-identical to plain interpretation on every program.
    for row in rows:
        tiers = row["tiers"]
        assert (
            tiers["interp"]["digest"] == tiers["compiled"]["digest"]
        ), row["name"]

    table_rows = []
    payload_programs = {}
    speedups = []
    for row in rows:
        name = row["name"]
        tiers = row["tiers"]
        interp_s = tiers["interp"]["seconds"]
        comp_s = tiers["compiled"]["seconds"]
        vs_interp = interp_s / comp_s if comp_s > 0 else float("inf")
        speedups.append(vs_interp)
        table_rows.append(
            [
                name,
                f"{tiers['compiled']['instructions']:,}",
                fmt(tiers["interp"]["mips"], 2),
                fmt(tiers["compiled"]["mips"], 2),
                fmt(vs_interp, 2) + "x",
            ]
        )
        payload_programs[name] = {
            "instructions": tiers["compiled"]["instructions"],
            "tiers": {
                tier: {
                    "seconds": tiers[tier]["seconds"],
                    "mips": tiers[tier]["mips"],
                }
                for tier in TIERS
            },
            "speedup_compiled_vs_interp": vs_interp,
            "digest_identical": True,
            "compiled_fragments": (
                tiers["compiled"]["stats"].fragments_compiled
            ),
            "link_patches": tiers["compiled"]["stats"].link_patches,
        }

    min_speedup = min(speedups)
    mean_speedup = sum(speedups) / len(speedups)
    text = render_table(
        headers=[
            "program",
            "instructions",
            "interp MIPS",
            "compiled MIPS",
            "vs interp",
        ],
        rows=table_rows,
        title=(
            "Execution tiers, wall clock (τ=20, scale="
            f"{BENCH_FLOW_SCALE:g}) · min {min_speedup:.2f}x, "
            f"mean {mean_speedup:.2f}x compiled vs interp"
        ),
    )
    emit(results_dir, "dynamo_tiers", text)

    gate_armed = BENCH_FLOW_SCALE >= 1.0
    emit_json(
        results_dir,
        "dynamo",
        {
            "flow_scale": BENCH_FLOW_SCALE,
            "gate_armed": gate_armed,
            "min_compiled_speedup": MIN_COMPILED_SPEEDUP,
            "hot_loop_programs": list(HOT_LOOP_PROGRAMS),
            "programs": payload_programs,
            "min_speedup_vs_interp": min_speedup,
            "mean_speedup_vs_interp": mean_speedup,
        },
    )

    # At any scale the compiled tier must win in aggregate (per-program
    # smoke timings are too small to be stable, totals are not).
    total_interp = sum(r["tiers"]["interp"]["seconds"] for r in rows)
    total_comp = sum(r["tiers"]["compiled"]["seconds"] for r in rows)
    assert total_comp < total_interp, (total_comp, total_interp)

    # Full scale: the real wall-clock floor, per hot-loop program.
    if gate_armed:
        for row in rows:
            if row["name"] not in HOT_LOOP_PROGRAMS:
                continue
            tiers = row["tiers"]
            vs_interp = (
                tiers["interp"]["seconds"] / tiers["compiled"]["seconds"]
            )
            assert vs_interp >= MIN_COMPILED_SPEEDUP, (row["name"], vs_interp)
