"""Ablations of the NET design choices (DESIGN.md §8).

* region model vs single-shot head retirement (how much of NET's hit
  rate rests on secondary tail selection);
* counting only backward arrivals vs every path start;
* Dynamo sensitivity to the fragment-cache optimization factor.
"""

from conftest import emit

from repro.dynamo import DynamoConfig, DynamoSystem
from repro.experiments.extended import net_ablation_rows
from repro.experiments.report import fmt, render_table
from repro.workloads import load_benchmark


def test_net_ablations(results_dir):
    traces = {
        name: load_benchmark(name).trace()
        for name in ("compress", "li", "perl")
    }
    rows = net_ablation_rows(traces)
    text = render_table(
        headers=[
            "benchmark",
            "hit (region)",
            "hit (single-shot)",
            "hit (all starts)",
            "noise (region)",
            "noise (single-shot)",
        ],
        rows=[
            [
                row.benchmark,
                fmt(row.hit_region, 2),
                fmt(row.hit_single_shot, 2),
                fmt(row.hit_all_starts, 2),
                fmt(row.noise_region, 2),
                fmt(row.noise_single_shot, 2),
            ]
            for row in rows
        ],
        title="NET ablations at τ=50",
    )
    emit(results_dir, "ablations", text)

    # Single-shot NET loses hit rate wherever loops have several hot
    # tails; the region model (secondary selection) recovers it.
    for row in rows:
        assert row.hit_region >= row.hit_single_shot - 1e-9, row.benchmark


def test_fragment_speedup_sensitivity(results_dir):
    trace = load_benchmark("compress").trace()

    results = []
    for s_opt in (0.7, 0.85, 1.0):
        system = DynamoSystem(DynamoConfig(fragment_speedup=s_opt))
        run = system.run(trace, "net", 50)
        results.append((s_opt, run.speedup_percent))
    text = render_table(
        headers=["fragment_speedup", "net τ=50 speedup %"],
        rows=[[s, fmt(v, 2)] for s, v in results],
        title="Dynamo sensitivity to the fragment optimization factor",
    )
    emit(results_dir, "ablation_fragment_speedup", text)

    speedups = [v for _, v in results]
    assert speedups == sorted(speedups, reverse=True)
    # Without any fragment optimization Dynamo cannot win: the remaining
    # gains (linking, layout) are not modelled as negative cost.
    assert speedups[-1] <= 1.0
