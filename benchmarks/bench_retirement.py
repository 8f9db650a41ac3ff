"""Windowed metrics with path retirement (paper §6.1's future work).

The paper closes §6.1 planning "to extend our path metrics to model path
removal from the prediction set"; this bench runs that extension:
NET predictions on a phased workload scored window by window under three
retirement policies.
"""

from conftest import emit

from repro.experiments.extended import retirement_rows
from repro.experiments.report import fmt, render_table


def test_retirement_policies(results_dir):
    results = retirement_rows()
    text = render_table(
        headers=[
            "policy",
            "windowed hit %",
            "phase noise %",
            "mean resident",
            "retired",
            "mistimed",
        ],
        rows=[
            [
                quality.policy,
                fmt(quality.windowed_hit_rate, 2),
                fmt(quality.phase_noise_rate, 2),
                fmt(quality.mean_resident, 1),
                quality.retired_total,
                quality.useful_retired,
            ]
            for quality in results
        ],
        title=(
            "Windowed prediction quality under path retirement "
            "(§6.1 future work)"
        ),
    )
    emit(results_dir, "retirement", text)

    never, idle, flush = results
    # Accumulated prediction sets only grow; retirement shrinks them.
    assert idle.mean_resident < never.mean_resident
    assert flush.mean_resident < never.mean_resident
    # Retirement trades hit rate for residency; the fine-grained idle
    # policy loses less than a whole-cache flush.
    assert never.windowed_hit_rate >= idle.windowed_hit_rate
    assert idle.windowed_hit_rate >= flush.windowed_hit_rate
