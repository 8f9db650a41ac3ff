"""Phase changes and the flush heuristic (paper §6.1).

Builds a workload that rotates through four disjoint working sets, shows
how the NET prediction rate spikes at every phase boundary, and compares
Dynamo with and without the prediction-rate flush heuristic: the flush
keeps the fragment cache small and free of phase-induced noise (dead
fragments from dead phases).

Run:  python examples/phase_changes.py
"""

from repro.experiments.phases import (
    phases_config,
    prediction_rate_series,
    render_phase_report,
    run_phase_experiment,
)
from repro.workloads import Workload
from repro.workloads.phased import phase_boundaries


def main() -> None:
    # The phases target's recipe at full scale: four phases, 400,000
    # occurrences.
    config = phases_config(1.0)
    trace = Workload(config).trace()
    boundaries = phase_boundaries(config)
    print(f"phased workload: flow={trace.flow:,}, "
          f"boundaries at {boundaries}\n")

    print("NET prediction rate per 4,000-occurrence window "
          "(the §6.1 monitoring signal):")
    series = prediction_rate_series(trace, delay=50, window=4_000)
    peak = max(count for _, count in series) or 1
    for start, count in series:
        marker = " <- phase boundary" if any(
            0 <= start - boundary < 4_000 for boundary in boundaries
        ) else ""
        bar = "#" * int(40 * count / peak)
        print(f"  {start:>8,}: {count:>4} {bar}{marker}")

    print()
    report = run_phase_experiment(config)
    print(render_phase_report(report))
    print(
        "\nWithout flushing, fragments from finished phases linger as "
        "phase-induced noise\n(the 'dead' fraction above); the flush "
        "heuristic clears them at the cost of\nre-selecting the live "
        "working set after each flush."
    )


if __name__ == "__main__":
    main()
