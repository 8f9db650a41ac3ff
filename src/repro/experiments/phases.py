"""§6.1 — sensitivity to phase changes and the flush heuristic.

The paper's discussion, made measurable:

* accumulated profiles hide phases — a path hot inside one phase may be
  cold by accumulated frequency;
* prediction activity spikes at phase transitions, which the
  prediction-rate monitor detects;
* flushing the cache at detected transitions removes phase-induced noise
  (dead fragments) at a small cost, keeping occupancy near the live
  working set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamo.config import DynamoConfig
from repro.dynamo.flush import PredictionRateMonitor
from repro.dynamo.stats import DynamoRun
from repro.dynamo.system import DynamoSystem
from repro.experiments.engine.graph import TargetSpec
from repro.experiments.report import fmt, render_table
from repro.metrics.hotpaths import hot_path_set
from repro.prediction.net import NETPredictor
from repro.trace.recorder import PathTrace
from repro.workloads.base import Workload
from repro.workloads.generator import WorkloadConfig
from repro.workloads.phased import phase_boundaries, phased_config


@dataclass(frozen=True)
class PhaseReport:
    """Everything the §6.1 experiment measures on one phased trace."""

    num_phases: int
    true_boundaries: list[int]
    detected_flushes: list[int]
    #: Paths hot within some phase but cold by accumulated frequency.
    phase_hot_accum_cold: int
    accumulated_hot: int
    run_no_flush: DynamoRun
    run_with_flush: DynamoRun

    @property
    def detection_recall(self) -> float:
        """Fraction of true boundaries with a flush within half a phase."""
        if not self.true_boundaries:
            return 0.0
        if not self.detected_flushes:
            return 0.0
        half_phase = (
            self.true_boundaries[0] if self.true_boundaries else 1
        ) // 2
        hits = 0
        for boundary in self.true_boundaries:
            if any(
                abs(flush - boundary) <= half_phase
                for flush in self.detected_flushes
            ):
                hits += 1
        return hits / len(self.true_boundaries)


def phase_local_hot_paths(
    trace: PathTrace, boundaries: list[int]
) -> tuple[int, int]:
    """(phase-hot-but-accumulated-cold count, accumulated-hot count).

    A path is *phase hot* when it exceeds the 0.1% hot threshold within
    one phase's sub-trace; the paper's point is that accumulated
    profiles miss such paths.
    """
    accumulated = hot_path_set(trace)
    cuts = [0] + list(boundaries) + [trace.flow]
    phase_hot: set[int] = set()
    for start, stop in zip(cuts, cuts[1:]):
        sub = trace.slice(start, stop)
        sub_hot = hot_path_set(sub)
        phase_hot.update(int(p) for p in sub_hot.hot_ids())
    accumulated_ids = set(int(p) for p in accumulated.hot_ids())
    return len(phase_hot - accumulated_ids), len(accumulated_ids)


def run_phase_experiment(workload_config: WorkloadConfig) -> PhaseReport:
    """Run the full §6.1 experiment on the phased workload
    ``workload_config`` describes, NET at τ=50.

    The phase count is the recipe's, and the flush monitor's window is
    1% of its target flow (at least 1,000 occurrences).  Speedups are
    reported *raw* (no run-length amortization): a phased run's tail is
    never representative of a steady state — that is the experiment's
    very point — so extending it would mislead.  The §6.1 payoff is
    cache hygiene (the dead-fragment fraction), not throughput.
    """
    trace = Workload(workload_config).trace()
    boundaries = phase_boundaries(workload_config)

    missed, accumulated = phase_local_hot_paths(trace, boundaries)

    delay = 50
    system = DynamoSystem(DynamoConfig(amortization=1.0))
    run_plain = system.run_detailed(trace, "net", delay)
    monitor = PredictionRateMonitor(
        window=max(workload_config.target_flow // 100, 1000)
    )
    run_flush = system.run_detailed(trace, "net", delay, monitor=monitor)

    return PhaseReport(
        num_phases=len(workload_config.phases),
        true_boundaries=boundaries,
        detected_flushes=list(monitor.flush_recommendations),
        phase_hot_accum_cold=missed,
        accumulated_hot=accumulated,
        run_no_flush=run_plain,
        run_with_flush=run_flush,
    )


def prediction_rate_series(
    trace: PathTrace, delay: int = 50, window: int | None = None
) -> list[tuple[int, int]]:
    """Predictions per window over time — the §6.1 monitoring signal."""
    outcome = NETPredictor(delay).run(trace)
    if window is None:
        window = max(trace.flow // 100, 1)
    num_windows = -(-trace.flow // window)
    counts = np.zeros(num_windows, dtype=np.int64)
    for time in outcome.prediction_times:
        counts[int(time) // window] += 1
    return [(int(i * window), int(c)) for i, c in enumerate(counts)]


def render_phase_report(report: PhaseReport) -> str:
    """The §6.1 report as text."""
    rows = [
        ["phases", report.num_phases, ""],
        [
            "true boundaries",
            ", ".join(str(b) for b in report.true_boundaries),
            "",
        ],
        [
            "flushes triggered",
            ", ".join(str(f) for f in report.detected_flushes) or "none",
            "",
        ],
        ["boundary detection recall", fmt(report.detection_recall, 2), ""],
        [
            "phase-hot paths missed by accumulated profile",
            report.phase_hot_accum_cold,
            f"(accumulated hot: {report.accumulated_hot})",
        ],
        [
            "speedup without flushing",
            fmt(report.run_no_flush.speedup_percent, 2) + "%",
            f"resident={report.run_no_flush.resident_fragments} "
            f"dead={fmt(100 * report.run_no_flush.dead_fragment_fraction)}%",
        ],
        [
            "speedup with flush heuristic",
            fmt(report.run_with_flush.speedup_percent, 2) + "%",
            f"resident={report.run_with_flush.resident_fragments} "
            f"dead={fmt(100 * report.run_with_flush.dead_fragment_fraction)}%",
        ],
    ]
    return render_table(
        headers=["measure", "value", "notes"],
        rows=rows,
        title="Section 6.1: phase changes and the flush heuristic",
    )


def _phases_flow(flow_scale: float) -> int:
    """The phased trace's flow at a given scale (floored: a phased run
    shorter than 20k occurrences has no phases to speak of)."""
    return max(int(400_000 * flow_scale), 20_000)


def phases_config(flow_scale: float) -> WorkloadConfig:
    """The workload recipe the phases target consumes: the node key
    hashes it, and the experiment runs on it."""
    return phased_config(flow=_phases_flow(flow_scale))


def _phases_text(traces, flow_scale: float) -> str:
    """Run and render the §6.1 experiment (artifact-graph entry)."""
    return render_phase_report(run_phase_experiment(phases_config(flow_scale)))


#: Artifact-graph declaration: no benchmark traces — the input is the
#: phased workload's recipe, declared via ``config_for`` so recipe
#: changes dirty the node (see repro.experiments.targets).
TARGET = TargetSpec(
    name="phases",
    version="phases-text-v1",
    build=_phases_text,
    config_for=phases_config,
)
