"""Prediction-delay sweeps: the data behind Figures 2 and 3.

The paper runs both schemes "with various prediction delays ranging from
10 to 1,000,000" and plots hit/noise rates against the *profiled flow*
each delay consumes.  A :class:`SweepPoint` is one (benchmark, scheme, τ)
measurement; helpers interpolate along a scheme's curve (for "at 10%
profiled flow" claims) and average across benchmarks (the figures'
``Average`` line).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.metrics.hotpaths import HotPathSet, hot_path_set
from repro.metrics.quality import PredictionQuality, evaluate_prediction
from repro.prediction.net import NETPredictor
from repro.prediction.path_profile import PathProfilePredictor
from repro.trace.recorder import PathTrace

#: Prediction delays swept by the Figure 2/3 experiments.  The paper
#: sweeps 10…1,000,000 on ~2000× longer traces; scaled to our flows the
#: same profiled-flow range is covered by 1…200,000.
DEFAULT_DELAYS = (
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
)

#: The two schemes Figures 2/3 compare.
SCHEMES = ("path-profile", "net")


@dataclass(frozen=True)
class SweepPoint:
    """One (benchmark, scheme, delay) measurement."""

    benchmark: str
    scheme: str
    delay: int
    profiled_flow_percent: float
    hit_rate: float
    noise_rate: float
    num_predicted: int
    num_predicted_hot: int

    @staticmethod
    def from_quality(
        benchmark: str, quality: PredictionQuality
    ) -> "SweepPoint":
        """Build a point from a scored prediction."""
        return SweepPoint(
            benchmark=benchmark,
            scheme=quality.scheme,
            delay=quality.delay,
            profiled_flow_percent=quality.profiled_flow_percent,
            hit_rate=quality.hit_rate,
            noise_rate=quality.noise_rate,
            num_predicted=quality.num_predicted,
            num_predicted_hot=quality.num_predicted_hot,
        )


def make_predictor(scheme: str, delay: int):
    """Instantiate the predictor for a sweep scheme name."""
    if scheme == "net":
        return NETPredictor(delay)
    if scheme == "path-profile":
        return PathProfilePredictor(delay)
    raise ExperimentError(f"unknown sweep scheme {scheme!r}")


def sweep_trace(
    trace: PathTrace,
    hot: HotPathSet | None = None,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
) -> list[SweepPoint]:
    """Measure every (scheme, delay) cell for one trace."""
    if hot is None:
        hot = hot_path_set(trace)
    points = []
    for scheme in SCHEMES:
        for delay in delays:
            outcome = make_predictor(scheme, delay).run(trace)
            quality = evaluate_prediction(trace, hot, outcome)
            points.append(SweepPoint.from_quality(trace.name, quality))
    return points


def scheme_curve(
    points: list[SweepPoint], benchmark: str, scheme: str
) -> list[SweepPoint]:
    """The (profiled flow)-sorted curve of one benchmark × scheme."""
    curve = [
        point
        for point in points
        if point.benchmark == benchmark and point.scheme == scheme
    ]
    return sorted(curve, key=lambda point: point.profiled_flow_percent)


def interpolate_at_profiled(
    curve: list[SweepPoint], profiled_percent: float
) -> tuple[float, float]:
    """(hit, noise) linearly interpolated at a profiled-flow level.

    Clamps to the curve's ends when the target lies outside the swept
    range.
    """
    if not curve:
        raise ExperimentError("cannot interpolate an empty curve")
    xs = [point.profiled_flow_percent for point in curve]
    if profiled_percent <= xs[0]:
        return curve[0].hit_rate, curve[0].noise_rate
    if profiled_percent >= xs[-1]:
        return curve[-1].hit_rate, curve[-1].noise_rate
    for left, right in zip(curve, curve[1:]):
        x0 = left.profiled_flow_percent
        x1 = right.profiled_flow_percent
        if x0 <= profiled_percent <= x1:
            if x1 == x0:
                return right.hit_rate, right.noise_rate
            alpha = (profiled_percent - x0) / (x1 - x0)
            hit = left.hit_rate + alpha * (right.hit_rate - left.hit_rate)
            noise = left.noise_rate + alpha * (
                right.noise_rate - left.noise_rate
            )
            return hit, noise
    raise ExperimentError("interpolation fell through a sorted curve")


def average_curve(
    points: list[SweepPoint], scheme: str, delays: tuple[int, ...]
) -> list[SweepPoint]:
    """Across-benchmark average at each delay (the figures' Average line)."""
    averaged = []
    for delay in delays:
        cell = [
            point
            for point in points
            if point.scheme == scheme and point.delay == delay
        ]
        if not cell:
            continue
        count = len(cell)
        averaged.append(
            SweepPoint(
                benchmark="Average",
                scheme=scheme,
                delay=delay,
                profiled_flow_percent=sum(
                    p.profiled_flow_percent for p in cell
                )
                / count,
                hit_rate=sum(p.hit_rate for p in cell) / count,
                noise_rate=sum(p.noise_rate for p in cell) / count,
                num_predicted=sum(p.num_predicted for p in cell) // count,
                num_predicted_hot=sum(p.num_predicted_hot for p in cell)
                // count,
            )
        )
    return averaged
