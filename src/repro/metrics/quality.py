"""The paper's abstract prediction-quality metrics (§3).

Given a trace, its hot set and a predictor outcome:

* ``Hits(P)``   — hot flow captured after the prediction moment;
* ``Noise(P)``  — cold flow inadvertently captured;
* ``MOC(P)``    — missed opportunity cost, ``|P ∩ Hot| × τ`` (the hot flow
  lost to the prediction delay);
* ``HitRate`` / ``NoiseRate`` — both normalized by the hot flow
  ``freq(HotPath_h)`` and expressed as percentages;
* the profiled/predicted flow split of §5.1: predicted flow is
  ``Hits + Noise``; profiled flow is everything else.

The hit/noise computation uses each prediction's *actual* captured flow
(exact trace simulation).  For path-profile based prediction this equals
the paper's closed form ``freq(p) − τ`` — a property the test-suite
asserts — while for NET it accounts for the speculative tail selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.hotpaths import HotPathSet
from repro.prediction.base import PredictionOutcome
from repro.trace.recorder import PathTrace


@dataclass(frozen=True)
class PredictionQuality:
    """Scored outcome of one predictor run on one trace."""

    scheme: str
    delay: int
    total_flow: int
    hot_flow: int
    hits_flow: int
    noise_flow: int
    num_predicted: int
    num_predicted_hot: int
    #: ``|P ∩ Hot| × τ`` — the paper's MOC formula.
    moc_formula: int
    #: Hot flow actually missed before the prediction moments.
    moc_actual: int

    @property
    def cold_flow(self) -> int:
        """Flow executed by cold paths."""
        return self.total_flow - self.hot_flow

    @property
    def hit_rate(self) -> float:
        """``HitRate(P) = Hits(P) / freq(HotPath_h) × 100``."""
        if self.hot_flow == 0:
            return 0.0
        return 100.0 * self.hits_flow / self.hot_flow

    @property
    def noise_rate(self) -> float:
        """Noise as the percentage of *cold* flow included in P.

        Paper §3 states "noise measures the percentage of cold flow that
        was inadvertently included in P", and Figure 3's curves all start
        near 100% at τ→0 — both consistent only with normalization by the
        cold flow (the §3 formula's ``/ freq(HotPath_h)`` denominator
        would bound compress's noise to 0.4%).  This property follows the
        figures; :attr:`noise_rate_vs_hot` implements the literal formula.
        """
        if self.cold_flow == 0:
            return 0.0
        return 100.0 * self.noise_flow / self.cold_flow

    @property
    def noise_rate_vs_hot(self) -> float:
        """``NoiseRate(P) = Noise(P) / freq(HotPath_h) × 100`` (literal §3)."""
        if self.hot_flow == 0:
            return 0.0
        return 100.0 * self.noise_flow / self.hot_flow

    @property
    def predicted_flow(self) -> int:
        """Flow executed under predictions: ``Hits + Noise``."""
        return self.hits_flow + self.noise_flow

    @property
    def profiled_flow(self) -> int:
        """Flow consumed by the prediction delay (§5.1)."""
        return self.total_flow - self.predicted_flow

    @property
    def profiled_flow_percent(self) -> float:
        """Profiled flow as a percentage of total flow (the §5 x-axis)."""
        if self.total_flow == 0:
            return 0.0
        return 100.0 * self.profiled_flow / self.total_flow

    def render(self) -> str:
        """One-line report form."""
        return (
            f"{self.scheme}(τ={self.delay}): hit={self.hit_rate:.2f}% "
            f"noise={self.noise_rate:.2f}% "
            f"profiled={self.profiled_flow_percent:.2f}% "
            f"predictions={self.num_predicted} "
            f"(hot={self.num_predicted_hot})"
        )


def evaluate_prediction(
    trace: PathTrace, hot: HotPathSet, outcome: PredictionOutcome
) -> PredictionQuality:
    """Score ``outcome`` against ``hot`` using the paper's metrics."""
    predicted = outcome.predicted_ids
    captured = outcome.captured
    if len(predicted):
        hot_mask = hot.hot_mask[predicted]
        hits_flow = int(captured[hot_mask].sum())
        noise_flow = int(captured[~hot_mask].sum())
        num_hot = int(hot_mask.sum())
        freqs = trace.freqs()
        missed_hot = int(
            (freqs[predicted[hot_mask]] - captured[hot_mask]).sum()
        )
    else:
        hits_flow = noise_flow = num_hot = missed_hot = 0

    return PredictionQuality(
        scheme=outcome.scheme,
        delay=outcome.delay,
        total_flow=trace.flow,
        hot_flow=hot.hot_flow,
        hits_flow=hits_flow,
        noise_flow=noise_flow,
        num_predicted=outcome.num_predictions,
        num_predicted_hot=num_hot,
        moc_formula=num_hot * outcome.delay,
        moc_actual=missed_hot,
    )
