"""Counter-space comparison (paper §5.2, Table 2, Figure 4).

NET keeps one counter per *unique path head* (backward-taken-branch
target); path-profile based prediction keeps one counter per *dynamic
path*.  Figure 4 plots the ratio of the two per benchmark, normalized to
the path-profile space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.recorder import PathTrace


@dataclass(frozen=True)
class CounterSpace:
    """Counter-space figures for one trace."""

    name: str
    #: Dynamic paths seen — the path-profile counter population.
    num_paths: int
    #: Unique dynamic path heads — the NET counter population.
    num_heads: int

    @property
    def net_over_path_profile(self) -> float:
        """NET counter space normalized to path-profile space (Figure 4)."""
        if self.num_paths == 0:
            return 0.0
        return self.num_heads / self.num_paths

    @property
    def space_saving_percent(self) -> float:
        """Percentage of counter space NET saves."""
        return 100.0 * (1.0 - self.net_over_path_profile)

    def render(self) -> str:
        """One-line report form."""
        return (
            f"{self.name}: paths={self.num_paths:,} heads={self.num_heads:,} "
            f"ratio={self.net_over_path_profile:.3f}"
        )


def counter_space(trace: PathTrace) -> CounterSpace:
    """Measure both schemes' counter populations on ``trace``."""
    return CounterSpace(
        name=trace.name,
        num_paths=int((trace.freqs() > 0).sum()),
        num_heads=trace.num_dynamic_heads(),
    )
