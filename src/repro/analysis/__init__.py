"""Offline profile analyses (paper §7's edge-vs-path showdown)."""

from repro.analysis.edge_vs_path import (
    ShowdownResult,
    edge_profile_of,
    edge_vs_path_showdown,
    estimate_path_freqs,
)

__all__ = [
    "ShowdownResult",
    "edge_profile_of",
    "edge_vs_path_showdown",
    "estimate_path_freqs",
]
