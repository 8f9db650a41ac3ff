"""Offline profile analyses (paper §7's edge-vs-path showdown)."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "edge_vs_path": (
            "ShowdownResult",
            "edge_profile_of",
            "edge_vs_path_showdown",
            "estimate_path_freqs",
        ),
    },
)
