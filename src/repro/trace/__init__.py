"""Execution traces: branch events, paths, extraction and recording.

The pipeline is::

    Program  --CFGWalker/ISA Machine-->  EventBatch stream
             --PathExtractor-->  path ids (one per occurrence)
             --record_path_trace-->  PathTrace (ids + PathTable)

Workload surrogates may synthesize a :class:`PathTrace` directly from a
stochastic path model; everything downstream is agnostic to the origin.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "batch": ("HALT_DST", "EventBatch"),
        "columnar": ("find_cuts",),
        "extractor": ("PathExtractor", "PathStream"),
        "io": ("load_trace", "save_trace"),
        "path": ("Path", "PathSignature", "PathTable"),
        "recorder": ("PathTrace", "record_path_trace"),
        "stats": ("TraceSummary", "summarize"),
        "walker": (
            "BranchOracle",
            "CFGWalker",
            "RandomOracle",
            "TripCountOracle",
        ),
    },
)
