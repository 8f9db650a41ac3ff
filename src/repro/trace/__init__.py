"""Execution traces: branch events, paths, extraction and recording.

The pipeline is::

    Program  --CFGWalker/ISA Machine-->  EventBatch stream
             --PathExtractor-->  path ids (one per occurrence)
             --record_path_trace-->  PathTrace (ids + PathTable)

Workload surrogates may synthesize a :class:`PathTrace` directly from a
stochastic path model; everything downstream is agnostic to the origin.
"""

from repro.trace.batch import HALT_DST, EventBatch, EventBatchBuilder
from repro.trace.columnar import find_cuts
from repro.trace.extractor import PathExtractor, PathStream
from repro.trace.io import load_trace, save_trace
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace, record_path_trace
from repro.trace.stats import TraceSummary, summarize
from repro.trace.walker import (
    BranchOracle,
    CFGWalker,
    RandomOracle,
    TripCountOracle,
)

__all__ = [
    "HALT_DST",
    "BranchOracle",
    "CFGWalker",
    "EventBatch",
    "EventBatchBuilder",
    "Path",
    "PathExtractor",
    "PathSignature",
    "PathStream",
    "PathTable",
    "PathTrace",
    "RandomOracle",
    "TraceSummary",
    "TripCountOracle",
    "find_cuts",
    "load_trace",
    "save_trace",
    "record_path_trace",
    "summarize",
]
