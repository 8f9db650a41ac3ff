"""Path profiling schemes (paper §2) and baselines.

* :class:`BitTracingProfiler` — on-the-fly path signatures: the path
  extractor's paths counted by signature, plus the register's shifts;
* :class:`BallLarusProfiler` — spanning-tree instrumented path numbering;
* :class:`KBoundedPathProfiler` — Young–Smith k-bounded general paths;
* :class:`EdgeProfiler` / :class:`BlockProfiler` — classic baselines;
* :func:`compare_schemes` — the §4 overhead comparison.
"""

from repro.profiling.ball_larus import BallLarusProfiler
from repro.profiling.base import Profiler, ProfileReport
from repro.profiling.bit_tracing import BitTracingProfiler
from repro.profiling.block_profile import BlockProfiler
from repro.profiling.counters import CounterTable
from repro.profiling.edge_profile import EdgeProfiler
from repro.profiling.kpaths import KBoundedPathProfiler
from repro.profiling.overhead import (
    HeadCounterProfiler,
    OverheadRow,
    compare_schemes,
)

__all__ = [
    "BallLarusProfiler",
    "BitTracingProfiler",
    "BlockProfiler",
    "CounterTable",
    "EdgeProfiler",
    "HeadCounterProfiler",
    "KBoundedPathProfiler",
    "OverheadRow",
    "ProfileReport",
    "Profiler",
    "compare_schemes",
]
