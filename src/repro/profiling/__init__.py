"""Path profiling schemes (paper §2) and baselines.

* :class:`BitTracingProfiler` — on-the-fly path signatures: the path
  extractor's paths counted by signature, plus the register's shifts;
* :class:`BallLarusProfiler` — spanning-tree instrumented path numbering;
* :class:`KBoundedPathProfiler` — Young–Smith k-bounded general paths;
* :class:`EdgeProfiler` / :class:`BlockProfiler` — classic baselines;
* :func:`compare_schemes` — the §4 overhead comparison.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ball_larus": ("BallLarusProfiler",),
        "base": ("Profiler", "ProfileReport"),
        "bit_tracing": ("BitTracingProfiler",),
        "block_profile": ("BlockProfiler",),
        "counters": ("CounterTable",),
        "edge_profile": ("EdgeProfiler",),
        "kpaths": ("KBoundedPathProfiler",),
        "overhead": ("HeadCounterProfiler", "OverheadRow", "compare_schemes"),
    },
)
