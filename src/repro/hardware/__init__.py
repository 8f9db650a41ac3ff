"""Hardware prediction schemes from the paper's related work (§7).

Branch-direction predictors (static, bimodal, gshare, two-level
adaptive) and a trace-cache model, all consuming the same event batches
as the software profilers — so one trace quantifies both the
hardware schemes' per-branch accuracy and the software schemes' hot-path
quality, making the paper's "different problem, invisible state"
argument measurable.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "branch_predictors": (
            "BimodalPredictor",
            "BranchPredictionStats",
            "BranchPredictor",
            "GSharePredictor",
            "StaticTakenPredictor",
            "TwoLevelAdaptivePredictor",
            "compare_branch_predictors",
        ),
        "trace_cache": ("TraceCache", "TraceCacheStats", "TraceLine"),
    },
)
