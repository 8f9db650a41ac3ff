"""Abstract prediction-quality metrics (paper §3 and §5).

Hot sets (:func:`hot_path_set`), hit/noise/MOC scoring
(:func:`evaluate_prediction`), and counter-space accounting
(:func:`counter_space`).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "hotpaths": (
            "DEFAULT_HOT_FRACTION",
            "HotPathSet",
            "hot_path_set",
            "hot_path_set_absolute",
        ),
        "quality": ("PredictionQuality", "evaluate_prediction"),
        "space": ("CounterSpace", "counter_space"),
        "windowed": (
            "FlushOnSpike",
            "NeverRetire",
            "RetireIdle",
            "RetirementPolicy",
            "WindowedQuality",
            "evaluate_windowed",
        ),
    },
)
