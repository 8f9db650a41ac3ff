"""Online hot-path prediction schemes.

* :class:`PathProfilePredictor` — full path profiling with a prediction
  threshold (the paper's "path profile based prediction");
* :class:`NETPredictor` — the paper's contribution: head counters plus
  speculative Next-Executing-Tail selection;
* :class:`BoaPredictor` — branch-frequency path construction (related
  work, §7);
* :class:`FirstExecutionPredictor` — the τ = 0 limit case.

All schemes share the :class:`OnlinePredictor` interface and produce
:class:`PredictionOutcome` records scored by :mod:`repro.metrics`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "OnlinePredictor",
            "PredictionOutcome",
            "occurrence_index_arrays",
        ),
        "boa": ("BoaPredictor",),
        "first_execution": ("FirstExecutionPredictor",),
        "net": ("NETPredictor",),
        "path_profile": ("PathProfilePredictor",),
        "streaming": ("NETSession",),
    },
)
