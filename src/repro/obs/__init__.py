"""``repro.obs`` — the unified observability layer.

One small, dependency-free subsystem answers "where did this run spend
its time and operations?" for every layer that does real work: the
sweep engine and its cache, the Dynamo simulator and VM, and the
predictors.  See ``docs/observability.md`` for the tour and the run
manifest schema.

* :mod:`repro.obs.core` — ``Counter``/``Gauge``/``Timer`` primitives,
  the hierarchical :class:`Registry` with ``span``/``phase`` timing, the
  zero-cost :class:`NullRegistry`, and snapshot/merge for combining
  per-batch measurements.
* :mod:`repro.obs.manifest` — the machine-readable JSON run manifest
  (argv, git revision, wall times, per-phase counters).
* :mod:`repro.obs.report` — the human-facing one-line summary.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "NULL_REGISTRY",
            "Counter",
            "Gauge",
            "NullRegistry",
            "Registry",
            "Timer",
            "get_registry",
        ),
        "manifest": (
            "MANIFEST_FORMAT",
            "RunRecorder",
            "build_manifest",
            "git_revision",
            "write_manifest",
        ),
        "report": ("render_summary",),
    },
)
