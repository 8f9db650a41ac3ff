"""``repro.obs`` — the unified observability layer.

One small, dependency-free subsystem answers "where did this run spend
its time and operations?" for every layer that does real work: the
sweep engine and its cache, the Dynamo simulator and VM, and the
predictors.  See ``docs/observability.md`` for the tour and the run
manifest schema.

* :mod:`repro.obs.core` — ``Counter``/``Gauge``/``Timer`` primitives,
  the hierarchical :class:`Registry` with ``span``/``phase`` timing, the
  zero-cost :class:`NullRegistry`, and snapshot/merge for combining
  per-worker measurements.
* :mod:`repro.obs.manifest` — the machine-readable JSON run manifest
  (argv, git revision, wall times, per-phase counters).
* :mod:`repro.obs.report` — the human-facing one-line summary.
"""

from repro.obs.core import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    NullRegistry,
    Registry,
    Timer,
    get_registry,
)
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    RunRecorder,
    build_manifest,
    git_revision,
    write_manifest,
)
from repro.obs.report import render_summary

__all__ = [
    "MANIFEST_FORMAT",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "NullRegistry",
    "Registry",
    "RunRecorder",
    "Timer",
    "build_manifest",
    "get_registry",
    "git_revision",
    "render_summary",
    "write_manifest",
]
