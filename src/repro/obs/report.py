"""Human-facing reporters over a registry snapshot.

The JSON manifest (:mod:`repro.obs.manifest`) is the machine interface;
this module renders the same registry for people: a one-line summary
suitable for stderr after a CLI run.
"""

from __future__ import annotations

from repro.obs.core import Registry


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def render_summary(registry: Registry, wall_seconds: float | None = None) -> str:
    """One line: wall time, phases with their share, top counters.

    Designed for stderr after a CLI run — informative but never more
    than one line, e.g.::

        metrics: wall 4.21s | phases sweep:compress 4.20s | sweep.cells_total 34, sweep.cache.hits 34
    """
    snapshot = registry.snapshot()
    parts = []
    if wall_seconds is not None:
        parts.append(f"wall {_fmt_seconds(wall_seconds)}")
    phase_bits = []
    for name in snapshot["phases"]:
        record = snapshot["timers"].get(f"phase.{name}", {})
        phase_bits.append(
            f"{name} {_fmt_seconds(record.get('total_seconds', 0.0))}"
        )
    if phase_bits:
        parts.append("phases " + ", ".join(phase_bits))
    counters = [
        f"{name} {value:,}"
        for name, value in snapshot["counters"].items()
        if value
    ]
    if counters:
        parts.append(", ".join(counters[:8]))
        if len(counters) > 8:
            parts[-1] += f", … ({len(counters) - 8} more)"
    return "metrics: " + (" | ".join(parts) if parts else "nothing recorded")
