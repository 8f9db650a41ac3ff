"""Machine-readable run manifests.

A *run manifest* is the JSON record of one tool invocation: what was
asked (argv), what code ran (git revision, package version), how long it
took, and everything the run's :class:`~repro.obs.core.Registry`
measured — phases with wall times, counters, gauges, timers.  The CLI
writes one per invocation under ``--metrics-json``; benchmarks and
scripts can call :func:`write_manifest` directly.

The schema (``manifest_format`` 1)::

    {
      "manifest_format": 1,
      "tool": "repro",
      "version": "<package version>",
      "argv": ["experiment", "figure2", ...],
      "git_rev": "<hex>" | null,
      "started_at_unix": 1754000000.0,
      "wall_seconds": 12.34,
      "interrupted": false,
      "phases": [{"name": ..., "wall_seconds": ..., "count": ...}, ...],
      "counters": {"sweep.cells_total": 306, ...},
      "gauges": {...},
      "timers": {"sweep.replay": {"total_seconds": ..., "count": ...}, ...}
    }

``git_rev`` is resolved best-effort (``None`` outside a checkout or
without a git binary); nothing else in the manifest depends on the
environment.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time

from repro import __version__
from repro.obs.core import Registry

#: Schema version stamped into every manifest.
MANIFEST_FORMAT = 1


def git_revision() -> str | None:
    """The current directory's git commit hash, or ``None`` when
    unavailable."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def build_manifest(
    registry: Registry,
    argv: list[str] | None = None,
    started_at: float | None = None,
    wall_seconds: float | None = None,
    git_rev: str | None = None,
    interrupted: bool = False,
) -> dict:
    """Assemble the manifest dict for one finished run.

    ``registry`` supplies phases/counters/gauges/timers via its
    snapshot; the remaining fields describe the invocation itself.
    ``interrupted`` marks a run stopped by SIGINT/SIGTERM — the
    manifest then records everything measured up to the drain point.
    """
    snapshot = registry.snapshot()
    timers = snapshot["timers"]
    phases = []
    for name in snapshot["phases"]:
        record = timers.get(f"phase.{name}", {})
        phases.append(
            {
                "name": name,
                "wall_seconds": record.get("total_seconds", 0.0),
                "count": record.get("count", 0),
            }
        )
    return {
        "manifest_format": MANIFEST_FORMAT,
        "tool": "repro",
        "version": __version__,
        "argv": list(argv) if argv is not None else [],
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "started_at_unix": started_at,
        "wall_seconds": wall_seconds,
        "interrupted": interrupted,
        "phases": phases,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "timers": timers,
    }


def write_manifest(
    path: str | pathlib.Path,
    registry: Registry,
    argv: list[str] | None = None,
    started_at: float | None = None,
    wall_seconds: float | None = None,
    interrupted: bool = False,
) -> pathlib.Path:
    """Write the run manifest as JSON; returns the path written.

    Parent directories are created as needed.  The file is standard
    JSON (non-finite floats are rejected rather than emitted as the
    ``NaN``/``Infinity`` extensions).
    """
    target = pathlib.Path(path)
    manifest = build_manifest(
        registry,
        argv=argv,
        started_at=started_at,
        wall_seconds=wall_seconds,
        interrupted=interrupted,
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(manifest, indent=2, sort_keys=False, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    return target


class RunRecorder:
    """Tracks one invocation's wall clock for its manifest.

    Usage::

        recorder = RunRecorder(argv)
        ... run, instrumenting into ``registry`` ...
        recorder.write(path, registry)
    """

    def __init__(self, argv: list[str] | None = None):
        self.argv = list(argv) if argv is not None else []
        self.started_at = time.time()
        self._start = time.perf_counter()

    @property
    def wall_seconds(self) -> float:
        """Seconds elapsed since the recorder was created."""
        return time.perf_counter() - self._start

    def write(
        self,
        path: str | pathlib.Path,
        registry: Registry,
        interrupted: bool = False,
    ) -> pathlib.Path:
        """Write the manifest for this invocation."""
        return write_manifest(
            path,
            registry,
            argv=self.argv,
            started_at=self.started_at,
            wall_seconds=self.wall_seconds,
            interrupted=interrupted,
        )
