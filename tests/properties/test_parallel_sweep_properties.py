"""Property-based tests: a threaded sweep is byte-identical to a serial
one.

The executor assembles points by canonical task index and the cache
addresses cells by content, so neither the thread count nor the order
in which batches finish may change a byte.  Hypothesis varies the
thread count, the benchmarks and delays swept, and which cells the
cache already holds — so the pending counts, and with them the
autotuned batch sizes, vary too.  The threaded sweep replays fresh
trace copies, so racing threads build the per-trace memos.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.data import benchmark_traces
from repro.experiments.engine import SweepCache
from repro.experiments.engine.executor import run_sweep
from repro.resilience import RetryPolicy
from repro.trace.recorder import PathTrace

BENCHMARKS = ("compress", "deltablue", "go", "li")
DELAYS = (1, 10, 100, 1_000)

_TRACES = None


def _traces() -> dict[str, PathTrace]:
    """Session-cached traces (Hypothesis re-enters the test body many
    times; the workload must be generated once)."""
    global _TRACES
    if _TRACES is None:
        _TRACES = benchmark_traces(list(BENCHMARKS), flow_scale=0.02)
    return _TRACES


def _fresh(trace: PathTrace) -> PathTrace:
    """The same trace with none of its memos built."""
    return PathTrace(trace.table, trace.path_ids, name=trace.name)


def _cache_fingerprint(root: Path) -> dict[str, str]:
    """File name → sha256 of every file under a cache directory."""
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workers=st.integers(min_value=1, max_value=4),
    benchmarks=st.sets(st.sampled_from(BENCHMARKS), min_size=1),
    delays=st.sets(st.sampled_from(DELAYS), min_size=1),
    seeded=st.sets(st.integers(min_value=0, max_value=63)),
)
def test_threads_match_serial_points_and_cache_bytes(
    workers, benchmarks, delays, seeded
):
    traces = _traces()
    names = [name for name in BENCHMARKS if name in benchmarks]
    delays = tuple(sorted(delays))
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        threaded_dir = Path(tmp) / "threaded"
        serial = run_sweep(
            {name: traces[name] for name in names},
            delays=delays,
            cache=SweepCache(serial_dir),
        )
        # Pre-seed the threaded run's cache with some of the cells.
        threaded_dir.mkdir()
        entries = sorted(serial_dir.iterdir())
        for index in seeded:
            if index < len(entries):
                shutil.copy(entries[index], threaded_dir)
        threaded = run_sweep(
            {name: _fresh(traces[name]) for name in names},
            delays=delays,
            workers=workers,
            cache=SweepCache(threaded_dir),
        )
        assert threaded == serial
        assert _cache_fingerprint(threaded_dir) == _cache_fingerprint(
            serial_dir
        )


def test_racing_threads_never_see_half_a_memo():
    """Stress: more threads than cores, a switch interval short enough
    to interleave the memo builds, and no retry budget — a thread that
    read half of a memo would fail the sweep instead of retrying."""
    traces = _traces()
    names = ("compress", "go")
    serial = run_sweep({name: traces[name] for name in names}, delays=DELAYS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            threaded = run_sweep(
                {name: _fresh(traces[name]) for name in names},
                delays=DELAYS,
                workers=4,
                resilience=RetryPolicy(max_retries=0),
            )
            assert threaded == serial
    finally:
        sys.setswitchinterval(interval)
