"""Sweep task planning: the canonical decomposition of a delay sweep.

A prediction-delay sweep is a dense grid of *independent* cells — one
(benchmark, scheme, τ) measurement each.  Nothing in the paper's
evaluation couples two cells: every cell replays its trace from scratch
with its own predictor instance, so the grid can be scheduled in any
order on any number of workers.

What must stay fixed is the *presentation* order.  The planner pins a
canonical order — benchmark, then scheme, then delay, exactly the
serial ``sweep_trace`` loop nest — and stamps every task with its index
in that order.  The executor assembles results by task index, which is
how a parallel sweep ends up byte-identical to a serial one no matter
how the tasks were scheduled (see :mod:`repro.experiments.engine.executor`).
"""

from __future__ import annotations

from collections.abc import Sequence

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.sweep import DEFAULT_DELAYS, SCHEMES


@dataclass(frozen=True)
class SweepTask:
    """One independent sweep cell plus its canonical position."""

    benchmark: str
    scheme: str
    delay: int
    #: Position in the canonical (benchmark, scheme, delay) order; the
    #: executor writes this task's result at ``results[index]``.
    index: int


def plan_sweep(
    benchmarks: Sequence[str],
    schemes: tuple[str, ...] = SCHEMES,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
) -> list[SweepTask]:
    """Decompose a sweep into tasks in canonical order.

    The order matches the serial ``sweep_trace`` loop nest (benchmarks
    outermost, delays innermost), so a result list assembled by task
    index is identical to the historical serial output.
    """
    if not benchmarks:
        raise ExperimentError("sweep plan needs at least one benchmark")
    if not schemes or not delays:
        raise ExperimentError(
            "sweep plan needs at least one scheme and one delay"
        )
    if len(set(benchmarks)) != len(benchmarks):
        raise ExperimentError("sweep plan benchmarks must be distinct")
    tasks: list[SweepTask] = []
    for benchmark in benchmarks:
        for scheme in schemes:
            for delay in delays:
                tasks.append(
                    SweepTask(
                        benchmark=benchmark,
                        scheme=scheme,
                        delay=delay,
                        index=len(tasks),
                    )
                )
    return tasks


def group_by_benchmark(
    tasks: Sequence[SweepTask],
) -> dict[str, list[SweepTask]]:
    """Tasks bucketed per benchmark, preserving canonical order.

    Every batch the executor runs holds cells of one benchmark only, so
    a batch replays on that benchmark's shared per-trace memos.
    """
    groups: dict[str, list[SweepTask]] = {}
    for task in tasks:
        groups.setdefault(task.benchmark, []).append(task)
    return groups


def chunk_tasks(
    tasks: Sequence[SweepTask], chunk_size: int
) -> list[list[SweepTask]]:
    """Split one benchmark's task list into scheduling chunks.

    Smaller chunks spread one benchmark's cells over several workers;
    larger chunks amortize per-batch dispatch.  Order within and across
    chunks stays canonical.
    """
    if chunk_size < 1:
        raise ExperimentError(f"chunk size must be positive, got {chunk_size}")
    return [
        list(tasks[start : start + chunk_size])
        for start in range(0, len(tasks), chunk_size)
    ]


#: Ceiling on the autotuned chunk size.  A thread-pool batch moves no
#: data, so a large chunk saves almost nothing on dispatch but costs
#: load balance, and a sweep that stops early caches nothing of a batch
#: still running.
AUTOTUNE_MAX_CHUNK = 32

#: Batches the autotuner aims to give each worker per benchmark, so the
#: pool stays balanced when batch runtimes differ (large-τ cells predict
#: fewer paths and finish faster than small-τ ones).
AUTOTUNE_WAVES_PER_WORKER = 2


def autotune_chunk_size(num_cells: int, workers: int) -> int:
    """Pick a chunk size for one benchmark's pending cells.

    ``num_cells`` must be the count of *dirty* cells — the cells the
    executor will actually replay after cache hits are served — never
    the full plan size.  A warm run with 90% cache hits must get
    chunks sized on the 10% that remains, or each benchmark collapses
    into one oversized batch and the pool idles (the executor sizes on
    its post-cache ``pending`` set; a regression test locks this
    down).

    Targets :data:`AUTOTUNE_WAVES_PER_WORKER` batches per worker per
    benchmark: enough slack for the pool's FIFO queue to even out
    uneven batch runtimes, without fragmenting the sweep into per-cell
    dispatch overhead.
    """
    if workers < 1:
        raise ExperimentError(f"autotune needs workers >= 1, got {workers}")
    if num_cells < 1:
        return 1
    target = -(-num_cells // (workers * AUTOTUNE_WAVES_PER_WORKER))
    return max(1, min(target, AUTOTUNE_MAX_CHUNK))
