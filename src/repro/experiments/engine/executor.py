"""Sweep execution: cache lookup, replay, deterministic assembly.

:func:`run_sweep` is the one entry point every delay sweep goes
through.  It plans the (benchmark, scheme, τ) grid, serves whatever the
cache already holds, and replays only the remaining cells in one of two
ways: in-process when ``workers == 0`` (the default), or on a pool of
``workers`` threads fed batches in canonical plan order.  Threads pay
off because a cell spends most of its time in NumPy, which releases the
GIL, and because every thread shares the sweep's per-trace memos.

Determinism guarantee: each cell is a pure function of its trace and
coordinates, computed by the same :func:`_run_cells` code path in both
modes, and the output list is ordered by the planner's canonical index
rather than by completion order.  Serial, threaded, cached and
*resumed* runs of the same sweep therefore return *equal* point lists,
and every rendered figure built from them is byte-identical — a
property the equivalence test-suite locks down.

Failures (see :mod:`repro.resilience` and ``docs/resilience.md``):
every completed batch is written to the cache *immediately*, so a sweep
that stops early leaves a resumable cache rather than losing all
replayed-but-unstored cells.  A batch that raises stops the sweep at
once with that batch's own exception: a cell is deterministic, so
replaying it would fail the same way.  SIGINT/SIGTERM stop the sweep at
the next batch boundary and raise
:class:`~repro.errors.SweepInterrupted` carrying the partial results.
Every batch starts in :meth:`_SweepRunner._compute`, on whichever
thread runs it, so a test arms a crash or an interrupt there.

Observability: pass ``obs`` (a :class:`repro.obs.Registry`) and the
engine accounts for itself under the ``sweep.`` prefix — cells planned
/ cached / replayed, batches, workers, chunk size, and replay /
hot-set / per-cell timers.  Each batch measures into a local registry
that travels back with its points and is merged as the batch completes,
so threaded runs report the same totals as serial ones.  With no
registry (the default) every instrument resolves to the shared null
registry and the replay path is byte-for-byte the uninstrumented one.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.errors import ExperimentError, SweepInterrupted
from repro.experiments.engine.cache import SweepCache, cache_key, trace_digest
from repro.experiments.engine.planner import (
    SweepTask,
    autotune_chunk_size,
    chunk_tasks,
    group_by_benchmark,
    plan_sweep,
)
from repro.experiments.sweep import (
    DEFAULT_DELAYS,
    SCHEMES,
    SweepPoint,
    make_predictor,
)
from repro.metrics.hotpaths import HotPathSet, hot_path_set
from repro.metrics.quality import evaluate_prediction
from repro.obs.core import Registry, get_registry
from repro.resilience.signals import InterruptFlag, interrupt_guard
from repro.trace.recorder import PathTrace

#: Timer-name prefix of the per-cell manifest entries, relative to the
#: engine registry (manifests show ``sweep.cell.*``).
CELL_TIMER_PREFIX = "cell."

#: Histogram bucket upper bounds (milliseconds) for the ``cell_ms``
#: distribution counters in run manifests.
CELL_MS_BUCKETS = (1.0, 5.0, 25.0, 100.0, 500.0)

#: Longest the main thread blocks waiting for a pooled batch; bounds
#: how stale the interrupt flag can get.
_POLL_SECONDS = 0.5


def cell_name(benchmark: str, scheme: str, delay: int) -> str:
    """A cell's human-readable coordinates, as its manifest timer names
    them."""
    return f"{benchmark}:{scheme}:{delay}"


class ReplayContext:
    """Memoized per-trace replay state shared by every cell.

    Holds the trace plus the 0.1% hot set every cell's quality metrics
    need; the trace's own cache memoizes the occurrence index and NET's
    head-arrival ranks (the memo that lets every delay's NET cell
    answer by threshold).  A sweep keeps one context per benchmark,
    shared by all of that benchmark's batches and threads, so the
    Figure 2 sweep computes nine hot sets instead of one per batch.
    """

    __slots__ = ("trace", "_hot", "_lock")

    def __init__(self, trace: PathTrace):
        self.trace = trace
        self._hot: HotPathSet | None = None
        self._lock = threading.Lock()

    @property
    def hot(self) -> HotPathSet:
        """The trace's hot set, computed once, on first use."""
        with self._lock:
            if self._hot is None:
                self._hot = hot_path_set(self.trace)
            return self._hot


def _run_cells(
    context: ReplayContext,
    tasks: list[SweepTask],
    observe: bool = False,
) -> tuple[list[SweepPoint], dict | None]:
    """Replay a batch of one benchmark's cells on its replay context.

    The context memoizes the per-trace precomputations (hot set,
    occurrence index): the first batch of a trace pays for them, every
    later batch reuses them — the ``hot_set`` timer records the true
    marginal cost, which is ~0 on reuse.

    With ``observe`` the batch measures itself into a throwaway local
    registry and returns its snapshot alongside the points (relative
    names; the caller mounts it wherever it belongs).  Each cell's wall
    time lands in the ``replay`` and ``cell_ms`` timers, a
    ``cell_ms_le_*`` bucket counter and the cell's own
    ``cell.<benchmark>:<scheme>:<τ>`` timer; without ``observe`` no
    clock is read.  The points are identical either way.
    """
    obs = Registry() if observe else get_registry(None)
    trace = context.trace
    with obs.span("hot_set"):
        hot = context.hot
    points = []
    for task in tasks:
        if observe:
            started = time.perf_counter()
        outcome = make_predictor(task.scheme, task.delay).run(trace)
        quality = evaluate_prediction(trace, hot, outcome)
        if observe:
            _record_cell(obs, task, time.perf_counter() - started)
        obs.counter("cells_replayed").inc()
        outcome.publish(obs.child("prediction"))
        points.append(SweepPoint.from_quality(trace.name, quality))
    return points, (obs.snapshot() if observe else None)


def _bucket_counter(ms: float) -> str:
    """The manifest histogram bucket a cell cost falls into."""
    for bound in CELL_MS_BUCKETS:
        if ms <= bound:
            return f"cell_ms_le_{int(bound)}"
    return "cell_ms_le_inf"


def _record_cell(obs: Registry, task: SweepTask, seconds: float) -> None:
    """Record one replayed cell's wall time in a batch registry."""
    obs.timer("replay").observe(seconds)
    obs.timer("cell_ms").observe(seconds)
    obs.counter(_bucket_counter(seconds * 1000.0)).inc()
    obs.timer(
        CELL_TIMER_PREFIX + cell_name(task.benchmark, task.scheme, task.delay)
    ).observe(seconds)


class _SweepRunner:
    """Executes one sweep's pending batches.

    Every batch goes through :meth:`_compute`, on the main thread when
    ``workers == 0`` and on a pool thread otherwise.  Only the main
    thread touches shared state: :meth:`_complete` merges a finished
    batch's metrics, writes it to the cache and places its points at
    their canonical indices as soon as the batch finishes, not after
    the sweep.  A batch that raises ends the run with its exception;
    in thread mode every batch that returned is completed first.
    """

    def __init__(
        self,
        batches: list[list[SweepTask]],
        contexts: dict[str, ReplayContext],
        engine: Registry,
        cache: SweepCache | None,
        keys: dict[int, str],
        results: list[SweepPoint | None],
        flag: InterruptFlag,
    ):
        self.batches = batches
        self.contexts = contexts
        self.engine = engine
        self.observe = engine.enabled
        self.cache = cache
        self.keys = keys
        self.results = results
        self.flag = flag

    def _compute(self, order: int) -> tuple[list, dict | None]:
        """Replay batch ``order``.

        Runs on whichever thread executes the batch and touches only the
        batch's own state, so pool threads never share anything mutable
        beyond the per-trace memos.
        """
        batch = self.batches[order]
        return _run_cells(
            self.contexts[batch[0].benchmark], batch, self.observe
        )

    def _complete(self, order: int, outcome) -> None:
        """Merge, cache and place batch ``order``'s computed outcome."""
        points, snapshot = outcome
        if snapshot is not None:
            # Batch measurements use relative names; merging through
            # the child view re-prefixes them.
            self.engine.merge(snapshot)
        for task, point in zip(self.batches[order], points):
            self.results[task.index] = point
            if self.cache is not None:
                self.cache.put(self.keys[task.index], point)

    def _check_interrupt(self) -> None:
        """Raise the structured interrupt with everything completed."""
        if not self.flag.fired:
            return
        self.engine.counter("interrupted").inc()
        partial = [point for point in self.results if point is not None]
        raise SweepInterrupted(
            partial=partial,
            completed=len(partial),
            total=len(self.results),
            signal_name=self.flag.signal_name,
        )

    def run(self, workers: int) -> None:
        if workers == 0:
            for order in range(len(self.batches)):
                self._check_interrupt()
                self._complete(order, self._compute(order))
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            # Submitted in canonical plan order: the pool's FIFO queue
            # is the whole schedule.
            orders = {
                pool.submit(self._compute, order): order
                for order in range(len(self.batches))
            }
            inflight = set(orders)
            while inflight and not self.flag.fired:
                done, _ = wait(
                    inflight,
                    timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                if any(future.exception() is not None for future in done):
                    break
                for future in sorted(done, key=orders.__getitem__):
                    self._complete(orders[future], future.result())
                    inflight.discard(future)
        finally:
            # Queued batches are dropped; running ones cannot be
            # stopped, so wait for them rather than leave them behind.
            pool.shutdown(wait=True, cancel_futures=True)
        # A failure or an interrupt ended the loop early.  Keep every
        # batch that returned (the rest of the failing batch's done
        # set and the batches the shutdown waited for), then raise the
        # first failure in plan order.
        failure = None
        for future in sorted(inflight, key=orders.__getitem__):
            if future.cancelled():
                continue
            if future.exception() is None:
                self._complete(orders[future], future.result())
            elif failure is None:
                failure = future.exception()
        if failure is not None:
            raise failure
        if inflight:
            self._check_interrupt()


def run_sweep(
    traces: dict[str, PathTrace],
    schemes: tuple[str, ...] = SCHEMES,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
) -> list[SweepPoint]:
    """Measure every (benchmark, scheme, τ) cell of a sweep.

    Parameters
    ----------
    traces:
        Benchmark name → trace; the iteration order fixes the output
        order (as in the historical serial sweep).
    workers:
        ``0`` (the default) replays in-process, one batch per
        benchmark.  ``N > 0`` replays on a pool of ``N`` threads; each
        benchmark's **pending** cells are split into batches sized by
        :func:`~repro.experiments.engine.planner.autotune_chunk_size`.
        Never affects results, only scheduling.
    cache:
        Optional :class:`SweepCache`.  Cached cells are served without
        replay; computed cells are stored back *as each batch completes*,
        so an interrupted sweep resumes from everything it finished.
        Hit/miss accounting accumulates on ``cache.stats``.
    obs:
        Optional observability registry; engine metrics land under its
        ``sweep.`` prefix (see the module docstring).  ``None`` runs
        uninstrumented at zero cost.

    Raises
    ------
    SweepInterrupted
        On SIGINT/SIGTERM, after placing and caching every completed
        batch (in thread mode, also those still running when the flag
        was seen); carries the partial results.
    Exception
        Whatever a batch raises, unchanged, after caching every batch
        that returned (in thread mode, the first failure in plan
        order).
    """
    if workers < 0:
        raise ExperimentError(f"workers must be >= 0, got {workers}")
    engine = get_registry(obs).child("sweep")
    with engine.span("total"):
        tasks = plan_sweep(list(traces), schemes=schemes, delays=delays)
        engine.counter("runs").inc()
        engine.counter("cells_total").inc(len(tasks))
        # Interned up front so every manifest carries the full set,
        # zeros included.
        engine.counter("cells_cached")
        engine.counter("cells_replayed")
        results: list[SweepPoint | None] = [None] * len(tasks)

        keys: dict[int, str] = {}
        pending = list(tasks)
        if cache is not None:
            # trace_digest memoizes per trace object, so repeated
            # sweeps over the same traces pay for it once.
            with engine.span("digest"):
                digests = {
                    name: trace_digest(trace)
                    for name, trace in traces.items()
                }
            pending = []
            for task in tasks:
                key = cache_key(
                    digests[task.benchmark], task.scheme, task.delay
                )
                keys[task.index] = key
                point = cache.get(key)
                if point is None:
                    pending.append(task)
                else:
                    results[task.index] = point
            engine.counter("cells_cached").inc(len(tasks) - len(pending))

        if not pending:
            engine.gauge("workers").set(0)
            return [point for point in results if point is not None]

        groups = group_by_benchmark(pending)
        if workers == 0:
            # One batch per benchmark, like the historical serial loop.
            batches = list(groups.values())
        else:
            # Sized on each benchmark's *pending* cells only — cache
            # hits never inflate the chunk size.
            sizes = [
                autotune_chunk_size(len(group), workers)
                for group in groups.values()
            ]
            batches = [
                batch
                for group, size in zip(groups.values(), sizes)
                for batch in chunk_tasks(group, size)
            ]
            engine.gauge("chunk_size").set(max(sizes))
        engine.counter("batches").inc(len(batches))
        engine.gauge("workers").set(workers)

        with interrupt_guard() as flag:
            runner = _SweepRunner(
                batches=batches,
                contexts={
                    name: ReplayContext(traces[name]) for name in groups
                },
                engine=engine,
                cache=cache,
                keys=keys,
                results=results,
                flag=flag,
            )
            try:
                runner.run(workers)
            except KeyboardInterrupt:
                # Signal arrived where the guard could not trap it
                # (non-main thread, or the operator's second Ctrl-C).
                engine.counter("interrupted").inc()
                partial = [point for point in results if point is not None]
                raise SweepInterrupted(
                    partial=partial,
                    completed=len(partial),
                    total=len(tasks),
                    signal_name=flag.signal_name,
                ) from None

    return [point for point in results if point is not None]
