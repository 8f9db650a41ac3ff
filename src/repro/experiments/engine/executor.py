"""Sweep execution: cache lookup, fault-tolerant replay, deterministic
assembly.

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
*retried* runs of the same sweep therefore return *equal* point lists,
and every rendered figure built from them is byte-identical — a
property the equivalence test-suite locks down.

Resilience (see :mod:`repro.resilience` and ``docs/resilience.md``):
every completed batch is written to the cache *immediately*, so an
interrupted multi-hour sweep leaves a resumable cache rather than
losing all replayed-but-unstored cells.  A
:class:`~repro.resilience.RetryPolicy` bounds per-batch retries, spaced
by deterministic exponential backoff; a batch that fails every attempt
fails the sweep with a :class:`~repro.errors.WorkerCrashError` naming
it.  SIGINT/SIGTERM stop the sweep at the next batch boundary and raise
:class:`~repro.errors.SweepInterrupted` carrying the partial results.
A :class:`~repro.resilience.FaultPlan` threads deterministic fault
injection through :func:`_run_cells`, so the failure matrix is
testable without real failures.

Observability: pass ``obs`` (a :class:`repro.obs.Registry`) and the
engine accounts for itself under the ``sweep.`` prefix — cells planned
/ cached / replayed, batches, workers, chunk size, retries, and replay /
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

from repro.errors import (
    ExperimentError,
    ReproError,
    SweepInterrupted,
    WorkerCrashError,
)
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
from repro.resilience import DEFAULT_POLICY, FaultPlan, RetryPolicy
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
    cells: list[tuple[str, int]],
    observe: bool = False,
    faults: FaultPlan | None = None,
    batch_index: int = 0,
    attempt: int = 0,
) -> tuple[list[SweepPoint], dict | None, list[float]]:
    """Replay a batch of (scheme, τ) cells on one replay context.

    The context memoizes the per-trace precomputations (hot set,
    occurrence index): the first batch of a trace pays for them, every
    later batch reuses them — the ``hot_set`` timer records the true
    marginal cost, which is ~0 on reuse.

    With ``observe`` the batch measures itself into a throwaway local
    registry and returns its snapshot alongside the points (relative
    names; the caller mounts it wherever it belongs).  The points are
    identical either way.

    The third element of the payload is each cell's wall-clock cost in
    milliseconds, measured unconditionally (two clock reads per cell)
    for the manifest's per-cell timers.

    ``faults`` is the deterministic fault-injection hook: planned
    crashes and interrupts fire before the replay, corruption mangles
    the returned points, all keyed by ``(batch_index, attempt)`` so a
    faulted run replays identically every time.
    """
    if faults is not None:
        faults.before(batch_index, attempt)
    obs = Registry() if observe else get_registry(None)
    trace = context.trace
    with obs.span("hot_set"):
        hot = context.hot
    points = []
    cell_ms: list[float] = []
    for scheme, delay in cells:
        started = time.perf_counter()
        with obs.span("replay"):
            outcome = make_predictor(scheme, delay).run(trace)
            quality = evaluate_prediction(trace, hot, outcome)
        cell_ms.append((time.perf_counter() - started) * 1000.0)
        obs.counter("cells_replayed").inc()
        outcome.publish(obs.child("prediction"))
        points.append(SweepPoint.from_quality(trace.name, quality))
    if faults is not None:
        points = faults.after(batch_index, attempt, points)
    return points, (obs.snapshot() if observe else None), cell_ms


def _retryable(error: BaseException) -> bool:
    """Whether a failed attempt is worth repeating.

    Crashed batches and corrupt results are transient by assumption;
    any other :class:`ReproError` is a deterministic configuration
    problem that would fail identically on every retry.
    """
    if isinstance(error, WorkerCrashError):
        return True
    return not isinstance(error, ReproError)


def _bucket_counter(ms: float) -> str:
    """The manifest histogram bucket a cell cost falls into."""
    for bound in CELL_MS_BUCKETS:
        if ms <= bound:
            return f"cell_ms_le_{int(bound)}"
    return "cell_ms_le_inf"


class _BatchRun:
    """One batch of a benchmark's cells, and the attempts it has used."""

    __slots__ = ("batch", "order", "attempt")

    def __init__(self, batch: list[SweepTask], order: int):
        self.batch = batch
        self.order = order
        self.attempt = 0

    @property
    def benchmark(self) -> str:
        return self.batch[0].benchmark


class _SweepRunner:
    """Executes one sweep's pending batches under a retry policy.

    Every batch goes through :meth:`_attempt` — compute, validate,
    retry with deterministic backoff — on the main thread when
    ``workers == 0`` and on a pool thread otherwise.  Only the main
    thread touches shared state: :meth:`_complete` merges a finished
    batch's metrics, writes it to the cache and places its points at
    their canonical indices as soon as the batch finishes, not after
    the sweep.
    """

    def __init__(
        self,
        batches: list[list[SweepTask]],
        contexts: dict[str, ReplayContext],
        policy: RetryPolicy,
        faults: FaultPlan | None,
        engine: Registry,
        cache: SweepCache | None,
        keys: dict[int, str],
        results: list[SweepPoint | None],
        flag: InterruptFlag,
    ):
        self.runs = [
            _BatchRun(batch, order) for order, batch in enumerate(batches)
        ]
        self.contexts = contexts
        self.policy = policy
        self.faults = faults
        self.engine = engine
        self.observe = engine.enabled
        self.cache = cache
        self.keys = keys
        self.results = results
        self.flag = flag

    def _validate(self, run: _BatchRun, points: list) -> None:
        """Reject a batch result whose cells do not match its plan."""
        if len(points) != len(run.batch):
            problem = f"{len(points)} points for {len(run.batch)} cells"
        elif any(
            point.scheme != task.scheme or point.delay != task.delay
            for task, point in zip(run.batch, points)
        ):
            problem = "point coordinates do not match the plan"
        else:
            return
        raise WorkerCrashError(
            f"corrupt batch result: {problem}",
            benchmark=run.benchmark,
            batch_index=run.order,
            attempts=run.attempt + 1,
        )

    def _attempt(self, run: _BatchRun) -> tuple[list, dict | None, list]:
        """Compute one batch, retrying failures within the policy.

        Runs on whichever thread executes the batch and touches only the
        batch's own state, so pool threads never share anything mutable
        beyond the per-trace memos.
        """
        context = self.contexts[run.benchmark]
        cells = [task.cell for task in run.batch]
        while True:
            try:
                points, snapshot, cell_ms = _run_cells(
                    context,
                    cells,
                    self.observe,
                    self.faults,
                    run.order,
                    run.attempt,
                )
                self._validate(run, points)
                return points, snapshot, cell_ms
            except Exception as error:
                if not _retryable(error):
                    raise
                if run.attempt >= self.policy.max_retries:
                    raise WorkerCrashError(
                        "sweep batch failed on every attempt",
                        benchmark=run.benchmark,
                        batch_index=run.order,
                        attempts=run.attempt + 1,
                    ) from error
                run.attempt += 1
                time.sleep(
                    self.policy.backoff_seconds(run.order, run.attempt)
                )

    def _complete(self, run: _BatchRun, outcome) -> None:
        """Collect a batch via ``outcome()``; merge, cache and place it."""
        try:
            points, snapshot, cell_ms = outcome()
        finally:
            self.engine.counter("retries").inc(run.attempt)
        if snapshot is not None:
            # Batch measurements use relative names; merging through
            # the child view re-prefixes them.
            self.engine.merge(snapshot)
        if self.observe:
            for task, ms in zip(run.batch, cell_ms):
                seconds = ms / 1000.0
                self.engine.timer("cell_ms").observe(seconds)
                self.engine.counter(_bucket_counter(ms)).inc()
                self.engine.timer(
                    CELL_TIMER_PREFIX
                    + cell_name(task.benchmark, task.scheme, task.delay)
                ).observe(seconds)
        for task, point in zip(run.batch, points):
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
            for run in self.runs:
                self._check_interrupt()
                self._complete(run, lambda: self._attempt(run))
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            # Submitted in canonical plan order: the pool's FIFO queue
            # is the whole schedule.
            inflight = {
                pool.submit(self._attempt, run): run for run in self.runs
            }
            while inflight:
                self._check_interrupt()
                done, _ = wait(
                    inflight,
                    timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                for future in sorted(done, key=lambda f: inflight[f].order):
                    self._complete(inflight.pop(future), future.result)
        finally:
            # Queued batches are dropped; running ones cannot be
            # stopped, so wait for them rather than leave them behind.
            pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(
    traces: dict[str, PathTrace],
    schemes: tuple[str, ...] = SCHEMES,
    delays: tuple[int, ...] = DEFAULT_DELAYS,
    workers: int = 0,
    cache: SweepCache | None = None,
    obs: Registry | None = None,
    resilience: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
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
    resilience:
        Optional :class:`~repro.resilience.RetryPolicy`; ``None`` uses
        :data:`~repro.resilience.DEFAULT_POLICY` (bounded retries).
    faults:
        Optional :class:`~repro.resilience.FaultPlan` for deterministic
        fault injection (tests and drills only); it fires inside
        :func:`_run_cells` in both modes.

    Raises
    ------
    SweepInterrupted
        On SIGINT/SIGTERM, after placing and caching every completed
        batch; carries the partial results.
    WorkerCrashError
        When one batch exhausts the policy's retry budget.
    """
    if workers < 0:
        raise ExperimentError(f"workers must be >= 0, got {workers}")
    policy = resilience if resilience is not None else DEFAULT_POLICY
    engine = get_registry(obs).child("sweep")
    with engine.span("total"):
        tasks = plan_sweep(list(traces), schemes=schemes, delays=delays)
        engine.counter("runs").inc()
        engine.counter("cells_total").inc(len(tasks))
        # Interned up front so every manifest carries the full set,
        # zeros included.
        engine.counter("cells_cached")
        engine.counter("cells_replayed")
        engine.counter("retries")
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
                policy=policy,
                faults=faults,
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
