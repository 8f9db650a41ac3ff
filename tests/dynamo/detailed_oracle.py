"""Reference oracle: the object-model form of the event-level Dynamo.

:meth:`repro.dynamo.system.DynamoSystem.run_detailed` walks a path
trace with plain loop state: a dict from path id to last execution for
the fragment cache, a few integer counters, and a per-window prediction
count it hands to the §6.1 monitor when a window closes.  Before that
it built a :class:`Fragment` per emission, kept them in a
:class:`FragmentCache` with a flush-all capacity policy, and polled a
:class:`PredictionRateMonitor` at every occurrence.  That form is kept
here as the oracle the production loop must equal exactly: every
:class:`~repro.dynamo.stats.DynamoRun` field, floats included, compares
with ``==``, and so do the monitor's flush indices.

Its one change from the old loop: ``flushes`` counts each flush the run
made once.  The old loop added the monitor's recommendations to a cache
count that already held the phase flushes, and with the heuristic off
it counted spikes nothing acted on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from statistics import median

from repro.dynamo.config import DynamoConfig
from repro.dynamo.costmodel import native_cycles
from repro.dynamo.stats import CycleBreakdown, DynamoRun
from repro.trace.recorder import PathTrace


@dataclass
class Fragment:
    """An optimized trace resident in the code cache."""

    path_id: int
    head_uid: int
    num_instructions: int
    created_at: int
    executions: int = 0
    last_executed: int = -1


class FragmentCache:
    """The code cache under Dynamo's policy: when a new fragment does
    not fit, drop everything."""

    def __init__(self, budget_instructions: int):
        self.budget_instructions = budget_instructions
        self._fragments: dict[int, Fragment] = {}
        self.occupancy = 0
        self.flush_count = 0
        self.total_emitted = 0

    def lookup(self, path_id: int) -> Fragment | None:
        return self._fragments.get(path_id)

    def emit(self, fragment: Fragment) -> bool:
        """Install ``fragment``; True when installing flushed the cache."""
        flushed = False
        if fragment.path_id in self._fragments:
            return flushed
        if (
            self.occupancy + fragment.num_instructions
            > self.budget_instructions
        ):
            self.flush()
            flushed = True
        self._fragments[fragment.path_id] = fragment
        self.occupancy += fragment.num_instructions
        self.total_emitted += fragment.num_instructions
        return flushed

    def flush(self) -> None:
        self._fragments.clear()
        self.occupancy = 0
        self.flush_count += 1

    def fragments(self) -> list[Fragment]:
        return list(self._fragments.values())


class PredictionRateMonitor:
    """The §6.1 spike detector, advanced at every occurrence."""

    def __init__(
        self,
        window: int = 10_000,
        spike_factor: float = 3.0,
        min_count: int = 5,
    ):
        self.window = window
        self.spike_factor = spike_factor
        self.min_count = min_count
        self._history: deque[int] = deque(maxlen=8)
        self._current_window = 0
        self._current_count = 0
        self.flush_recommendations: list[int] = []

    def record_prediction(self, time: int) -> None:
        self._advance_to(time)
        self._current_count += 1

    def observe(self, time: int) -> bool:
        return self._advance_to(time)

    def _advance_to(self, time: int) -> bool:
        window_index = time // self.window
        recommended = False
        while self._current_window < window_index:
            recommended = self._close_window() or recommended
            self._current_window += 1
        if recommended:
            self.flush_recommendations.append(time)
        return recommended

    def _close_window(self) -> bool:
        count = self._current_count
        self._current_count = 0
        spike = False
        if len(self._history) >= 3 and count >= self.min_count:
            baseline = median(self._history)
            spike = count > self.spike_factor * max(baseline, 1.0)
        self._history.append(count)
        return spike

    def reset(self) -> None:
        self._history.clear()
        self._current_count = 0


def run_detailed(
    config: DynamoConfig,
    trace: PathTrace,
    scheme: str,
    delay: int,
    monitor: PredictionRateMonitor | None = None,
    fragment_sizes: dict[int, int] | None = None,
) -> DynamoRun:
    """The event-level run, one occurrence at a time; the §6.1 flush
    heuristic runs when ``monitor`` is given."""
    flush_on_phase_change = monitor is not None
    cache = FragmentCache(config.cache_budget_instructions)
    monitor = monitor or PredictionRateMonitor()

    instr = trace.instructions_per_path()
    profile_units = (
        trace.cond_branches_per_path() + trace.indirect_branches_per_path()
    )
    start_uids = trace.start_uids()
    arrivals = trace.backward_arrival_mask()
    path_ids = trace.path_ids

    interpretation = profiling = selection = 0.0
    fragment_execution = dispatch = flush_cycles = 0.0
    tail_start = int(len(path_ids) * (1.0 - config.steady_state_fraction))
    snapshot: dict[str, float] = {}

    head_counters: dict[int, int] = {}
    hot_heads: set[int] = set()
    path_counters: dict[int, int] = {}
    previous_cached = False
    num_fragments = 0
    bailed = False
    native_so_far = 0.0

    def full_reset() -> None:
        head_counters.clear()
        hot_heads.clear()
        path_counters.clear()
        monitor.reset()

    for index in range(len(path_ids)):
        pid = int(path_ids[index])
        n = int(instr[pid])

        if index == tail_start:
            snapshot = {
                "interpretation": interpretation,
                "profiling": profiling,
                "selection": selection,
                "fragment_execution": fragment_execution,
                "dispatch": dispatch,
                "native": native_so_far,
            }
        native_so_far += n * config.native_per_instr

        if flush_on_phase_change and monitor.observe(index):
            cache.flush()
            full_reset()
            flush_cycles += config.flush_penalty

        fragment = cache.lookup(pid)
        if fragment is not None:
            fragment.executions += 1
            fragment.last_executed = index
            if fragment_sizes is not None:
                fragment_execution += (
                    fragment_sizes.get(pid, n) * config.native_per_instr
                )
            else:
                fragment_execution += (
                    n * config.native_per_instr * config.fragment_speedup
                )
            if not previous_cached:
                dispatch += config.dispatch_cost
            if scheme == "path-profile" and config.instrument_fragments:
                profiling += (
                    profile_units[pid] * config.bit_cost + config.table_cost
                )
            previous_cached = True
            continue

        # Interpreted execution.
        interpretation += n * config.interp_per_instr
        materialize = False

        if scheme == "net":
            head = int(start_uids[pid])
            if head in hot_heads:
                materialize = True
            elif arrivals[index]:
                count = head_counters.get(head, 0) + 1
                head_counters[head] = count
                profiling += config.counter_cost
                if count > delay:
                    hot_heads.add(head)
                    del head_counters[head]
                    materialize = True
        else:
            profiling += (
                profile_units[pid] * config.bit_cost + config.table_cost
            )
            count = path_counters.get(pid, 0) + 1
            path_counters[pid] = count
            if count > delay:
                materialize = True

        if materialize:
            selection += n * (config.select_per_instr + config.emit_per_instr)
            emitted_size = (
                fragment_sizes.get(pid, n) if fragment_sizes is not None else n
            )
            flushed = cache.emit(
                Fragment(
                    path_id=pid,
                    head_uid=int(start_uids[pid]),
                    num_instructions=emitted_size,
                    created_at=index,
                )
            )
            num_fragments += 1
            monitor.record_prediction(index)
            if flushed:
                flush_cycles += config.flush_penalty
                if cache.flush_count > config.bail_out_flushes:
                    bailed = True
                    break
            if num_fragments > config.bail_out_fragments:
                bailed = True
                break
        previous_cached = False

    native = native_cycles(trace, config)
    breakdown = CycleBreakdown(
        interpretation=interpretation,
        profiling=profiling,
        selection=selection,
        fragment_execution=fragment_execution,
        dispatch=dispatch,
        flushes=flush_cycles,
    )

    if snapshot and not bailed:
        steady_dynamo = (
            (interpretation - snapshot["interpretation"])
            + (profiling - snapshot["profiling"])
            + (selection - snapshot["selection"])
            + (fragment_execution - snapshot["fragment_execution"])
            + (dispatch - snapshot["dispatch"])
        )
        steady_native = native - snapshot["native"]
        steady_rate = (
            steady_dynamo / steady_native if steady_native > 0 else 1.0
        )
    else:
        steady_rate = 1.0

    extension = max(config.amortization - 1.0, 0.0) * native
    native_total = native + extension
    dynamo_total = breakdown.total + steady_rate * extension
    if bailed:
        dynamo_total = native_total * (1.0 + config.bail_out_overhead)

    resident = cache.fragments()
    recent_cutoff = int(len(path_ids) * 0.9)
    dead = [
        fragment
        for fragment in resident
        if fragment.last_executed < recent_cutoff
    ]
    dead_fraction = len(dead) / len(resident) if resident else 0.0

    return DynamoRun(
        benchmark=trace.name,
        scheme=scheme,
        delay=delay,
        native_cycles=native_total,
        dynamo_cycles=dynamo_total,
        breakdown=breakdown,
        num_fragments=num_fragments,
        emitted_instructions=cache.total_emitted,
        flushes=cache.flush_count,
        bailed_out=bailed,
        steady_rate=steady_rate,
        amortization=config.amortization,
        resident_fragments=len(resident),
        dead_fragment_fraction=dead_fraction,
    )
