"""The Dynamo simulator façade.

Two entry points:

* :meth:`DynamoSystem.run` — the vectorized cost model used at Figure 5
  scale (millions of path occurrences);
* :meth:`DynamoSystem.run_detailed` — the event-level object model
  (fragment cache, head/path counters, linking, optional phase-flush
  heuristic) used on ISA traces and the §6.1 phase experiments, and to
  cross-validate the vectorized model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dynamo.config import DEFAULT_CONFIG, DynamoConfig
from repro.dynamo.costmodel import native_cycles, simulate_costs
from repro.dynamo.flush import PredictionRateMonitor
from repro.dynamo.fragment import Fragment, FragmentCache
from repro.dynamo.stats import CycleBreakdown, DynamoRun
from repro.errors import DynamoError
from repro.obs.core import Registry, get_registry
from repro.prediction.net import NETPredictor
from repro.prediction.path_profile import PathProfilePredictor
from repro.trace.recorder import PathTrace

if TYPE_CHECKING:
    from repro.dynamo.vm import VMResult
    from repro.isa.assembler import AssembledProgram

#: Scheme names accepted by the simulator.
SCHEMES = ("net", "path-profile")


class DynamoSystem:
    """A simulated Dynamo instance with a fixed cost configuration.

    ``obs`` mounts the simulator's instrumentation under ``dynamo.*``:
    spans around prediction and cost modelling, the predictor's
    accounting under ``dynamo.prediction.*`` and each run's cycle totals
    (see :meth:`repro.dynamo.stats.DynamoRun.publish`).  Without it
    nothing is measured.
    """

    def __init__(
        self,
        config: DynamoConfig = DEFAULT_CONFIG,
        obs: Registry | None = None,
    ):
        self.config = config
        self._obs = get_registry(obs).child("dynamo")

    # ------------------------------------------------------------------
    def run(
        self, trace: PathTrace, scheme: str = "net", delay: int = 50
    ) -> DynamoRun:
        """Vectorized simulation of one (trace, scheme, delay) cell."""
        predictor = self._predictor(scheme, delay)
        with self._obs.span("predict"):
            outcome = predictor.run(trace)
        outcome.publish(self._obs.child("prediction"))
        with self._obs.span("cost_model"):
            result = simulate_costs(trace, outcome, self.config, trace.name)
        result.publish(self._obs)
        return result

    def run_vm(
        self,
        program: AssembledProgram,
        memory: list[int] | None = None,
        scheme: str = "net",
        delay: int = 50,
        max_steps: int = 10_000_000,
    ) -> VMResult:
        """Execute a real ISA program under the miniature Dynamo.

        Unlike :meth:`run`, which models costs over a recorded path
        trace, this actually runs ``program`` through
        :class:`~repro.dynamo.vm.DynamoVM`.  The fragment-cache budget
        and the execution tier come from this system's
        :class:`DynamoConfig`, and the VM's accounting lands under
        ``dynamo.vm.*``.

        The VM and the ISA modules it runs on are imported here, on the
        first call: the trace-level entry points never load them.
        """
        from repro.dynamo.vm import DynamoVM

        vm = DynamoVM(
            program,
            delay=delay,
            scheme=scheme,
            cache_budget_instructions=(
                self.config.cache_budget_instructions
            ),
            tier=self.config.tier,
            obs=self._obs,
        )
        if memory:
            vm.load_memory(memory)
        return vm.run(max_steps=max_steps)

    def _predictor(self, scheme: str, delay: int):
        if scheme == "net":
            return NETPredictor(delay)
        if scheme == "path-profile":
            return PathProfilePredictor(delay)
        raise DynamoError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        )

    # ------------------------------------------------------------------
    def run_detailed(
        self,
        trace: PathTrace,
        scheme: str = "net",
        delay: int = 50,
        flush_on_phase_change: bool = False,
        monitor: PredictionRateMonitor | None = None,
        fragment_sizes: dict[int, int] | None = None,
    ) -> DynamoRun:
        """Event-level simulation with an explicit fragment cache.

        Charges the execution modes of :meth:`run`'s cost model.  When
        neither bails out (and without the flush heuristic or measured
        sizes), the two agree exactly on fragments, emitted instructions
        and interpretation, selection, dispatch and flush cycles, and up
        to float summation order on fragment execution and path-profile
        profiling.  NET profiling differs: here a selection at a head
        already hot bumps no counter, where the cost model charges one
        when it arrives by a backward branch (see
        ``docs/cost_model.md``).  Additionally models Dynamo's capacity
        flushes through the real :class:`FragmentCache` and, when
        ``flush_on_phase_change`` is set, the §6.1 prediction-rate flush
        heuristic (counters and cache restart after each flush).

        ``fragment_sizes`` maps path id → *measured* optimized
        instruction count (see :func:`measured_fragment_sizes`); when
        given, fragment execution and cache occupancy use the measured
        sizes instead of ``n × fragment_speedup`` — the configuration
        used by the ISA-trace demos where real code is optimized by
        :class:`repro.dynamo.optimizer.TraceOptimizer`.
        """
        with self._obs.span("run_detailed"):
            result = self._run_detailed(
                trace,
                scheme,
                delay,
                flush_on_phase_change,
                monitor,
                fragment_sizes,
            )
        result.publish(self._obs)
        return result

    def _run_detailed(
        self,
        trace: PathTrace,
        scheme: str,
        delay: int,
        flush_on_phase_change: bool,
        monitor: PredictionRateMonitor | None,
        fragment_sizes: dict[int, int] | None,
    ) -> DynamoRun:
        if scheme not in SCHEMES:
            raise DynamoError(
                f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
            )
        config = self.config
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
                        profile_units[pid] * config.bit_cost
                        + config.table_cost
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
                selection += n * (
                    config.select_per_instr + config.emit_per_instr
                )
                emitted_size = (
                    fragment_sizes.get(pid, n)
                    if fragment_sizes is not None
                    else n
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

        native = native_cycles(trace, self.config)
        breakdown = CycleBreakdown(
            interpretation=interpretation,
            profiling=profiling,
            selection=selection,
            fragment_execution=fragment_execution,
            dispatch=dispatch,
            flushes=flush_cycles,
        )

        # Warm steady-state rate over the tail, as in the vectorized model.
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
            flushes=cache.flush_count + len(monitor.flush_recommendations),
            bailed_out=bailed,
            steady_rate=steady_rate,
            amortization=config.amortization,
            resident_fragments=len(resident),
            dead_fragment_fraction=dead_fraction,
        )


def measured_fragment_sizes(
    program, trace: PathTrace
) -> dict[int, int]:
    """Optimized instruction count per path id, from the real optimizer.

    ``program`` is the :class:`repro.isa.AssembledProgram` the trace was
    recorded from; every path in the trace's table is optimized by
    :class:`repro.dynamo.optimizer.TraceOptimizer`.
    """
    from repro.dynamo.optimizer import TraceOptimizer

    optimizer = TraceOptimizer(program)
    sizes: dict[int, int] = {}
    for path_id in range(trace.num_paths):
        fragment = optimizer.optimize(trace.table.path(path_id))
        sizes[path_id] = fragment.optimized_instructions
    return sizes
