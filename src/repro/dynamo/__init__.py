"""Cost-model simulator of the Dynamo dynamic optimizer (paper §6).

:class:`DynamoSystem` runs a path trace under a prediction scheme and a
cycle cost model; :class:`DynamoRun` reports the speedup over native
execution that Figure 5 plots.  Its event-level loop models the
fragment cache's flush-all capacity policy, the §6.1 flush heuristic
(:class:`PredictionRateMonitor`) and the bail-out policy that §6/§6.1
describe; :class:`DynamoVM` runs real ISA programs under a miniature
Dynamo.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "compiler": (
            "CompiledCache",
            "CompiledFragment",
            "compile_fragment",
            "state_digest",
        ),
        "config": ("DEFAULT_CONFIG", "TIERS", "DynamoConfig"),
        "costmodel": ("native_cycles", "simulate_costs"),
        "flush": ("PredictionRateMonitor",),
        "optimizer": (
            "OptimizedFragment",
            "TraceInstruction",
            "TraceOptimizer",
        ),
        "stats": ("CycleBreakdown", "DynamoRun"),
        "system": ("SCHEMES", "DynamoSystem", "measured_fragment_sizes"),
        "vm": ("DynamoVM", "VMFragment", "VMResult", "VMStats"),
    },
)
