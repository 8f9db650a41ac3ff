"""Cost-model simulator of the Dynamo dynamic optimizer (paper §6).

:class:`DynamoSystem` runs a path trace under a prediction scheme and a
cycle cost model; :class:`DynamoRun` reports the speedup over native
execution that Figure 5 plots.  The fragment cache, flush heuristic and
bail-out policy model the behaviours §6/§6.1 describe.
"""

from repro.dynamo.compiler import (
    CompiledCache,
    CompiledFragment,
    compile_fragment,
    state_digest,
)
from repro.dynamo.config import DEFAULT_CONFIG, TIERS, DynamoConfig
from repro.dynamo.costmodel import native_cycles, simulate_costs
from repro.dynamo.flush import PredictionRateMonitor
from repro.dynamo.fragment import Fragment, FragmentCache
from repro.dynamo.optimizer import (
    OptimizedFragment,
    TraceInstruction,
    TraceOptimizer,
)
from repro.dynamo.stats import CycleBreakdown, DynamoRun
from repro.dynamo.system import SCHEMES, DynamoSystem, measured_fragment_sizes
from repro.dynamo.vm import DynamoVM, VMFragment, VMResult, VMStats

__all__ = [
    "DEFAULT_CONFIG",
    "TIERS",
    "CompiledCache",
    "CompiledFragment",
    "compile_fragment",
    "state_digest",
    "CycleBreakdown",
    "DynamoConfig",
    "DynamoRun",
    "DynamoSystem",
    "Fragment",
    "FragmentCache",
    "PredictionRateMonitor",
    "SCHEMES",
    "OptimizedFragment",
    "TraceInstruction",
    "TraceOptimizer",
    "DynamoVM",
    "VMFragment",
    "VMResult",
    "VMStats",
    "measured_fragment_sizes",
    "native_cycles",
    "simulate_costs",
]
