"""Summary statistics over path traces.

These summaries feed the paper's Table 1 and Table 2 columns and provide
quick sanity descriptions for the examples and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.recorder import PathTrace


@dataclass(frozen=True)
class TraceSummary:
    """One row of trace-level statistics.

    Attributes mirror the paper's Table 1/2 vocabulary:

    * ``flow`` — total number of path executions;
    * ``num_paths`` — number of distinct dynamic paths (#Paths);
    * ``num_unique_heads`` — distinct targets of backward taken branches
      (#Unique Path Heads, the NET counter population);
    * ``mean_path_blocks`` / ``mean_path_instructions`` — average path
      size, used to sanity-check workload calibration.
    """

    name: str
    flow: int
    num_paths: int
    num_unique_heads: int
    mean_path_blocks: float
    mean_path_instructions: float

    def render(self) -> str:
        """One-line report form."""
        return (
            f"{self.name}: flow={self.flow:,} paths={self.num_paths:,} "
            f"heads={self.num_unique_heads:,} "
            f"blocks/path={self.mean_path_blocks:.2f} "
            f"instr/path={self.mean_path_instructions:.2f}"
        )


def summarize(trace: PathTrace) -> TraceSummary:
    """Compute a :class:`TraceSummary` for ``trace``."""
    freqs = trace.freqs()
    executed = freqs > 0
    flow = trace.flow
    if flow:
        weights = freqs[executed].astype(np.float64)
        blocks = trace.blocks_per_path()[executed]
        instrs = trace.instructions_per_path()[executed]
        mean_blocks = float(np.average(blocks, weights=weights))
        mean_instr = float(np.average(instrs, weights=weights))
    else:
        mean_blocks = 0.0
        mean_instr = 0.0
    return TraceSummary(
        name=trace.name,
        flow=flow,
        num_paths=int(executed.sum()),
        num_unique_heads=trace.num_dynamic_heads(),
        mean_path_blocks=mean_blocks,
        mean_path_instructions=mean_instr,
    )
