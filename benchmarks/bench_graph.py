"""Times the incremental artifact graph: cold build vs warm no-op.

The tentpole property under measurement is "do nothing fast": after one
cold full-repro run, a second run must discover graph-wide — across
processes, via the persisted state — that nothing changed, execute zero
cells and zero renders, and finish in milliseconds rather than re-paying
workload generation.  The bench runs the complete artifact surface
(all eight targets) three ways:

* **cold** — empty cache, everything dirty, full computation;
* **warm no-op** — same arguments again, a fresh :class:`SweepCache`
  instance over the same root (nothing in-process carries over);
* **dry-run** — planning only (:func:`repro.experiments.plan_targets`),
  the cost of answering "what would run?".

It asserts the warm run executed nothing and produced byte-identical
texts, gates the warm no-op wall time at full calibrated scale, and
records the timings in ``benchmarks/results/graph.txt`` plus the
machine-readable ``BENCH_graph.json`` (schema-checked by the
``graph-smoke`` CI job).
"""

from __future__ import annotations

import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.experiments import plan_targets, run_targets
from repro.experiments.engine import SweepCache
from repro.experiments.report import fmt, render_table

#: Warm no-op ceiling at full scale.  The claim is "milliseconds"; the
#: gate is deliberately padded (state read + 314 key hashes, one per
#: node at every scale, + eight render reads) so a noisy machine cannot
#: flake, while still being
#: orders of magnitude below any path that regenerates a workload.
MAX_WARM_NOOP_SECONDS = 2.0

#: Planning alone must be cheaper than (or equal to) the no-op run.
MAX_DRY_RUN_SECONDS = 2.0


def _timed(runner):
    start = time.perf_counter()
    result = runner()
    return time.perf_counter() - start, result


def test_graph_engine(results_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("graph-cache")

    cold_s, cold = _timed(
        lambda: run_targets(
            None, flow_scale=BENCH_FLOW_SCALE, cache=SweepCache(root)
        )
    )
    # A fresh cache instance: cross-run warmth comes from disk only.
    warm_s, warm = _timed(
        lambda: run_targets(
            None, flow_scale=BENCH_FLOW_SCALE, cache=SweepCache(root)
        )
    )
    dry_s, dry = _timed(
        lambda: plan_targets(
            None, flow_scale=BENCH_FLOW_SCALE, cache=SweepCache(root)
        )
    )

    nodes = len(dry.built.graph)
    cells = len(dry.built.cells)
    assert cold.executed_cells == cells  # cold built every cell
    assert warm.executed_cells == 0  # the no-op executed nothing
    assert warm.executed_renders == 0
    assert warm.texts == cold.texts  # and served identical artifacts
    assert not dry.plan.dirty  # the dry-run agrees: nothing to do

    gate_applied = BENCH_FLOW_SCALE >= 1.0
    if gate_applied:
        assert warm_s < MAX_WARM_NOOP_SECONDS, (
            f"warm no-op full repro took {warm_s:.3f}s over {nodes} "
            f"nodes; the floor is {MAX_WARM_NOOP_SECONDS:.1f}s"
        )
        assert dry_s < MAX_DRY_RUN_SECONDS

    rows = [
        ["cold full repro", fmt(cold_s, 3), fmt(1.0, 1)],
        ["warm no-op", fmt(warm_s, 3), fmt(cold_s / warm_s, 1)],
        ["dry-run (plan only)", fmt(dry_s, 3), fmt(cold_s / dry_s, 1)],
    ]
    emit(
        results_dir,
        "graph",
        render_table(
            headers=["mode", "seconds", "speedup vs cold"],
            rows=rows,
            title=(
                f"Artifact graph: full repro ({nodes} nodes, "
                f"{cells} cells), cold vs warm no-op vs dry-run"
            ),
        ),
    )
    emit_json(
        results_dir,
        "graph",
        {
            "flow_scale": BENCH_FLOW_SCALE,
            "nodes": nodes,
            "cells": cells,
            "cold_seconds": cold_s,
            "warm_noop_seconds": warm_s,
            "dry_run_seconds": dry_s,
            "warm_executed_cells": warm.executed_cells,
            "warm_executed_renders": warm.executed_renders,
            "warm_dirty_nodes": len(warm.plan.dirty),
            "max_warm_noop_seconds": MAX_WARM_NOOP_SECONDS,
            "noop_gate_applied": gate_applied,
        },
    )
