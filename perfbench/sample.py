"""One sample of one workload, in a fresh interpreter.

``perfbench/run.py`` starts this module once per sample::

    python3 -m perfbench.sample --workload cold-repro --seed 1 \\
        --workdir .perfbench-work/tmp/x --t0 <time.monotonic()> [--trace]

It refuses to run in an interpreter that has already imported the
program, or with a non-empty cache or state directory, so no workload
cache, per-trace memo, cost ledger or sweep cache can leak in from an
earlier sample.  It prints one JSON line: set-up time, peak RSS, the
seconds of each timed call, the correctness tally and, when traced,
the per-layer metrics.  A traced sample also writes its spans to
``--spans``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
from contextlib import nullcontext

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _program_loaded() -> bool:
    return any(
        name == "repro" or name.startswith("repro.") for name in sys.modules
    )


def run_sample(
    workload,
    t0: float,
    trace: bool = False,
    spans_path: pathlib.Path | None = None,
) -> dict:
    """Set up, run and check ``workload``; returns the sample record.

    ``t0`` is the ``time.monotonic()`` reading set-up time counts from.
    Times ending in ``_ref_s`` are at the reference speed of
    :mod:`perfbench.speed`; the others are wall times.
    """
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import Patcher, Tracer, layer_report

    tracer = Tracer()
    patcher = Patcher()
    with SpeedProbe() as probe:
        workload.setup()
        if trace:
            workload.patch(patcher, tracer)
            span = tracer.span
        else:
            span = lambda root: nullcontext()  # noqa: E731
        setup_s = time.monotonic() - t0
        setup_ref_s = setup_s * probe.factor(0.0, time.perf_counter())
        try:
            calls, ops = workload.run(span)
        finally:
            patcher.restore()
    work_ref_s = sum(probe.normalise(start, end) for start, end in calls)
    attempted, failures = workload.check()
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "work_s": sum(end - start for start, end in calls),
        "work_ref_s": work_ref_s,
        "ops_s": [end - start for start, end in ops],
        "ops_ref_s": [probe.normalise(start, end) for start, end in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "facts": workload.facts(),
    }
    if trace:
        layers = layer_report(
            tracer.spans, list(workload.layers), set(workload.roots)
        )
        silent = [
            layer
            for layer in workload.required
            if not layers[f"{layer}.calls"]
        ]
        if silent:
            raise RuntimeError(
                f"traced {workload.name} run recorded no call of "
                f"{', '.join(silent)}"
            )
        layers.update(workload.layer_metrics(tracer))
        record["layers"] = layers
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(
                json.dumps(
                    [
                        [s.id, s.layer, s.start, s.end, s.parent]
                        for s in tracer.spans
                    ]
                )
            )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)

    if _program_loaded():
        raise SystemExit("sample: the interpreter has already loaded repro")
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"sample: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"sample: imported repro from {repro.__file__}")

    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(
        args.seed, args.workdir, cls.SMOKE if args.smoke else cls.FULL
    )
    record = run_sample(workload, args.t0, args.trace, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
