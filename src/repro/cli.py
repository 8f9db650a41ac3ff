"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Available benchmarks and regenerable experiments.
``inspect BENCH``
    Trace summary, Table 1/2 cells and counter space of one benchmark.
``experiment NAME [NAME…]`` (alias: ``run``)
    Regenerate paper tables/figures (optionally into an output dir).
    With a cache directory this runs through the incremental artifact
    graph — only cells whose inputs changed are recomputed; ``--dry-run``
    lists what a real run would execute and why, ``--explain`` reports
    it after running (see ``docs/sweep_engine.md``).
``sweep BENCH``
    Prediction-delay sweep of both schemes on one benchmark.
``dynamo BENCH``
    Dynamo simulation cells for one benchmark.
``minidynamo [PROGRAM…]``
    Execute real ISA programs through the miniature Dynamo VM at a
    chosen execution tier (``interp`` / ``compiled``)
    and report wall-clock MIPS and fragment-cache behaviour.
``save-trace BENCH FILE`` / ``trace-info FILE``
    Persist a benchmark trace / summarize a saved trace file.
``serve``
    Run the multi-tenant hot-path prediction server over TCP
    (see ``docs/serving.md``).
``loadtest``
    Replay the generated workload corpus as many interleaved tenant
    streams against an in-process server and report throughput and
    ingest latency percentiles.

Observability: the work-running commands accept ``--metrics-json PATH``
to collect metrics (phases, counters, timers, cache statistics — see
``docs/observability.md``) and write the run manifest to ``PATH``; a
one-line summary goes to stderr unless ``--quiet-metrics`` is given.
Without the flag nothing is measured and nothing changes.

Resilience: the sweep-running commands accept ``--max-retries`` (see
``docs/resilience.md``).  Ctrl-C/SIGTERM exits with code 130 after
draining completed work: every finished cell is already in the cache
and the partial manifest is written with ``"interrupted": true``.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
import tempfile
import time

from repro.dynamo import DEFAULT_CONFIG, TIERS, DynamoSystem
from repro.errors import ReproError, SweepInterrupted
from repro.experiments import (
    EXPERIMENT_IDS,
    plan_targets,
    run_experiment,
    run_targets,
)
from repro.experiments.engine import SweepCache, run_sweep
from repro.experiments.extended import EXTENDED_IDS, run_extended
from repro.experiments.report import render_table
from repro.metrics import counter_space, hot_path_set
from repro.obs import Registry, RunRecorder, get_registry, render_summary
from repro.resilience import DEFAULT_POLICY, RetryPolicy
from repro.serving import (
    ChaosConfig,
    LoadgenConfig,
    PredictionServer,
    ServerConfig,
    ServingTCPServer,
    build_corpus,
    default_plan,
    render_chaos_report,
    render_report,
    run_chaos,
    run_load,
    schedule_steps,
    serve_until_drained,
)
from repro.isa.programs import ALL_PROGRAMS, demo_memory
from repro.trace.io import load_trace, save_trace
from repro.trace.stats import summarize
from repro.workloads import BENCHMARK_ORDER, load_benchmark


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks: " + ", ".join(BENCHMARK_ORDER))
    print("experiments: " + ", ".join(EXPERIMENT_IDS))
    print("extended: " + ", ".join(EXTENDED_IDS))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = load_benchmark(args.benchmark, flow_scale=args.flow_scale).trace()
    print(summarize(trace).render())
    hot = hot_path_set(trace)
    print(
        f"0.1% HotPath set: {hot.num_hot} paths, "
        f"{hot.captured_flow_percent:.1f}% of the flow"
    )
    print(counter_space(trace).render())
    return 0


def _engine_cache(
    args: argparse.Namespace, registry: Registry | None = None
) -> SweepCache | None:
    """The sweep cache the flags ask for (``None`` with ``--no-cache``).

    With a live metrics registry the cache's accounting is mounted at
    ``sweep.cache.*`` so it lands in the run manifest.
    """
    if args.no_cache:
        return None
    obs = registry.child("sweep.cache") if registry is not None else None
    return SweepCache(args.cache_dir, obs=obs)


def _metrics_registry(args: argparse.Namespace) -> Registry | None:
    """A live registry when the invocation asked for metrics.

    The registry (and its recorder, set alongside) is stashed on
    ``args`` so an interrupt can still flush the partial manifest from
    :func:`main`'s handler.
    """
    registry = Registry() if getattr(args, "metrics_json", None) else None
    args.registry = registry
    return registry


def _resilience_policy(args: argparse.Namespace) -> RetryPolicy:
    """The sweep resilience policy the flags ask for."""
    return RetryPolicy(max_retries=args.max_retries)


def _run_recorder(args: argparse.Namespace) -> RunRecorder:
    """A wall-clock recorder, stashed on ``args`` for interrupt flushes."""
    recorder = RunRecorder(args.argv)
    args.recorder = recorder
    return recorder


def _finish_metrics(
    args: argparse.Namespace,
    registry: Registry | None,
    recorder: RunRecorder,
) -> None:
    """Write the run manifest and print the stderr summary line."""
    if registry is None:
        return
    recorder.write(args.metrics_json, registry)
    if not args.quiet_metrics:
        print(
            render_summary(registry, recorder.wall_seconds), file=sys.stderr
        )


def _flush_interrupted_metrics(args: argparse.Namespace) -> None:
    """Best-effort partial manifest after SIGINT/SIGTERM.

    Everything the run measured before the drain point is preserved,
    marked ``interrupted: true``.  A failure to write must not mask the
    interrupt exit.
    """
    registry = getattr(args, "registry", None)
    recorder = getattr(args, "recorder", None)
    if registry is None or recorder is None:
        return
    try:
        recorder.write(args.metrics_json, registry, interrupted=True)
    except OSError:  # pragma: no cover - disk gone mid-interrupt
        pass


def _cmd_experiment(args: argparse.Namespace) -> int:
    out_dir = pathlib.Path(args.out) if args.out else None
    names = args.names or list(EXPERIMENT_IDS)
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    cache = _engine_cache(args, registry)
    resilience = _resilience_policy(args)
    if args.dry_run:
        # Plan only: stdout lists exactly the nodes a real run would
        # execute and why (empty when everything is clean); the one-line
        # plan summary goes to stderr so stdout stays machine-checkable.
        plan = plan_targets(
            args.names or None, args.flow_scale, cache
        ).plan
        for line in plan.explain_lines():
            print(line)
        print(plan.summary(), file=sys.stderr)
        _finish_metrics(args, registry, recorder)
        return 0
    if cache is not None:
        # Incremental artifact graph: recompute only the dirty subgraph,
        # serve everything else from the cell cache and render store.
        run = run_targets(
            args.names or None,
            flow_scale=args.flow_scale,
            workers=args.workers,
            cache=cache,
            obs=registry,
            resilience=resilience,
        )
        for name in names:
            text = run.texts[name]
            print(text)
            print()
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{name}.txt").write_text(text + "\n")
        print(run.plan.summary(), file=sys.stderr)
        if args.explain:
            for line in run.plan.explain_lines():
                print(line, file=sys.stderr)
    else:
        # --no-cache: the graph has nowhere to persist state, so fall
        # back to unconditional from-scratch recomputation.
        for name in names:
            with obs.phase(f"experiment:{name}"):
                text = run_experiment(
                    name,
                    flow_scale=args.flow_scale,
                    workers=args.workers,
                    cache=cache,
                    obs=registry,
                    resilience=resilience,
                )
            print(text)
            print()
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"{name}.txt").write_text(text + "\n")
    if cache is not None and cache.stats.lookups:
        print(cache.stats.render(), file=sys.stderr)
    _finish_metrics(args, registry, recorder)
    return 0


def _cmd_extended(args: argparse.Namespace) -> int:
    names = args.names or list(EXTENDED_IDS)
    for name in names:
        print(run_extended(name, flow_scale=args.flow_scale))
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    with obs.phase(f"sweep:{args.benchmark}"):
        trace = load_benchmark(
            args.benchmark, flow_scale=args.flow_scale
        ).trace()
        cache = _engine_cache(args, registry)
        kwargs = {
            "workers": args.workers,
            "cache": cache,
            "obs": registry,
            "resilience": _resilience_policy(args),
        }
        if args.delays:
            kwargs["delays"] = tuple(args.delays)
        points = run_sweep({trace.name: trace}, **kwargs)
    rows = [
        [
            point.scheme,
            point.delay,
            f"{point.profiled_flow_percent:.2f}",
            f"{point.hit_rate:.2f}",
            f"{point.noise_rate:.2f}",
            point.num_predicted,
        ]
        for point in points
    ]
    print(
        render_table(
            headers=[
                "scheme",
                "delay",
                "profiled %",
                "hit %",
                "noise %",
                "#pred",
            ],
            rows=rows,
            title=f"Delay sweep: {trace.name}",
        )
    )
    if cache is not None and cache.stats.lookups:
        print(cache.stats.render(), file=sys.stderr)
    _finish_metrics(args, registry, recorder)
    return 0


def _cmd_dynamo(args: argparse.Namespace) -> int:
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    with obs.phase(f"dynamo:{args.benchmark}"):
        trace = load_benchmark(
            args.benchmark, flow_scale=args.flow_scale
        ).trace()
        system = DynamoSystem(obs=registry)
        for scheme in ("net", "path-profile"):
            for delay in args.delays or (10, 50, 100):
                print(system.run(trace, scheme, delay).render())
    _finish_metrics(args, registry, recorder)
    return 0


def _cmd_minidynamo(args: argparse.Namespace) -> int:
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    config = dataclasses.replace(DEFAULT_CONFIG, tier=args.tier)
    system = DynamoSystem(config=config, obs=registry)
    names = args.programs or sorted(ALL_PROGRAMS)
    rows = []
    for name in names:
        program = ALL_PROGRAMS[name].build()
        memory = demo_memory(name, scale=args.scale)
        with obs.phase(f"minidynamo:{name}"):
            start = time.perf_counter()
            result = system.run_vm(
                program,
                memory,
                scheme=args.scheme,
                delay=args.delay,
                max_steps=args.max_steps,
            )
            elapsed = time.perf_counter() - start
        stats = result.stats
        total = (
            stats.interpreted_instructions + stats.fragment_instructions
        )
        mips = total / elapsed / 1e6 if elapsed > 0 else 0.0
        rows.append(
            [
                name,
                f"{total:,}",
                f"{mips:.2f}",
                f"{100.0 * stats.cached_fraction:.1f}",
                stats.fragments_built,
                stats.fragments_compiled,
                stats.linked_transfers,
                stats.guard_exits,
                f"{elapsed:.3f}",
            ]
        )
    print(
        render_table(
            headers=[
                "program",
                "instructions",
                "mips",
                "cached%",
                "fragments",
                "compiled",
                "linked",
                "guard exits",
                "seconds",
            ],
            rows=rows,
            title=(
                f"mini-Dynamo · tier={args.tier} scheme={args.scheme} "
                f"τ={args.delay} scale={args.scale:g}"
            ),
        )
    )
    _finish_metrics(args, registry, recorder)
    return 0


def _cmd_save_trace(args: argparse.Namespace) -> int:
    trace = load_benchmark(args.benchmark, flow_scale=args.flow_scale).trace()
    target = save_trace(trace, args.file)
    print(f"saved {trace.name} ({trace.flow:,} occurrences) to {target}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    print(summarize(trace).render())
    return 0


def _server_config(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        num_shards=args.shards,
        delay=args.delay,
        max_queued_events=args.max_queued_events,
        memory_budget_bytes=args.memory_budget,
        retry_after_seconds=args.retry_after,
        checkpoint_interval_batches=(
            args.checkpoint_interval
            if args.checkpoint_interval is not None
            else ServerConfig.checkpoint_interval_batches
        ),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    corpus = build_corpus(
        LoadgenConfig(
            num_streams=args.streams,
            events_per_tenant=args.events,
            seed=args.seed,
        )
    )
    programs = {stream.name: stream.program for stream in corpus}
    config = _server_config(args)
    state_dir = args.state_dir
    if state_dir is not None and pathlib.Path(state_dir, "meta.json").exists():
        prediction = PredictionServer.restore(state_dir, programs, config=config)
        resumed = int(prediction.stats()["tenants_opened"])
        print(
            f"restored {resumed} tenant sessions from {state_dir}",
            file=sys.stderr,
        )
    else:
        prediction = PredictionServer(config, state_dir=state_dir)
    server = ServingTCPServer((args.host, args.port), prediction, programs)
    print(
        f"serving on {args.host}:{server.port} "
        f"({len(programs)} registered programs: "
        f"{', '.join(sorted(programs))})",
        flush=True,
    )
    return serve_until_drained(server, drain_timeout=args.drain_timeout)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """The ``loadtest --chaos`` leg: faults injected mid-load, recovered
    predictions checked byte-for-byte against an uninterrupted run."""
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    config = ChaosConfig(
        seed=args.seed,
        delay=args.delay,
        num_shards=args.shards,
        tcp=not args.no_wire,
    )
    if args.checkpoint_interval is not None:
        config = dataclasses.replace(
            config, checkpoint_interval_batches=args.checkpoint_interval
        )
    config = dataclasses.replace(
        config, faults=default_plan(schedule_steps(config))
    )
    with obs.phase("chaos"):
        if args.state_dir is not None:
            report = run_chaos(config, args.state_dir, obs=registry)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = run_chaos(config, tmp, obs=registry)
    print(render_chaos_report(report))
    _finish_metrics(args, registry, recorder)
    return 0 if report.equivalent else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    if args.chaos:
        return _cmd_chaos(args)
    registry = _metrics_registry(args)
    recorder = _run_recorder(args)
    obs = get_registry(registry)
    config = LoadgenConfig(
        num_tenants=args.tenants,
        num_streams=args.streams,
        events_per_tenant=args.events,
        batch_events=args.batch_events,
        workers=args.workers,
        wire=not args.no_wire,
        seed=args.seed,
        server=_server_config(args),
    )
    with obs.phase("loadtest"):
        report = run_load(config, obs=registry, state_dir=args.state_dir)
    print(render_report(report))
    _finish_metrics(args, registry, recorder)
    return 0


def _retries_type(text: str) -> int:
    """Parse ``--max-retries``; must be a non-negative count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"max retries must be >= 0 (0 fails fast), got {value}"
        )
    return value


def _workers_type(text: str) -> int:
    """Parse ``--workers``, rejecting negative pool sizes at parse time.

    A bad value used to travel all the way into the executor before
    failing; now argparse reports it like any other usage error.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 runs serially), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Software Profiling for Hot Path "
            "Prediction: Less is More' (Duesterwald & Bala, ASPLOS 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="benchmarks and experiments").set_defaults(
        handler=_cmd_list
    )

    def add_flow_scale(p):
        p.add_argument(
            "--flow-scale",
            type=float,
            default=1.0,
            help="shrink/grow the workload flow (default 1.0)",
        )

    def add_engine_flags(p):
        p.add_argument(
            "--workers",
            type=_workers_type,
            default=0,
            help="sweep worker threads (0 = serial, the default)",
        )
        p.add_argument(
            "--cache-dir",
            default=".repro-cache",
            help="sweep result cache directory (default: .repro-cache)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the sweep result cache",
        )
        p.add_argument(
            "--max-retries",
            type=_retries_type,
            default=DEFAULT_POLICY.max_retries,
            metavar="N",
            help=(
                "retries per failed sweep batch before the run "
                f"fails (default: {DEFAULT_POLICY.max_retries})"
            ),
        )

    def add_metrics_flags(p):
        p.add_argument(
            "--metrics-json",
            metavar="PATH",
            help=(
                "collect run metrics and write the JSON run manifest "
                "(phases, counters, timers) to PATH"
            ),
        )
        p.add_argument(
            "--quiet-metrics",
            action="store_true",
            help="suppress the one-line metrics summary on stderr",
        )

    inspect = sub.add_parser("inspect", help="summarize one benchmark")
    inspect.add_argument("benchmark", choices=BENCHMARK_ORDER)
    add_flow_scale(inspect)
    inspect.set_defaults(handler=_cmd_inspect)

    experiment = sub.add_parser(
        "experiment",
        aliases=["run"],
        help="regenerate paper tables/figures",
    )
    experiment.add_argument(
        "names",
        nargs="*",
        help=f"experiments to run (default: all of {', '.join(EXPERIMENT_IDS)})",
    )
    experiment.add_argument("--out", help="directory for .txt artifacts")
    experiment.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "plan only: list the graph nodes a real run would execute "
            "and why (stdout is empty when everything is up to date)"
        ),
    )
    experiment.add_argument(
        "--explain",
        action="store_true",
        help="after running, print why each executed node was dirty",
    )
    add_flow_scale(experiment)
    add_engine_flags(experiment)
    add_metrics_flags(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    extended = sub.add_parser(
        "extended", help="extension studies (overhead, ablations, …)"
    )
    extended.add_argument(
        "names",
        nargs="*",
        help=f"studies to run (default: all of {', '.join(EXTENDED_IDS)})",
    )
    add_flow_scale(extended)
    extended.set_defaults(handler=_cmd_extended)

    sweep = sub.add_parser("sweep", help="delay sweep on one benchmark")
    sweep.add_argument("benchmark", choices=BENCHMARK_ORDER)
    sweep.add_argument("--delays", type=int, nargs="+")
    add_flow_scale(sweep)
    add_engine_flags(sweep)
    add_metrics_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    dynamo = sub.add_parser("dynamo", help="Dynamo simulation cells")
    dynamo.add_argument("benchmark", choices=BENCHMARK_ORDER)
    dynamo.add_argument("--delays", type=int, nargs="+")
    add_flow_scale(dynamo)
    add_metrics_flags(dynamo)
    dynamo.set_defaults(handler=_cmd_dynamo)

    minidynamo = sub.add_parser(
        "minidynamo",
        help="run real ISA programs through the miniature Dynamo VM",
    )
    minidynamo.add_argument(
        "programs",
        nargs="*",
        choices=sorted(ALL_PROGRAMS),
        help="programs to run (default: all)",
    )
    minidynamo.add_argument(
        "--tier",
        choices=TIERS,
        default=DEFAULT_CONFIG.tier,
        help="execution tier (default: %(default)s)",
    )
    minidynamo.add_argument(
        "--scheme", choices=("net", "path-profile"), default="net"
    )
    minidynamo.add_argument(
        "--delay", type=int, default=20, help="prediction delay τ"
    )
    minidynamo.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="input-size multiplier (default 1.0 = benchmark scale)",
    )
    minidynamo.add_argument("--max-steps", type=int, default=200_000_000)
    add_metrics_flags(minidynamo)
    minidynamo.set_defaults(handler=_cmd_minidynamo)

    save = sub.add_parser("save-trace", help="persist a benchmark trace")
    save.add_argument("benchmark", choices=BENCHMARK_ORDER)
    save.add_argument("file")
    add_flow_scale(save)
    save.set_defaults(handler=_cmd_save_trace)

    info = sub.add_parser("trace-info", help="summarize a saved trace")
    info.add_argument("file")
    info.set_defaults(handler=_cmd_trace_info)

    def add_server_flags(p):
        p.add_argument(
            "--shards",
            type=int,
            default=8,
            help="predictor-state shards (default 8)",
        )
        p.add_argument(
            "--delay",
            type=int,
            default=50,
            help="NET prediction delay tau (default 50)",
        )
        p.add_argument(
            "--max-queued-events",
            type=int,
            default=1 << 16,
            metavar="N",
            help=(
                "per-tenant admitted-but-unapplied event bound before "
                "backpressure (default 65536)"
            ),
        )
        p.add_argument(
            "--memory-budget",
            type=int,
            default=None,
            metavar="BYTES",
            help=(
                "global predictor-state byte budget; idle tenants are "
                "evicted LRU-first above it (default: unlimited)"
            ),
        )
        p.add_argument(
            "--retry-after",
            type=float,
            default=0.05,
            metavar="SECONDS",
            help="retry hint attached to backpressure rejections",
        )
        p.add_argument(
            "--checkpoint-interval",
            type=int,
            default=None,
            metavar="BATCHES",
            help=(
                "durable session snapshot cadence in applied batches "
                "(default 64, or 3 under --chaos; only meaningful "
                "with --state-dir or --chaos)"
            ),
        )
        p.add_argument(
            "--streams",
            type=int,
            default=4,
            help="distinct generated workload streams (default 4)",
        )
        p.add_argument(
            "--events",
            type=int,
            default=2_000,
            help="events per stream (default 2000)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=7,
            help="corpus generation seed (default 7)",
        )

    serve = sub.add_parser(
        "serve", help="run the multi-tenant prediction server over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable checkpoint/WAL directory; if it already holds "
            "server state the sessions are restored from it"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "bound on waiting for in-flight batches during SIGTERM "
            "drain (default: wait indefinitely)"
        ),
    )
    add_server_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="replay interleaved tenant streams against the server",
    )
    loadtest.add_argument(
        "--tenants",
        type=int,
        default=200,
        help="concurrent tenants to replay (default 200)",
    )
    loadtest.add_argument(
        "--batch-events",
        type=int,
        default=256,
        help="events per ingest batch (default 256)",
    )
    loadtest.add_argument(
        "--workers",
        type=int,
        default=4,
        help="client threads driving the replay (default 4)",
    )
    loadtest.add_argument(
        "--no-wire",
        action="store_true",
        help="skip wire encode/decode and hand batches in-process",
    )
    loadtest.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "run the durable leg: checkpoint/WAL state under DIR "
            "(must be empty); with --chaos, where the harness keeps "
            "the server-under-test's state"
        ),
    )
    loadtest.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "run the serving chaos harness instead of a throughput "
            "replay: kill/corrupt/lost-ack/restart faults injected "
            "mid-load, recovered predictions compared byte-for-byte "
            "against an uninterrupted run (exit 1 on any mismatch); "
            "--no-wire switches it from TCP to the in-process driver"
        ),
    )
    add_server_flags(loadtest)
    add_metrics_flags(loadtest)
    loadtest.set_defaults(handler=_cmd_loadtest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The raw invocation, recorded verbatim in run manifests.
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.handler(args)
    except SweepInterrupted as stop:
        # Graceful Ctrl-C/SIGTERM: completed cells are in the cache, the
        # partial manifest is flushed, and the exit code is the shell
        # convention for death-by-SIGINT (128 + 2) — no traceback.
        print(f"interrupted: {stop}", file=sys.stderr)
        _flush_interrupted_metrics(args)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        _flush_interrupted_metrics(args)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
