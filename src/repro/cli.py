"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Available benchmarks and regenerable experiments.
``inspect BENCH``
    Trace summary, Table 1/2 cells and counter space of one benchmark.
``experiment NAME [NAME…]`` (alias: ``run``)
    Regenerate paper tables/figures (optionally into an output dir)
    through the incremental artifact graph — only cells whose inputs
    changed are recomputed, and ``--no-cache`` recomputes everything in
    a throwaway cache; ``--dry-run`` lists what a real run would execute
    and why, ``--explain`` reports it after running (see
    ``docs/sweep_engine.md``).
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
``chaos``
    Break a durable server over TCP mid-load (crash, torn WAL tail,
    lost ack, rolling restart) and check every tenant's recovered
    predictions byte-for-byte against an uninterrupted run; exit 1 on
    any mismatch.

Observability: the work-running commands accept ``--metrics-json PATH``
to collect metrics (phases, counters, timers, cache statistics — see
``docs/observability.md``) and write the run manifest to ``PATH``; a
one-line summary goes to stderr unless ``--quiet-metrics`` is given.
Without the flag nothing is measured and nothing changes.

Failures (see ``docs/resilience.md``): a sweep batch that raises stops
the run with that exception, every batch finished before it already in
the cache.  Ctrl-C/SIGTERM exits with code 130 after draining completed
work: every finished cell is already in the cache and the partial
manifest is written with ``"interrupted": true``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import pathlib
import sys
import tempfile
import time
from typing import TYPE_CHECKING

from repro.errors import ExperimentError, ReproError, SweepInterrupted
from repro.obs.core import Registry, get_registry
from repro.obs.manifest import RunRecorder
from repro.obs.report import render_summary

if TYPE_CHECKING:
    from repro.experiments.engine.cache import SweepCache
    from repro.serving.server import ServerConfig


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.extended import EXTENDED_IDS
    from repro.experiments.targets import EXPERIMENT_IDS
    from repro.workloads.spec import BENCHMARK_ORDER

    print("benchmarks: " + ", ".join(BENCHMARK_ORDER))
    print("experiments: " + ", ".join(EXPERIMENT_IDS))
    print("extended: " + ", ".join(EXTENDED_IDS))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.metrics.hotpaths import hot_path_set
    from repro.metrics.space import counter_space
    from repro.trace.stats import summarize
    from repro.workloads.base import load_benchmark

    trace = load_benchmark(args.benchmark, flow_scale=args.flow_scale).trace()
    print(summarize(trace).render())
    hot = hot_path_set(trace)
    print(
        f"0.1% HotPath set: {hot.num_hot} paths, "
        f"{hot.captured_flow_percent:.1f}% of the flow"
    )
    print(counter_space(trace).render())
    return 0


def _engine_cache(root: str, registry: Registry | None) -> SweepCache:
    """The sweep cache under ``root``.

    With a live metrics registry the cache's accounting is mounted at
    ``sweep.cache.*`` so it lands in the run manifest.
    """
    from repro.experiments.engine.cache import SweepCache

    obs = registry.child("sweep.cache") if registry is not None else None
    return SweepCache(root, obs=obs)


def _finish_metrics(
    args: argparse.Namespace, recorder: RunRecorder
) -> None:
    """Write the run manifest and print the stderr summary line."""
    if args.registry is None:
        return
    recorder.write(args.metrics_json, args.registry)
    if not args.quiet_metrics:
        print(
            render_summary(args.registry, recorder.wall_seconds),
            file=sys.stderr,
        )


def _flush_interrupted_metrics(
    args: argparse.Namespace, recorder: RunRecorder
) -> None:
    """Best-effort partial manifest after SIGINT/SIGTERM.

    Everything the run measured before the drain point is preserved,
    marked ``interrupted: true``.  A failure to write must not mask the
    interrupt exit.
    """
    if args.registry is None:
        return
    try:
        recorder.write(args.metrics_json, args.registry, interrupted=True)
    except OSError:  # pragma: no cover - disk gone mid-interrupt
        pass


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.targets import (
        EXPERIMENT_IDS,
        plan_targets,
        run_targets,
    )

    out_dir = pathlib.Path(args.out) if args.out else None
    names = args.names or list(EXPERIMENT_IDS)
    if args.dry_run:
        if args.no_cache:
            raise ExperimentError(
                "--dry-run plans against the graph state in a cache "
                "directory; it cannot run with --no-cache"
            )
        # Plan only: stdout lists exactly the nodes a real run would
        # execute and why (empty when everything is clean); the one-line
        # plan summary goes to stderr so stdout stays machine-checkable.
        plan = plan_targets(
            args.names or None,
            args.flow_scale,
            cache=_engine_cache(args.cache_dir, args.registry),
        ).plan
        for line in plan.explain_lines():
            print(line)
        print(plan.summary(), file=sys.stderr)
        return 0
    # Recompute only the dirty subgraph; serve everything else from the
    # cell cache and render store.  --no-cache runs the graph over a
    # throwaway cache: every node is dirty, and nothing outlives the run.
    root = (
        tempfile.TemporaryDirectory()
        if args.no_cache
        else contextlib.nullcontext(args.cache_dir)
    )
    with root as cache_dir:
        cache = _engine_cache(cache_dir, args.registry)
        run = run_targets(
            args.names or None,
            flow_scale=args.flow_scale,
            workers=args.workers,
            cache=cache,
            obs=args.registry,
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
    if cache.stats.lookups:
        print(cache.stats.render(), file=sys.stderr)
    return 0


def _cmd_extended(args: argparse.Namespace) -> int:
    from repro.experiments.extended import EXTENDED_IDS, run_extended

    names = args.names or list(EXTENDED_IDS)
    for name in names:
        print(run_extended(name, flow_scale=args.flow_scale))
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.engine.executor import run_sweep
    from repro.experiments.report import render_table
    from repro.workloads.base import load_benchmark

    with get_registry(args.registry).phase(f"sweep:{args.benchmark}"):
        trace = load_benchmark(
            args.benchmark, flow_scale=args.flow_scale
        ).trace()
        cache = (
            None
            if args.no_cache
            else _engine_cache(args.cache_dir, args.registry)
        )
        kwargs = {
            "workers": args.workers,
            "cache": cache,
            "obs": args.registry,
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
    return 0


def _cmd_dynamo(args: argparse.Namespace) -> int:
    from repro.dynamo.system import DynamoSystem
    from repro.workloads.base import load_benchmark

    with get_registry(args.registry).phase(f"dynamo:{args.benchmark}"):
        trace = load_benchmark(
            args.benchmark, flow_scale=args.flow_scale
        ).trace()
        system = DynamoSystem(obs=args.registry)
        for scheme in ("net", "path-profile"):
            for delay in args.delays or (10, 50, 100):
                print(system.run(trace, scheme, delay).render())
    return 0


def _cmd_minidynamo(args: argparse.Namespace) -> int:
    from repro.dynamo.config import DEFAULT_CONFIG
    from repro.dynamo.system import DynamoSystem
    from repro.experiments.report import render_table
    from repro.isa.programs import ALL_PROGRAMS, demo_memory

    obs = get_registry(args.registry)
    config = dataclasses.replace(DEFAULT_CONFIG, tier=args.tier)
    system = DynamoSystem(config=config, obs=args.registry)
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
    return 0


def _cmd_save_trace(args: argparse.Namespace) -> int:
    from repro.trace.io import save_trace
    from repro.workloads.base import load_benchmark

    trace = load_benchmark(args.benchmark, flow_scale=args.flow_scale).trace()
    target = save_trace(trace, args.file)
    print(f"saved {trace.name} ({trace.flow:,} occurrences) to {target}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.trace.io import load_trace
    from repro.trace.stats import summarize

    trace = load_trace(args.file)
    print(summarize(trace).render())
    return 0


def _server_config(args: argparse.Namespace) -> ServerConfig:
    from repro.serving.server import ServerConfig

    return ServerConfig(
        num_shards=args.shards,
        delay=args.delay,
        max_queued_events=args.max_queued_events,
        memory_budget_bytes=args.memory_budget,
        retry_after_seconds=args.retry_after,
        checkpoint_interval_batches=args.checkpoint_interval,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.loadgen import LoadgenConfig, build_corpus
    from repro.serving.server import PredictionServer
    from repro.serving.transport import ServingTCPServer, serve_until_drained

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
    """Faults injected mid-load, recovered predictions checked
    byte-for-byte against an uninterrupted run."""
    from repro.serving.chaos import (
        ChaosConfig,
        default_plan,
        render_chaos_report,
        run_chaos,
        schedule_steps,
    )

    config = ChaosConfig(
        seed=args.seed,
        delay=args.delay,
        num_shards=args.shards,
        checkpoint_interval_batches=args.checkpoint_interval,
    )
    config = dataclasses.replace(
        config, faults=default_plan(schedule_steps(config))
    )
    with get_registry(args.registry).phase("chaos"):
        if args.state_dir is not None:
            report = run_chaos(config, args.state_dir, obs=args.registry)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = run_chaos(config, tmp, obs=args.registry)
    print(render_chaos_report(report))
    return 0 if report.equivalent else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.serving.loadgen import LoadgenConfig, render_report, run_load

    config = LoadgenConfig(
        num_tenants=args.tenants,
        num_streams=args.streams,
        events_per_tenant=args.events,
        batch_events=args.batch_events,
        workers=args.workers,
        seed=args.seed,
        server=_server_config(args),
    )
    with get_registry(args.registry).phase("loadtest"):
        report = run_load(
            config, obs=args.registry, state_dir=args.state_dir
        )
    print(render_report(report))
    return 0


def _program_type(name: str) -> str:
    """Parse one ``minidynamo`` program name.

    Checked here, not with ``choices``: argparse on Python 3.11 checks
    an empty ``nargs="*"`` list against ``choices`` as one value and
    rejects it.
    """
    from repro.isa.programs import ALL_PROGRAMS

    if name not in ALL_PROGRAMS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(sorted(ALL_PROGRAMS))})"
        )
    return name


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


class _Command(argparse.ArgumentParser):
    """A subcommand's parser whose arguments may be declared on first use.

    ``declare(parser)``, if given, adds the subcommand's arguments and
    handler; it runs when the subcommand is parsed (its ``--help``
    included).  The top-level parser lists each subcommand by name and
    help line only, so building it reads no subcommand's choices or
    defaults and imports none of their modules.
    """

    def __init__(self, *args, declare=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            declare, self._declare = self._declare, None
            declare(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Software Profiling for Hot Path "
            "Prediction: Less is More' (Duesterwald & Bala, ASPLOS 2000)"
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Command
    )

    sub.add_parser("list", help="benchmarks and experiments").set_defaults(
        handler=_cmd_list
    )

    def add_benchmark(p):
        from repro.workloads.spec import BENCHMARK_ORDER

        p.add_argument("benchmark", choices=BENCHMARK_ORDER)

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
            help="keep no sweep cache: recompute every cell",
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

    def declare_inspect(p):
        add_benchmark(p)
        add_flow_scale(p)
        p.set_defaults(handler=_cmd_inspect)

    sub.add_parser(
        "inspect", help="summarize one benchmark", declare=declare_inspect
    )

    def declare_experiment(p):
        from repro.experiments.targets import EXPERIMENT_IDS

        p.add_argument(
            "names",
            nargs="*",
            help=(
                "experiments to run (default: all of "
                f"{', '.join(EXPERIMENT_IDS)})"
            ),
        )
        p.add_argument("--out", help="directory for .txt artifacts")
        p.add_argument(
            "--dry-run",
            action="store_true",
            help=(
                "plan only: list the graph nodes a real run would execute "
                "and why (stdout is empty when everything is up to date)"
            ),
        )
        p.add_argument(
            "--explain",
            action="store_true",
            help="after running, print why each executed node was dirty",
        )
        add_flow_scale(p)
        add_engine_flags(p)
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_experiment)

    sub.add_parser(
        "experiment",
        aliases=["run"],
        help="regenerate paper tables/figures",
        declare=declare_experiment,
    )

    def declare_extended(p):
        from repro.experiments.extended import EXTENDED_IDS

        p.add_argument(
            "names",
            nargs="*",
            help=(
                "studies to run (default: all of "
                f"{', '.join(EXTENDED_IDS)})"
            ),
        )
        add_flow_scale(p)
        p.set_defaults(handler=_cmd_extended)

    sub.add_parser(
        "extended",
        help="extension studies (overhead, ablations, …)",
        declare=declare_extended,
    )

    def declare_sweep(p):
        add_benchmark(p)
        p.add_argument("--delays", type=int, nargs="+")
        add_flow_scale(p)
        add_engine_flags(p)
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_sweep)

    sub.add_parser(
        "sweep", help="delay sweep on one benchmark", declare=declare_sweep
    )

    def declare_dynamo(p):
        add_benchmark(p)
        p.add_argument("--delays", type=int, nargs="+")
        add_flow_scale(p)
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_dynamo)

    sub.add_parser(
        "dynamo", help="Dynamo simulation cells", declare=declare_dynamo
    )

    def declare_minidynamo(p):
        from repro.dynamo.config import DEFAULT_CONFIG, TIERS
        from repro.isa.programs import ALL_PROGRAMS

        p.add_argument(
            "programs",
            nargs="*",
            type=_program_type,
            metavar="PROGRAM",
            help=f"programs to run: {', '.join(sorted(ALL_PROGRAMS))} "
            "(default: all)",
        )
        p.add_argument(
            "--tier",
            choices=TIERS,
            default=DEFAULT_CONFIG.tier,
            help="execution tier (default: %(default)s)",
        )
        p.add_argument(
            "--scheme", choices=("net", "path-profile"), default="net"
        )
        p.add_argument(
            "--delay", type=int, default=20, help="prediction delay τ"
        )
        p.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="input-size multiplier (default 1.0 = benchmark scale)",
        )
        p.add_argument("--max-steps", type=int, default=200_000_000)
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_minidynamo)

    sub.add_parser(
        "minidynamo",
        help="run real ISA programs through the miniature Dynamo VM",
        declare=declare_minidynamo,
    )

    def declare_save_trace(p):
        add_benchmark(p)
        p.add_argument("file")
        add_flow_scale(p)
        p.set_defaults(handler=_cmd_save_trace)

    sub.add_parser(
        "save-trace",
        help="persist a benchmark trace",
        declare=declare_save_trace,
    )

    info = sub.add_parser("trace-info", help="summarize a saved trace")
    info.add_argument("file")
    info.set_defaults(handler=_cmd_trace_info)

    def add_server_flags(p):
        from repro.serving.server import ServerConfig

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
            default=ServerConfig.checkpoint_interval_batches,
            metavar="BATCHES",
            help=(
                "durable session snapshot cadence in applied batches "
                "(default %(default)s; only meaningful with --state-dir)"
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

    def declare_serve(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument(
            "--port", type=int, default=0, help="0 picks a free port"
        )
        p.add_argument(
            "--state-dir",
            default=None,
            metavar="DIR",
            help=(
                "durable checkpoint/WAL directory; if it already holds "
                "server state the sessions are restored from it"
            ),
        )
        p.add_argument(
            "--drain-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help=(
                "bound on waiting for in-flight batches during SIGTERM "
                "drain (default: wait indefinitely)"
            ),
        )
        add_server_flags(p)
        p.set_defaults(handler=_cmd_serve)

    sub.add_parser(
        "serve",
        help="run the multi-tenant prediction server over TCP",
        declare=declare_serve,
    )

    def declare_loadtest(p):
        p.add_argument(
            "--tenants",
            type=int,
            default=200,
            help="concurrent tenants to replay (default 200)",
        )
        p.add_argument(
            "--batch-events",
            type=int,
            default=256,
            help="events per ingest batch (default 256)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=4,
            help="client threads driving the replay (default 4)",
        )
        p.add_argument(
            "--state-dir",
            default=None,
            metavar="DIR",
            help=(
                "run the durable leg: checkpoint/WAL state under DIR "
                "(must be empty)"
            ),
        )
        add_server_flags(p)
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_loadtest)

    sub.add_parser(
        "loadtest",
        help="replay interleaved tenant streams against the server",
        declare=declare_loadtest,
    )

    def declare_chaos(p):
        from repro.serving.chaos import ChaosConfig

        p.add_argument(
            "--seed",
            type=int,
            default=ChaosConfig.seed,
            help="corpus generation seed (default %(default)s)",
        )
        p.add_argument(
            "--delay",
            type=int,
            default=ChaosConfig.delay,
            help="NET prediction delay tau (default %(default)s)",
        )
        p.add_argument(
            "--shards",
            type=int,
            default=ChaosConfig.num_shards,
            help="predictor-state shards (default %(default)s)",
        )
        p.add_argument(
            "--checkpoint-interval",
            type=int,
            default=ChaosConfig.checkpoint_interval_batches,
            metavar="BATCHES",
            help=(
                "durable session snapshot cadence in applied batches "
                "(default %(default)s)"
            ),
        )
        p.add_argument(
            "--state-dir",
            default=None,
            metavar="DIR",
            help=(
                "where the server under test keeps its state (must be "
                "empty; default: a temporary directory)"
            ),
        )
        add_metrics_flags(p)
        p.set_defaults(handler=_cmd_chaos)

    sub.add_parser(
        "chaos",
        help=(
            "break a durable server over TCP mid-load (crash, torn WAL "
            "tail, lost ack, rolling restart) and compare its recovered "
            "predictions byte-for-byte with an uninterrupted run "
            "(exit 1 on any mismatch)"
        ),
        declare=declare_chaos,
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Commands with --metrics-json measure into one registry, which
    # handlers read as args.registry; the recorder times the whole
    # invocation and records it verbatim in the manifest.
    metrics_json = getattr(args, "metrics_json", None)
    args.registry = Registry() if metrics_json else None
    recorder = RunRecorder(list(argv) if argv is not None else sys.argv[1:])
    try:
        code = args.handler(args)
    except SweepInterrupted as stop:
        # Graceful Ctrl-C/SIGTERM: completed cells are in the cache, the
        # partial manifest is flushed, and the exit code is the shell
        # convention for death-by-SIGINT (128 + 2) — no traceback.
        print(f"interrupted: {stop}", file=sys.stderr)
        _flush_interrupted_metrics(args, recorder)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        _flush_interrupted_metrics(args, recorder)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _finish_metrics(args, recorder)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
