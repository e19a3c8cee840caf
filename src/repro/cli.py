"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli list                         # available benchmarks
    python -m repro.cli run kmeans --policy mpc      # manage one benchmark
    python -m repro.cli run Spmv --policy all        # compare every policy
    python -m repro.cli train                        # (re)train the forest
    python -m repro.cli experiments fig8 fig9        # regenerate figures
    python -m repro.cli experiments --jobs 4         # parallel + cached
    python -m repro.cli report -o EXPERIMENTS.md     # full markdown report
    python -m repro.cli run kmeans --trace-out t.jsonl --metrics-out m.prom
    python -m repro.cli obs summarize t.jsonl        # per-run decision summary
    python -m repro.cli trace record kmeans -o k.jsonl   # capture a run
    python -m repro.cli trace replay k.jsonl         # re-check it float-for-float
    python -m repro.cli trace generate -o traces/    # adversarial corpus
    python -m repro.cli fleet run t.jsonl --nodes 4 --cap-w 250  # fleet sim
    python -m repro.cli bench fleet --quick          # fleet scaling smoke
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.ml.predictors import evaluate_predictor, train_predictor
from repro.sim.metrics import energy_savings_pct, speedup
from repro.workloads.suites import BENCHMARK_NAMES, all_benchmarks

__all__ = ["main", "build_parser"]

_POLICIES = ("turbo", "ppk", "mpc", "to", "all")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic GPGPU Power Management "
        "Using Adaptive Model Predictive Control' (HPCA 2017).",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="threshold for the repro.* logging hierarchy (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table-IV benchmarks")

    run = sub.add_parser("run", help="run a benchmark under a policy")
    run.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run.add_argument("--policy", choices=_POLICIES, default="all")
    run.add_argument("--alpha", type=float, default=0.05,
                     help="adaptive-horizon performance bound")
    run.add_argument("--full-horizon", action="store_true",
                     help="disable the adaptive horizon")
    run.add_argument("--cache-dir", default=".cache",
                     help="Random Forest cache directory")
    _add_obs_flags(run)

    train = sub.add_parser("train", help="train/evaluate the Random Forest")
    train.add_argument("--cache-dir", default=".cache")

    analyze = sub.add_parser(
        "analyze", help="analyse an MPC run of a benchmark"
    )
    analyze.add_argument("benchmark", choices=BENCHMARK_NAMES)
    analyze.add_argument("--cache-dir", default=".cache")
    analyze.add_argument("--oracle", action="store_true",
                         help="use the oracle predictor (skip training)")

    experiments = sub.add_parser(
        "experiments", help="regenerate tables/figures of the paper"
    )
    experiments.add_argument("keys", nargs="*",
                             help="experiment keys (default: all)")
    _add_engine_flags(experiments)

    report = sub.add_parser("report", help="write the EXPERIMENTS.md report")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    _add_engine_flags(report)

    lint = sub.add_parser(
        "lint", help="run the AST invariant linter (rules: --list-rules)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--format", dest="lint_format", default="text",
        choices=("text", "json"), help="report format (default: text)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (id, name, severity) and exit",
    )
    lint.add_argument(
        "--stats", action="store_true",
        help="append per-rule wall-clock timings to the report "
        "(stderr when --format json keeps stdout machine-readable)",
    )

    bench = sub.add_parser("bench", help="microbenchmarks of the runtime hot paths")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    decide = bench_sub.add_parser(
        "decide",
        help="decisions/sec of the hill-climb, per-session vs. batched sweeps",
    )
    decide.add_argument(
        "--quick", action="store_true",
        help="fewer timed decisions and a small forest (CI smoke mode)",
    )
    decide.add_argument(
        "--output", default=None, metavar="PATH",
        help="trajectory JSON file (default: BENCH_decide.json)",
    )
    decide.add_argument(
        "--label", default=None, help="label for this trajectory entry"
    )
    decide.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="benchmark supplying the decision workload (default: kmeans)",
    )
    decide.add_argument(
        "--cache-dir", default=".cache",
        help="predictor cache directory (default: .cache)",
    )
    decide.add_argument(
        "--max-health-overhead", default=None, type=float, metavar="PCT",
        help="fail if the health-vs-NOOP hot-path overhead exceeds PCT",
    )
    bench_fleet = bench_sub.add_parser(
        "fleet",
        help="fleet decisions/sec across shard counts and global caps",
    )
    bench_fleet.add_argument(
        "--quick", action="store_true",
        help="smaller trace and the {1,4}-node grid (CI smoke mode)",
    )
    bench_fleet.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="trajectory JSON file (default: BENCH_fleet.json)",
    )
    bench_fleet.add_argument(
        "-l", "--label", default=None,
        help="label for this trajectory entry",
    )
    bench_fleet.add_argument("--seed", type=int, default=0,
                             help="bench workload seed (default: 0)")
    bench_fleet.add_argument(
        "--epoch-launches", type=int, default=32, metavar="N",
        help="budget-epoch length in dispatched launches (default: 32)",
    )
    bench_fleet.add_argument(
        "--min-speedup", default=None, type=float, metavar="X",
        help="fail unless the best 4-node speedup over the single-node "
        "batched baseline reaches X (pass only on multi-core hosts)",
    )

    fleet = sub.add_parser(
        "fleet", help="shard a multi-session trace across simulated nodes"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run",
        help="drive a trace through N nodes under a hierarchical power cap",
    )
    fleet_run.add_argument("trace", help="JSONL kernel-launch trace file")
    fleet_run.add_argument("--nodes", type=int, default=1,
                           help="fleet size (default: 1)")
    fleet_run.add_argument(
        "--cap-w", type=float, default=None, metavar="W",
        help="global power cap in watts (default: uncapped)",
    )
    fleet_run.add_argument(
        "--epoch-launches", type=int, default=32, metavar="N",
        help="budget-epoch length in dispatched launches (default: 32)",
    )
    fleet_run.add_argument(
        "--transport", choices=("inline", "process"), default="inline",
        help="shard transport (default: inline)",
    )
    fleet_run.add_argument(
        "--max-sessions-per-node", type=int, default=None, metavar="N",
        help="admission limit per node (arrivals beyond it queue)",
    )
    fleet_run.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="admission-queue capacity (overflow sheds sessions)",
    )
    fleet_run.add_argument(
        "--rebalance", action="store_true",
        help="migrate sessions from the most- to the least-loaded node "
        "at epoch boundaries",
    )
    fleet_run.add_argument("--cache-dir", default=".cache",
                           help="Random Forest cache directory")
    fleet_run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write node launch spans plus fleet epoch spans to FILE",
    )
    fleet_run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the merged fleet metrics registry to FILE",
    )

    trace = sub.add_parser(
        "trace", help="record, replay, validate, and generate kernel-launch traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser(
        "record", help="capture a benchmark run as a decision-stamped trace"
    )
    record.add_argument("benchmark", choices=BENCHMARK_NAMES)
    record.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="trace file (default: <benchmark>-<policy>.jsonl)")
    record.add_argument("--policy", choices=("mpc", "ppk", "turbo"), default="mpc")
    record.add_argument("--invocations", type=int, default=2,
                        help="back-to-back invocations to trace (default: 2)")
    record.add_argument("--predictor", choices=("oracle", "forest"),
                        default="oracle")
    record.add_argument("--cache-dir", default=".cache",
                        help="Random Forest cache directory")
    replay = trace_sub.add_parser(
        "replay",
        help="replay a trace; recorded decisions are checked float-for-float",
    )
    replay.add_argument("trace", help="JSONL kernel-launch trace file")
    replay.add_argument("--no-check", action="store_true",
                        help="skip comparing against recorded decisions")
    replay.add_argument("--cache-dir", default=".cache",
                        help="Random Forest cache directory")
    _add_obs_flags(replay)
    tvalidate = trace_sub.add_parser(
        "validate", help="check a trace file structurally and semantically"
    )
    tvalidate.add_argument("trace", help="JSONL kernel-launch trace file")
    tvalidate.add_argument(
        "--schema", default="docs/kernel_trace.schema.json",
        help="record schema (default: docs/kernel_trace.schema.json)",
    )
    generate = trace_sub.add_parser(
        "generate", help="generate the adversarial scenario corpus"
    )
    generate.add_argument(
        "families", nargs="*", metavar="FAMILY",
        help="scenario families (default: all)",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output-dir", default="traces",
                          help="output directory (default: traces/)")

    obs = sub.add_parser(
        "obs", help="inspect traces/metrics written by --trace-out"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="per-(session, app, policy) decision summary of a JSONL trace",
    )
    summarize.add_argument("trace", help="JSONL trace file")
    validate = obs_sub.add_parser(
        "validate", help="check every span of a JSONL trace against a schema"
    )
    validate.add_argument("trace", help="JSONL trace file")
    validate.add_argument(
        "--schema", default="docs/trace.schema.json",
        help="span schema (default: docs/trace.schema.json)",
    )
    health = obs_sub.add_parser(
        "health",
        help="model-health report (error ledgers, drift, states) of a "
             "JSONL span trace",
    )
    health.add_argument("trace", help="JSONL trace file (from --trace-out)")
    health.add_argument("--json", action="store_true",
                        help="emit the raw health report as JSON")
    health.add_argument(
        "--min-drift", type=int, default=None, metavar="N",
        help="exit 1 unless at least N drift events were detected",
    )
    health.add_argument(
        "--max-drift", type=int, default=None, metavar="N",
        help="exit 1 if more than N drift events were detected",
    )

    return parser


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Engine flags shared by the experiment-matrix subcommands."""
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the simulation matrix (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=".cache",
        help="engine/model cache directory (default: .cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    _add_obs_flags(parser)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the simulation subcommands."""
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write one JSONL decision span per kernel launch to FILE",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metrics registry in Prometheus text format to FILE",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="install the streaming model-health monitor (repro_health_* "
             "metrics, health transition spans; implies live "
             "instrumentation)",
    )


def _obs_from_args(args: argparse.Namespace):
    """A live Instrumentation when any obs output was requested."""
    from repro.obs import NOOP, make_instrumentation

    health = bool(getattr(args, "health", False))
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or health
    ):
        return make_instrumentation(health=health)
    return NOOP


def _write_obs(args: argparse.Namespace, spans, registry) -> None:
    """Write ``spans`` to ``--trace-out`` and ``registry`` to
    ``--metrics-out``, each only when requested."""
    from repro.obs.exporters import write_jsonl, write_prometheus

    if args.trace_out:
        count = write_jsonl(spans, args.trace_out)
        print(f"wrote {count} spans to {args.trace_out}")
    if args.metrics_out:
        write_prometheus(registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")


def _export_obs(obs, args: argparse.Namespace) -> None:
    """Write the requested trace/metrics artifacts of a finished command."""
    if not obs.enabled:
        return
    _write_obs(args, obs.tracer.drain(), obs.registry)
    if obs.health.enabled:
        from repro.obs import format_health_report

        print(format_health_report(obs.health.report()))


def _engine_context(args: argparse.Namespace):
    """Build the engine-backed ExperimentContext the flags describe."""
    from repro.engine import ExperimentEngine
    from repro.experiments.common import ExperimentContext

    obs = _obs_from_args(args)
    engine = ExperimentEngine(
        jobs=args.jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, obs=obs,
    )
    return ExperimentContext(cache_dir=args.cache_dir, engine=engine, obs=obs)


def _cmd_list() -> int:
    print(f"{'benchmark':16s} {'suite':14s} {'category':40s} {'pattern'}")
    for app in all_benchmarks():
        print(f"{app.name:16s} {app.suite:14s} {app.category.value:40s} {app.pattern}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import ExperimentContext

    # No engine: every run computes afresh, through the engine's variants.
    ctx = ExperimentContext(
        benchmark_names=[args.benchmark], cache_dir=args.cache_dir,
        alpha=args.alpha, obs=_obs_from_args(args),
    )
    name = args.benchmark
    app = ctx.app(name)
    turbo = ctx.turbo(name)
    print(
        f"{app.name}: N={len(app)}, Turbo Core {turbo.kernel_time_s * 1e3:.1f} ms / "
        f"{turbo.energy_j:.2f} J"
    )

    runs = {
        "turbo": ctx.turbo,
        "ppk": ctx.ppk,
        "mpc": ctx.mpc_full_horizon if args.full_horizon else ctx.mpc,
        "to": ctx.theoretically_optimal,
    }
    wanted = _POLICIES[:-1] if args.policy == "all" else (args.policy,)
    print(f"\n{'policy':8s} {'energy savings':>15s} {'speedup':>9s}")
    for kind in wanted:
        run = runs[kind](name)
        print(
            f"{kind:8s} {energy_savings_pct(run, turbo):14.1f}% "
            f"{speedup(run, turbo):9.3f}"
        )
    _export_obs(ctx.obs, args)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    predictor = train_predictor(cache_dir=args.cache_dir)
    kernels = [k for app in all_benchmarks() for k in app.unique_kernels]
    time_mape, power_mape = evaluate_predictor(predictor, kernels)
    print(
        f"trained; out-of-sample MAPE: time {time_mape:.1f}% / "
        f"power {power_mape:.1f}% (paper: 25% / 12%)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.experiments.common import ExperimentContext
    from repro.sim.analysis import (
        config_occupancy,
        energy_breakdown,
        kernel_summaries,
        throughput_phases,
    )

    ctx = ExperimentContext(
        benchmark_names=[args.benchmark], cache_dir=args.cache_dir
    )
    name = args.benchmark
    if args.oracle:
        ctx.predictor = ctx.oracle(name)
    app = ctx.app(name)
    turbo = ctx.turbo(name)
    steady = ctx.mpc(name)

    print(
        f"{app.name}: MPC {energy_savings_pct(steady, turbo):.1f}% energy "
        f"savings at {speedup(steady, turbo):.3f}x vs Turbo Core\n"
    )
    shares = energy_breakdown(steady).shares()
    print(
        f"energy split: GPU {100 * shares['gpu_kernel']:.1f}% / "
        f"CPU {100 * shares['cpu_kernel']:.1f}% / "
        f"optimizer {100 * shares['overhead']:.2f}%"
    )
    print("\nconfiguration occupancy (by time):")
    for config, share in sorted(config_occupancy(steady).items(),
                                key=lambda kv: -kv[1]):
        print(f"  {config:<26} {100 * share:5.1f}%")
    print("\nkernels by energy:")
    for summary in kernel_summaries(steady):
        print(
            f"  {summary.kernel_key:<22} x{summary.launches:<3} "
            f"{summary.total_energy_j:7.2f} J  failsafe {summary.fail_safe_launches}"
        )
    print("\nthroughput phases:")
    for start, end, label in throughput_phases(steady):
        print(f"  launches {start:>3}-{end - 1:>3}: {label}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    ctx = _engine_context(args)
    run_all(ctx, only=args.keys or None)
    _export_obs(ctx.obs, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    ctx = _engine_context(args)
    print(f"writing {write_report(args.output, ctx)}")
    _export_obs(ctx.obs, args)
    return 0


def _split_rules(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        render_catalogue,
        render_json,
        render_stats,
        render_text,
        run_lint,
    )

    if args.list_rules:
        print(render_catalogue())
        return 0
    try:
        result = run_lint(
            args.paths,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.lint_format == "json" else render_text
    print(render(result))
    if args.stats:
        stats = render_stats(result)
        if args.lint_format == "json":
            print(stats, file=sys.stderr)
        else:
            print(stats)
    return result.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench_decide import (
        DEFAULT_BENCHMARK,
        DEFAULT_OUTPUT,
        format_entry,
        run_bench_decide,
    )

    if args.bench_command == "decide":
        entry = run_bench_decide(
            quick=args.quick,
            output=args.output or DEFAULT_OUTPUT,
            label=args.label,
            benchmark_name=args.benchmark or DEFAULT_BENCHMARK,
            cache_dir=args.cache_dir,
            max_health_overhead_pct=args.max_health_overhead,
        )
        print(format_entry(entry))
        print(f"appended to {args.output or DEFAULT_OUTPUT}")
        overhead = entry["health_overhead"]
        assert isinstance(overhead, dict)
        if not overhead["decisions_identical"]:
            print("bench decide: health arm diverged from NOOP", file=sys.stderr)
            return 1
        budget = overhead.get("budget_pct")
        if budget is not None and overhead["overhead_pct"] > budget:
            print(
                f"bench decide: health overhead {overhead['overhead_pct']}% "
                f"exceeds the {budget}% budget",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.bench_command == "fleet":
        from repro.experiments.bench_fleet import (
            DEFAULT_OUTPUT as FLEET_OUTPUT,
            best_speedup,
            format_fleet_entry,
            run_bench_fleet,
        )

        entry = run_bench_fleet(
            quick=args.quick,
            output=args.output or FLEET_OUTPUT,
            label=args.label,
            seed=args.seed,
            min_speedup=args.min_speedup,
            epoch_launches=args.epoch_launches,
        )
        print(format_fleet_entry(entry))
        print(f"appended to {args.output or FLEET_OUTPUT}")
        if not all(point["budget_conserved"] for point in entry["grid"]):
            print("bench fleet: budget conservation violated", file=sys.stderr)
            return 1
        if args.min_speedup is not None:
            speedup_x = best_speedup(entry)
            if speedup_x is None or speedup_x < args.min_speedup:
                print(
                    f"bench fleet: best 4-node speedup "
                    f"{speedup_x if speedup_x is not None else 'n/a'} "
                    f"is below the required {args.min_speedup}x",
                    file=sys.stderr,
                )
                return 1
        return 0
    raise ValueError(
        f"unknown bench command {args.bench_command!r}"
    )  # pragma: no cover


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetSimulator
    from repro.workloads.traces import Trace

    if args.fleet_command != "run":  # pragma: no cover - argparse restricts
        raise ValueError(f"unknown fleet command {args.fleet_command!r}")
    try:
        trace = Trace.load(args.trace)
    except (OSError, ValueError) as exc:
        print(f"{args.trace}: {exc}", file=sys.stderr)
        return 2
    problems = trace.validate()
    if problems:
        for problem in problems:
            print(f"{args.trace}: {problem}", file=sys.stderr)
        return 2
    try:
        sim = FleetSimulator(
            trace,
            nodes=args.nodes,
            cap_w=args.cap_w,
            epoch_launches=args.epoch_launches,
            transport=args.transport,
            max_sessions_per_node=args.max_sessions_per_node,
            max_queued=args.max_queued,
            rebalance=args.rebalance,
            cache_dir=args.cache_dir,
        )
    except ValueError as exc:
        print(f"repro fleet run: {exc}", file=sys.stderr)
        return 2
    report = sim.run()

    cap = f"{args.cap_w:g} W cap" if args.cap_w is not None else "uncapped"
    print(
        f"fleet {trace.header.name}: {args.nodes} node(s) ({args.transport}), "
        f"{cap}, {report.launches()} launches over {len(report.epochs)} "
        f"epoch(s)"
    )
    hosted: dict = {}
    for session_id, node_id in report.placement.items():
        hosted.setdefault(node_id, []).append(session_id)
    for node_id in sorted(hosted):
        print(f"  {node_id}: {len(hosted[node_id])} session(s)")
    if report.queued or report.shed:
        print(f"  admission: {report.queued} queued, {report.shed} shed")
    if report.epochs and report.epochs[-1].budgets:
        last = report.epochs[-1]
        total = sum(last.budgets.values())
        print(
            f"  last epoch budgets: {total:.1f} W apportioned of "
            f"{last.cap_w:g} W cap"
        )
        for node_id, watts in sorted(last.budgets.items()):
            print(f"    {node_id}: {watts:.1f} W")
    print(f"  aggregate: {report.aggregate_stats().format()}")
    _write_obs(args, report.spans, report.registry)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.traces import (
        FAMILIES,
        ScenarioGenerator,
        Trace,
        TraceReplayer,
        stamp_decisions,
        trace_from_benchmark,
    )

    if args.trace_command == "record":
        trace = trace_from_benchmark(
            args.benchmark,
            policy=args.policy,
            invocations=args.invocations,
            predictor=args.predictor,
        )
        stamped = stamp_decisions(trace, cache_dir=args.cache_dir)
        output = args.output or f"{args.benchmark}-{args.policy}.jsonl"
        stamped.dump(output)
        print(
            f"recorded {stamped.header.name}: {len(stamped.events)} launches "
            f"across {args.invocations} invocation(s) -> {output}"
        )
        return 0

    if args.trace_command == "replay":
        try:
            trace = Trace.load(args.trace)
        except ValueError as exc:
            print(f"{args.trace}: {exc}", file=sys.stderr)
            return 2
        problems = trace.validate()
        if problems:
            for problem in problems:
                print(f"{args.trace}: {problem}", file=sys.stderr)
            return 2
        report = TraceReplayer(
            trace,
            check=not args.no_check,
            cache_dir=args.cache_dir,
        ).replay()
        print(
            f"replayed {trace.header.name}: {len(report.outcomes)} launches, "
            f"{len(report.stats)} session(s), {report.checked} decision(s) checked"
        )
        for session_id, stats in sorted(report.stats.items()):
            print(f"  {session_id}: {stats.format()}")
        if report.health is not None:
            for name, session in sorted(report.health.sessions.items()):
                print(
                    f"  health {name}: {session.state.name}, "
                    f"{session.drift_events} drift event(s)"
                )
        for result in report.assertion_results:
            print(f"  {result}")
        for mismatch in report.mismatches:
            print(f"  MISMATCH {mismatch}")
        _write_obs(args, report.spans, report.registry)
        return 0 if report.passed else 1

    if args.trace_command == "validate":
        import json

        from repro.obs.exporters import validate_trace_file

        with open(args.schema, encoding="utf-8") as handle:
            schema = json.load(handle)
        problems = validate_trace_file(args.trace, schema)
        try:
            problems.extend(Trace.load(args.trace).validate())
        except ValueError as exc:
            problems.append(str(exc))
        for problem in problems:
            print(problem)
        if problems:
            print(f"{args.trace}: {len(problems)} problem(s)")
            return 1
        print(f"{args.trace}: valid")
        return 0

    if args.trace_command == "generate":
        families = args.families or list(FAMILIES)
        generator = ScenarioGenerator(seed=args.seed)
        try:
            paths = generator.dump_corpus(args.output_dir, families)
        except (KeyError, RuntimeError) as exc:
            print(f"repro trace generate: {exc}", file=sys.stderr)
            return 2
        for path in paths:
            print(f"wrote {path}")
        return 0

    raise ValueError(
        f"unknown trace command {args.trace_command!r}"
    )  # pragma: no cover


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.exporters import (
        format_summary,
        read_jsonl,
        summarize_spans,
        validate_trace_file,
    )

    if args.obs_command == "summarize":
        print(format_summary(summarize_spans(read_jsonl(args.trace))))
        return 0
    if args.obs_command == "validate":
        import json

        with open(args.schema, encoding="utf-8") as handle:
            schema = json.load(handle)
        errors = validate_trace_file(args.trace, schema)
        for error in errors:
            print(error)
        if errors:
            print(f"{args.trace}: {len(errors)} invalid spans")
            return 1
        print(f"{args.trace}: all spans valid")
        return 0
    if args.obs_command == "health":
        import json

        from repro.obs import HealthMonitor, format_health_report

        # Offline recompute: feeding the recorded launch spans through
        # a fresh monitor is the same deterministic computation the
        # live monitor ran, so reports match a --health run exactly.
        monitor = HealthMonitor()
        for span in read_jsonl(args.trace):
            monitor.observe_span(span)
        if args.json:
            print(json.dumps(monitor.report(), indent=2, sort_keys=True))
        else:
            print(format_health_report(monitor.report()))
        drift = monitor.drift_events()
        if args.min_drift is not None and drift < args.min_drift:
            print(
                f"{args.trace}: {drift} drift event(s) < required "
                f"{args.min_drift}",
                file=sys.stderr,
            )
            return 1
        if args.max_drift is not None and drift > args.max_drift:
            print(
                f"{args.trace}: {drift} drift event(s) > allowed "
                f"{args.max_drift}",
                file=sys.stderr,
            )
            return 1
        return 0
    raise ValueError(f"unknown obs command {args.obs_command!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
