"""The ``t1000`` command-line tool.

Examples::

    t1000 fig2                 # Figure 2 table (greedy selection)
    t1000 fig2 --jobs 4 --cache-dir ~/.cache/t1000   # parallel + cached
    t1000 fig6 --scale 2       # Figure 6 at a larger workload scale
    t1000 fig7                 # LUT-cost histogram
    t1000 stats                # greedy selection statistics (§4.1)
    t1000 sweep-reconfig       # reconfiguration-latency sweep (§5.2)
    t1000 sweep-pfu            # PFU-count sweep (§5.2)
    t1000 run gsm_encode --algorithm selective --pfus 2
    t1000 cache stats --cache-dir ~/.cache/t1000     # artefacts, hit rates
    t1000 cache gc --cache-dir ~/.cache/t1000 --max-bytes 100000000

Experiment commands accept ``--jobs N`` (execute the experiment DAG on N
worker processes), ``--cache-dir PATH`` (persist every pipeline artefact
in a content-addressed store; a warm cache re-runs nothing), and
``--no-cache`` (ignore any configured store).  ``T1000_JOBS`` and
``T1000_CACHE_DIR`` provide defaults for the flags.

Every subcommand additionally accepts ``--trace-out FILE`` (record the
run and write a Chrome trace-event file for ``chrome://tracing`` /
Perfetto) and ``--metrics-out FILE`` (write a metrics/span JSONL export,
rendered later by ``t1000 metrics report FILE...``).  Observability is
off — and free — unless one of those flags is given (:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.engine import ArtifactStore, EngineConfig, ExperimentEngine, make_spec
from repro.extinst.registry import (
    BASELINE,
    SELECTIVE,
    registered_algorithms,
    selector_specs,
)
from repro.harness import figures
from repro.harness.runner import WorkloadLab
from repro.utils.tables import format_table
from repro.workloads import WORKLOAD_NAMES


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int,
        default=int(os.environ.get("T1000_JOBS") or 1),
        help="worker processes for the experiment DAG (default 1 / $T1000_JOBS)",
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("T1000_CACHE_DIR") or None,
        help="persistent artifact-store directory (default $T1000_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact store for this invocation",
    )
    parser.add_argument(
        "--engine-report", action="store_true",
        help="print the engine's job/cache/simulation summary to stderr",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record observability and write a Chrome trace-event file "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="record observability and write a metrics/span JSONL export "
        "(render with 't1000 metrics report')",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument(
        "--workloads", nargs="*", default=list(WORKLOAD_NAMES),
        choices=list(WORKLOAD_NAMES), help="subset of workloads"
    )
    _add_engine_flags(parser)
    _add_obs_flags(parser)


def _engine_from_args(args) -> ExperimentEngine:
    return ExperimentEngine(EngineConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    ))


def _finish(engine: ExperimentEngine, args) -> None:
    if getattr(args, "engine_report", False):
        print(engine.report(), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t1000",
        description="T1000 reproduction experiments (Zhou & Martonosi, "
        "IPPS 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("fig2", "fig6", "stats", "sweep-reconfig", "sweep-pfu"):
        p = sub.add_parser(cmd)
        _add_common(p)
    p7 = sub.add_parser("fig7")
    _add_common(p7)
    p7.add_argument("--select-pfus", type=int, default=4)

    prof_p = sub.add_parser("profile", help="sim_profile-style report")
    prof_p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    prof_p.add_argument("--scale", type=int, default=1)
    _add_engine_flags(prof_p)
    _add_obs_flags(prof_p)

    pipe_p = sub.add_parser("pipeview", help="pipeline timeline chart")
    pipe_p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    pipe_p.add_argument("--scale", type=int, default=1)
    pipe_p.add_argument("--skip", type=int, default=2000,
                        help="dynamic instructions to skip (warm-up)")
    pipe_p.add_argument("--count", type=int, default=24)
    pipe_p.add_argument(
        "--algorithm", default=BASELINE,
        choices=[BASELINE, *registered_algorithms()]
    )
    pipe_p.add_argument("--pfus", type=lambda s: None if s == "unlimited" else int(s),
                        default=2)
    _add_engine_flags(pipe_p)
    _add_obs_flags(pipe_p)

    report_p = sub.add_parser(
        "report", help="regenerate every paper artefact into a directory"
    )
    report_p.add_argument("--out", default="t1000_report")
    report_p.add_argument("--scale", type=int, default=1)
    _add_engine_flags(report_p)
    _add_obs_flags(report_p)

    sub.add_parser(
        "algorithms",
        help="list the registered selection algorithms and their tunables",
    )

    cmp_p = sub.add_parser(
        "compare-selectors",
        help="three-way selector comparison: estimated cycles saved per "
        "registered algorithm under a hard reconfiguration regime",
    )
    _add_common(cmp_p)
    cmp_p.add_argument("--pfus", type=int, default=2,
                       help="PFU budget every selector plans for (default 2)")
    cmp_p.add_argument(
        "--latencies", type=int, nargs="+", default=[10, 100, 500],
        metavar="CYCLES",
        help="reconfiguration latencies to compare at (default 10 100 500)",
    )
    cmp_p.add_argument(
        "--check", action="store_true",
        help="exit nonzero if isegen scores below any other selector "
        "at any point (CI gate)",
    )

    fuzz_p = sub.add_parser(
        "fuzz", help="differential-fuzz the folding pipeline"
    )
    fuzz_p.add_argument("-n", "--programs", type=int, default=50)
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    fuzz_p.add_argument("--flavor", default="both",
                        choices=["asm", "minic", "both"])
    fuzz_p.add_argument(
        "--replay-seed", type=int, default=None, metavar="SEED",
        help="re-run the one program a failure report printed "
        "(requires --flavor asm or minic)",
    )
    _add_obs_flags(fuzz_p)

    sel_p = sub.add_parser(
        "select",
        help="write a selection file (the paper's 'second input file', §3.1)",
    )
    sel_p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    sel_p.add_argument("--scale", type=int, default=1)
    sel_p.add_argument("--algorithm", default=SELECTIVE,
                       choices=list(registered_algorithms()))
    sel_p.add_argument("--pfus", type=lambda s: None if s == "unlimited" else int(s),
                       default=2)
    sel_p.add_argument("-o", "--output", required=True)
    _add_engine_flags(sel_p)
    _add_obs_flags(sel_p)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    run_p.add_argument("--scale", type=int, default=1)
    run_p.add_argument(
        "--algorithm", default=SELECTIVE,
        choices=[BASELINE, *registered_algorithms()]
    )
    run_p.add_argument("--pfus", type=lambda s: None if s == "unlimited" else int(s),
                       default=2, help="PFU count or 'unlimited'")
    run_p.add_argument("--reconfig", type=int, default=10)
    run_p.add_argument(
        "--selection", default=None,
        help="use a selection file from 't1000 select' instead of "
        "running the algorithm",
    )
    _add_engine_flags(run_p)
    _add_obs_flags(run_p)

    metrics_p = sub.add_parser(
        "metrics", help="work with observability exports"
    )
    metrics_sub = metrics_p.add_subparsers(dest="metrics_command",
                                           required=True)
    mrep_p = metrics_sub.add_parser(
        "report",
        help="render a human-readable breakdown of --metrics-out exports",
    )
    mrep_p.add_argument("files", nargs="+", metavar="FILE",
                        help="metrics JSONL file(s); several are merged")
    mrep_p.add_argument("--top", type=int, default=6,
                        help="stall reasons shown per workload (default 6)")

    serve_p = sub.add_parser(
        "serve",
        help="run the toolflow as a long-lived batching service "
        "(see docs/serving.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7077)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="worker subprocesses (default 2)")
    serve_p.add_argument("--max-queue", type=int, default=128,
                         help="admission-queue bound; beyond it requests "
                         "get explicit 'overloaded' answers (default 128)")
    serve_p.add_argument("--max-batch", type=int, default=16,
                         help="largest simulate micro-batch (default 16)")
    serve_p.add_argument("--timeout-ms", type=int, default=30000,
                         help="default per-request deadline (default 30000)")
    serve_p.add_argument("--worker-max-requests", type=int, default=500,
                         help="recycle a worker after this many requests")
    serve_p.add_argument(
        "--cache-dir", default=os.environ.get("T1000_CACHE_DIR") or None,
        help="persistent artifact store shared by the workers "
        "(default $T1000_CACHE_DIR)",
    )
    serve_p.add_argument("--debug-ops", action="store_true",
                         help=argparse.SUPPRESS)

    gateway_p = sub.add_parser(
        "gateway",
        help="front a fleet of 't1000 serve' backends behind one "
        "address (see docs/gateway.md)",
    )
    gateway_sub = gateway_p.add_subparsers(dest="gateway_command",
                                           required=True)
    gw_run = gateway_sub.add_parser(
        "run", help="spawn a local backend fleet and serve until SIGTERM"
    )
    gw_run.add_argument("--host", default="127.0.0.1")
    gw_run.add_argument("--port", type=int, default=7080)
    gw_run.add_argument("--backends", type=int, default=2,
                        help="local backend subprocesses to spawn; also "
                        "the autoscale floor (default 2)")
    gw_run.add_argument("--max-backends", type=int, default=4,
                        help="autoscale ceiling (default 4)")
    gw_run.add_argument(
        "--attach", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="front these already-running backends instead of spawning "
        "a local fleet (comma-separated; disables autoscaling)",
    )
    gw_run.add_argument("--workers", type=int, default=2,
                        help="worker subprocesses per spawned backend")
    gw_run.add_argument(
        "--cache-dir", default=os.environ.get("T1000_CACHE_DIR") or None,
        help="persistent artifact store shared by the fleet "
        "(default $T1000_CACHE_DIR)",
    )
    gw_run.add_argument("--timeout-ms", type=int, default=30000,
                        help="default per-request deadline (default 30000)")
    gw_run.add_argument("--no-autoscale", action="store_true",
                        help="keep the fleet fixed at --backends")
    _add_obs_flags(gw_run)   # gateway.* series export on drain
    for gw_cmd, help_text in (
        ("status", "gateway health, per-backend counters, ring state"),
        ("drain", "ask a running gateway to drain and exit"),
    ):
        gp = gateway_sub.add_parser(gw_cmd, help=help_text)
        gp.add_argument(
            "--connect", default=os.environ.get("T1000_GATEWAY")
            or "127.0.0.1:7080",
            metavar="HOST:PORT",
            help="gateway address (default 127.0.0.1:7080 / "
            "$T1000_GATEWAY)",
        )
        gp.add_argument("--timeout", type=float, default=60.0,
                        help="per-request client timeout in seconds")

    client_p = sub.add_parser(
        "client", help="talk to a running 't1000 serve' instance"
    )
    client_sub = client_p.add_subparsers(dest="client_command", required=True)
    for client_cmd, help_text in (
        ("health", "readiness, worker liveness, queue depth"),
        ("stats", "metric series from the server's repro.obs registry"),
        ("run", "run the five-op toolflow for one workload via the service"),
        ("smoke", "concurrent mixed-load smoke test (CI gate)"),
        ("sweep", "digest-addressed trace-ref config sweep (CI gate "
                  "for the binary wire framing)"),
    ):
        cp = client_sub.add_parser(client_cmd, help=help_text)
        cp.add_argument(
            "--connect", default=os.environ.get("T1000_SERVE")
            or "127.0.0.1:7077",
            metavar="HOST:PORT",
            help="server address (default 127.0.0.1:7077 / $T1000_SERVE)",
        )
        cp.add_argument("--timeout", type=float, default=60.0,
                        help="per-request client timeout in seconds")
        if client_cmd == "run":
            cp.add_argument("workload", choices=list(WORKLOAD_NAMES))
            cp.add_argument("--scale", type=int, default=1)
            cp.add_argument("--algorithm", default=SELECTIVE,
                            choices=list(registered_algorithms()))
            cp.add_argument(
                "--pfus",
                type=lambda s: None if s == "unlimited" else int(s),
                default=2,
            )
        elif client_cmd == "smoke":
            cp.add_argument("--clients", type=int, default=8,
                            help="concurrent client threads (default 8)")
            cp.add_argument("--requests", type=int, default=50,
                            help="total requests to issue (default 50)")
        elif client_cmd == "sweep":
            cp.add_argument("--points", type=int, default=16,
                            help="machine configs in the sweep "
                                 "(default 16)")

    explore_p = sub.add_parser(
        "explore",
        help="design-space exploration sweeps (see docs/explore.md)",
    )
    explore_sub = explore_p.add_subparsers(dest="explore_command",
                                           required=True)
    for explore_cmd, help_text in (
        ("run", "execute a sweep spec (warm artefacts are never re-run)"),
        ("resume", "continue an interrupted sweep (alias of run: warm "
                   "points are recognised from the store)"),
        ("status", "per-point progress of a sweep from its state file"),
        ("frontier", "Pareto frontier and best-config tables for a "
                     "completed sweep"),
    ):
        ep = explore_sub.add_parser(explore_cmd, help=help_text)
        ep.add_argument("spec", metavar="SPEC.json",
                        help="sweep spec file (JSON; see docs/explore.md)")
        if explore_cmd in ("run", "resume"):
            ep.add_argument(
                "--no-prune", action="store_true",
                help="simulate every point, even dominated ones",
            )
            ep.add_argument(
                "--connect", default=None, metavar="HOST:PORT",
                help="execute points on a running 't1000 serve' instance "
                "instead of the local engine",
            )
            ep.add_argument("--out", default=None, metavar="DIR",
                            help="write frontier.json and points.csv here")
            _add_engine_flags(ep)
        elif explore_cmd == "status":
            ep.add_argument(
                "--cache-dir",
                default=os.environ.get("T1000_CACHE_DIR") or None,
                help="artifact-store directory holding the sweep state "
                "(default $T1000_CACHE_DIR)",
            )
        else:   # frontier
            ep.add_argument(
                "--out", default=None, metavar="DIR",
                help="write frontier.json and points.csv here",
            )
            ep.add_argument(
                "--verify", action="store_true",
                help="re-run the sweep unpruned and check the frontier's "
                "non-dominated set is exactly the same",
            )
            _add_engine_flags(ep)
        _add_obs_flags(ep)

    cache_p = sub.add_parser(
        "cache", help="inspect or maintain the persistent artifact store"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for cache_cmd, help_text in (
        ("stats", "artefact counts, sizes, and cumulative hit/miss counters"),
        ("clear", "delete every cached artefact and counter"),
        ("gc", "evict artefacts by age and LRU size budget"),
    ):
        cp = cache_sub.add_parser(cache_cmd, help=help_text)
        cp.add_argument(
            "--cache-dir", default=os.environ.get("T1000_CACHE_DIR") or None,
            help="artifact-store directory (default $T1000_CACHE_DIR)",
        )
        if cache_cmd == "gc":
            cp.add_argument("--max-bytes", type=int, default=None,
                            help="evict least-recently-used artefacts "
                            "until the store fits this many bytes")
            cp.add_argument("--max-age-days", type=float, default=None,
                            help="evict artefacts not accessed within "
                            "this many days")
        _add_obs_flags(cp)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _main(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped through ``head``): exit quietly,
        # reopening stdout on devnull so interpreter teardown cannot
        # raise while flushing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(args) -> int:
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not (trace_out or metrics_out):
        return _dispatch(args)

    import repro.obs as obs

    recorder = obs.enable()
    try:
        return _dispatch(args)
    finally:
        obs.disable()
        if metrics_out:
            n = obs.export_jsonl(recorder, metrics_out)
            print(f"wrote {n} observability row(s) to {metrics_out}",
                  file=sys.stderr)
        if trace_out:
            n = obs.export_trace_events(recorder, trace_out)
            print(f"wrote {n} trace event(s) to {trace_out}",
                  file=sys.stderr)


def _dispatch(args) -> int:
    if args.command == "fig2":
        engine = _engine_from_args(args)
        headers, rows = figures.fig2_greedy(
            args.scale, tuple(args.workloads), engine=engine
        )
        print("Figure 2 — speedups with the greedy selection algorithm")
        print(format_table(headers, rows))
        _finish(engine, args)
    elif args.command == "fig6":
        engine = _engine_from_args(args)
        headers, rows = figures.fig6_selective(
            args.scale, tuple(args.workloads), engine=engine
        )
        print("Figure 6 — speedups with the selective algorithm (10-cycle reconfig)")
        print(format_table(headers, rows))
        _finish(engine, args)
    elif args.command == "fig7":
        engine = _engine_from_args(args)
        dist = figures.fig7_area(args.scale, tuple(args.workloads),
                                 args.select_pfus, engine=engine)
        print("Figure 7 — LUT-cost distribution of selected extended instructions")
        print(dist.render())
        print(f"max LUTs: {dist.max_luts}")
        _finish(engine, args)
    elif args.command == "stats":
        engine = _engine_from_args(args)
        headers, rows = figures.greedy_stats(
            args.scale, tuple(args.workloads), engine=engine
        )
        print("Greedy selection statistics (§4.1)")
        print(format_table(headers, rows))
        _finish(engine, args)
    elif args.command == "sweep-reconfig":
        engine = _engine_from_args(args)
        headers, rows = figures.reconfig_sweep(
            args.scale, tuple(args.workloads), engine=engine
        )
        print("Selective speedup vs reconfiguration latency (2 PFUs, §5.2)")
        print(format_table(headers, rows))
        _finish(engine, args)
    elif args.command == "sweep-pfu":
        engine = _engine_from_args(args)
        headers, rows = figures.pfu_sweep(
            args.scale, tuple(args.workloads), engine=engine
        )
        print("Selective speedup vs PFU count (10-cycle reconfig, §5.2)")
        print(format_table(headers, rows))
        _finish(engine, args)
    elif args.command == "algorithms":
        print(_render_algorithms())
    elif args.command == "compare-selectors":
        engine = _engine_from_args(args)
        headers, rows, shortfalls = figures.selector_comparison(
            args.scale, tuple(args.workloads),
            latencies=tuple(args.latencies), n_pfus=args.pfus,
            engine=engine,
        )
        print(f"Estimated cycles saved per selector "
              f"({args.pfus} PFUs; reconfiguration latencies "
              f"{', '.join(str(latency) for latency in args.latencies)})")
        print(format_table(headers, rows))
        for workload, latency, got, best, winners in shortfalls:
            print(f"shortfall: {workload} @ reconf={latency}: "
                  f"isegen saved {got}, {winners} saved {best}",
                  file=sys.stderr)
        _finish(engine, args)
        if args.check and shortfalls:
            return 1
    elif args.command == "profile":
        from repro.profiling.report import full_report

        engine = _engine_from_args(args)
        lab = WorkloadLab(args.workload, args.scale,
                          pipeline=engine.pipeline)
        print(full_report(lab.profile))
        _finish(engine, args)
    elif args.command == "report":
        engine = _engine_from_args(args)
        _write_full_report(args.out, args.scale, engine)
        _finish(engine, args)
    elif args.command == "fuzz":
        from repro.fuzz import replay, run_campaign

        if args.replay_seed is not None:
            if args.flavor not in ("asm", "minic"):
                print("t1000 fuzz: --replay-seed needs --flavor asm or "
                      "minic (the flavor the failure report printed)",
                      file=sys.stderr)
                return 2
            result = replay(args.replay_seed, args.flavor)
        else:
            result = run_campaign(args.programs, args.seed, args.flavor)
        print(result.summary())
        for failure in result.failures:
            print(f"\nFAILURE (seed {failure['seed']}, {failure['flavor']}):")
            print(failure["error"])
            print(failure["source"])
            print(f"reproduce with: t1000 fuzz "
                  f"--replay-seed {failure['seed']} "
                  f"--flavor {failure['flavor']}")
        return 0 if result.ok else 1
    elif args.command == "pipeview":
        from repro.sim.functional import FunctionalSimulator
        from repro.sim.ooo import MachineConfig, OoOSimulator
        from repro.sim.ooo.timeline import render_timeline, timeline_summary

        engine = _engine_from_args(args)
        lab = WorkloadLab(args.workload, args.scale,
                          pipeline=engine.pipeline)
        if args.algorithm == BASELINE:
            program, defs = lab.program, None
        else:
            program, defs = lab.rewritten(args.algorithm, args.pfus)
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True
        ).trace
        skip = min(args.skip, max(0, len(trace) - args.count))
        machine = MachineConfig(n_pfus=args.pfus)
        stats = OoOSimulator(program, machine, ext_defs=defs).simulate(
            trace, record_window=(skip, skip + args.count)
        )
        print(render_timeline(stats.timeline, program))
        print()
        for stage, value in timeline_summary(stats.timeline).items():
            print(f"avg {stage:>20}: {value:.2f} cycles")
        _finish(engine, args)
    elif args.command == "select":
        from repro.extinst.serialize import save_selection

        engine = _engine_from_args(args)
        [selection] = engine.select_batch(
            [(args.workload, args.scale, args.algorithm, args.pfus)]
        )
        save_selection(selection, args.output)
        print(f"wrote {selection.n_configs} configuration(s) / "
              f"{len(selection.sites)} site(s) to {args.output}")
        _finish(engine, args)
    elif args.command == "run":
        engine = _engine_from_args(args)
        if args.selection is not None:
            lab = WorkloadLab(args.workload, args.scale,
                              pipeline=engine.pipeline)
            result = _run_with_selection_file(lab, args)
        else:
            spec = make_spec(args.workload, args.algorithm, args.pfus,
                             args.reconfig, scale=args.scale)
            result = engine.run(spec)
        print(f"{args.workload} / {args.algorithm} / "
              f"pfus={args.pfus} / reconfig={args.reconfig}")
        print(f"speedup over baseline: {result.speedup:.3f}")
        print(result.stats.summary())
        _finish(engine, args)
    elif args.command == "metrics":
        import json

        from repro.obs import load_jsonl, render_metrics_report

        datasets = []
        for path in args.files:
            try:
                datasets.append(load_jsonl(path))
            except OSError as exc:
                print(f"t1000 metrics report: cannot read {path}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return 2
            except (json.JSONDecodeError, ValueError) as exc:
                print(f"t1000 metrics report: {path} is not a metrics "
                      f"JSONL export: {exc}", file=sys.stderr)
                return 2
        print(render_metrics_report(datasets, top=args.top))
    elif args.command == "serve":
        return _serve_command(args)
    elif args.command == "gateway":
        return _gateway_command(args)
    elif args.command == "client":
        return _client_command(args)
    elif args.command == "explore":
        return _explore_command(args)
    elif args.command == "cache":
        return _cache_command(args)
    return 0


def _render_algorithms() -> str:
    """``t1000 algorithms`` — registry-driven selector listing."""
    lines = []
    for spec in selector_specs():
        lines.append(f"{spec.name}")
        lines.append(f"    {spec.description}")
        budget = ("plans for a --pfus budget" if spec.uses_select_pfus
                  else "ignores --pfus (selects everything)")
        latency = ("re-selects per reconfiguration latency"
                   if spec.latency_aware
                   else "selection independent of reconfiguration latency")
        lines.append(f"    {budget}; {latency}")
        if spec.tunables:
            lines.append("    tunables:")
            for tunable in spec.tunables:
                lines.append(f"        {tunable.name} "
                             f"(default {tunable.default!r}) — {tunable.doc}")
        lines.append("")
    return "\n".join(lines).rstrip()


def _serve_command(args) -> int:
    """``t1000 serve`` — run the toolflow service until SIGTERM/SIGINT."""
    from repro.serve import ServeConfig, serve_forever

    cache_dir = (os.path.expanduser(args.cache_dir)
                 if args.cache_dir else None)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        default_timeout_ms=args.timeout_ms,
        worker_max_requests=args.worker_max_requests,
        cache_dir=cache_dir,
        debug_ops=args.debug_ops,
    )
    serve_forever(config)
    return 0


def _gateway_command(args) -> int:
    """``t1000 gateway run|status|drain``."""
    if args.gateway_command == "run":
        return _gateway_run(args)

    import json

    from repro.serve import protocol
    from repro.serve.client import ServeClient

    try:
        with ServeClient(args.connect, timeout=args.timeout) as client:
            if args.gateway_command == "status":
                print(json.dumps(client.stats(), indent=2, sort_keys=True,
                                 default=str))
            else:   # drain
                print(json.dumps(client.call("drain"), indent=2,
                                 sort_keys=True))
    except protocol.ServeError as exc:
        print(f"t1000 gateway: {exc}", file=sys.stderr)
        return 2
    return 0


def _gateway_run(args) -> int:
    """Spawn the backend fleet (unless ``--attach``), then serve."""
    from repro.gateway import FleetController, Gateway, GatewayConfig
    from repro.gateway.server import gateway_forever

    attached = tuple(
        address for address in (args.attach or "").split(",") if address
    )
    fleet = None
    spawned: tuple[str, ...] = ()
    if not attached:
        cache_dir = (os.path.expanduser(args.cache_dir)
                     if args.cache_dir else None)
        fleet = FleetController(
            workers=args.workers, cache_dir=cache_dir, host=args.host,
        )
        spawned = tuple(fleet.spawn() for _ in range(args.backends))
    config = GatewayConfig(
        host=args.host, port=args.port,
        backends=spawned + attached,
        default_timeout_ms=args.timeout_ms,
        min_backends=args.backends,
        max_backends=max(args.backends, args.max_backends),
    )
    gateway = Gateway(config)
    gateway.fleet = fleet
    gateway.autoscale = fleet is not None and not args.no_autoscale
    try:
        return gateway_forever(gateway)
    finally:
        if fleet is not None:
            fleet.drain_all()


def _client_command(args) -> int:
    """``t1000 client health|stats|run|smoke|sweep``."""
    import json

    from repro.serve import protocol
    from repro.serve.client import ServeClient

    try:
        with ServeClient(args.connect, timeout=args.timeout) as client:
            if args.client_command == "health":
                print(json.dumps(client.health(), indent=2, sort_keys=True))
            elif args.client_command == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            elif args.client_command == "run":
                return _client_run(client, args)
            elif args.client_command == "smoke":
                from repro.serve.loadtest import run_smoke

                report = run_smoke(args.connect, clients=args.clients,
                                   requests=args.requests,
                                   timeout=args.timeout)
                print(report.summary())
                for line in report.mismatches:
                    print(f"  {line}", file=sys.stderr)
                return 0 if report.passed else 1
            elif args.client_command == "sweep":
                from repro.serve.loadtest import run_sweep

                sweep = run_sweep(args.connect, points=args.points,
                                  timeout=args.timeout)
                print(sweep.summary())
                for line in sweep.mismatches:
                    print(f"  {line}", file=sys.stderr)
                return 0 if sweep.passed else 1
    except protocol.ServeError as exc:
        print(f"t1000 client: {exc}", file=sys.stderr)
        return 2
    return 0


def _client_run(client, args) -> int:
    """Drive the five-op toolflow through the service for one workload."""
    program = client.call_with_backoff("compile", {
        "workload": args.workload, "scale": args.scale,
    })
    baseline = client.simulate(program=program)
    profile = client.profile(program=program)
    selection = client.select(profile=profile, algorithm=args.algorithm,
                              pfus=args.pfus)
    rewritten, defs = client.rewrite(program=program, selection=selection)
    stats = client.simulate(program=rewritten, ext_defs=defs)
    speedup = baseline.cycles / stats.cycles if stats.cycles else 0.0
    print(f"{args.workload} / {args.algorithm} / pfus={args.pfus} "
          f"(via {args.connect})")
    print(f"baseline cycles: {baseline.cycles}")
    print(f"rewritten cycles: {stats.cycles}")
    print(f"speedup over baseline: {speedup:.3f}")
    return 0


def _print_explore_tables(results) -> None:
    from repro.explore import best_table, frontier_table

    headers, rows = frontier_table(results)
    print("Pareto frontier — speedup vs LUT area")
    print(format_table(headers, rows))
    headers, rows = best_table(results)
    print()
    print("Best configuration per workload")
    print(format_table(headers, rows))


def _explore_export(report, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "frontier.json")
    csv_path = os.path.join(out_dir, "points.csv")
    with open(json_path, "w") as fh:
        fh.write(report.to_json_str() + "\n")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    print(f"wrote {json_path} and {csv_path}")


def _explore_command(args) -> int:
    """``t1000 explore run|resume|status|frontier`` (docs/explore.md)."""
    from repro.errors import ReproError
    from repro.explore import (
        ParetoReport,
        SweepSpec,
        SweepState,
        frontier_pairs,
        run_sweep,
    )

    try:
        spec = SweepSpec.load(args.spec)
    except ReproError as exc:
        print(f"t1000 explore: {exc}", file=sys.stderr)
        return 2

    if args.explore_command in ("run", "resume"):
        engine = _engine_from_args(args)
        client = None
        if args.connect:
            from repro.serve.client import ServeClient

            # Sweep traffic through a gateway yields to interactive
            # callers; plain backends ignore the class tag.
            client = ServeClient(args.connect, admission_class="sweep")
        try:
            outcome = run_sweep(
                spec, engine,
                prune=False if args.no_prune else None,
                client=client,
            )
        finally:
            if client is not None:
                client.close()
        for line in outcome.log_lines:
            print(line)
        print()
        _print_explore_tables(outcome.results)
        if outcome.state_path:
            print(f"state: {outcome.state_path}")
        if args.out:
            _explore_export(outcome.report(), args.out)
        _finish(engine, args)
        return 0

    # status / frontier work from the saved state, no simulation
    cache_dir = args.cache_dir
    if not cache_dir:
        print("t1000 explore: --cache-dir (or $T1000_CACHE_DIR) is needed "
              "to locate the sweep state", file=sys.stderr)
        return 2
    state = SweepState.load(os.path.expanduser(cache_dir), spec)
    if state is None:
        print(f"t1000 explore: no state for this spec under {cache_dir}; "
              "run 't1000 explore run' first", file=sys.stderr)
        return 2

    if args.explore_command == "status":
        print(state.summary())
        results = sorted(
            state.results.values(),
            key=lambda r: (r.workload, r.algorithm, r.area_luts, r.point_id),
        )
        headers = ["workload", "algorithm", "pfus", "reconfig", "speedup",
                   "status"]
        rows = [
            [r.workload, r.algorithm,
             "unl" if r.n_pfus is None else r.n_pfus,
             r.reconfig_latency, f"{r.speedup:.3f}", r.status]
            for r in results
        ]
        print(format_table(headers, rows))
        for record in state.skipped:
            print(f"pruned: {record['label']} dominated by "
                  f"{record['dominated_by_label']}")
        return 0

    # frontier
    results = list(state.results.values())
    _print_explore_tables(results)
    if args.out:
        _explore_export(
            ParetoReport(results=results, skipped=list(state.skipped)),
            args.out,
        )
    if args.verify:
        engine = _engine_from_args(args)
        unpruned = run_sweep(spec, engine, prune=False)
        expected = frontier_pairs(unpruned.results)
        actual = frontier_pairs(results)
        if actual == expected:
            print("frontier verified: non-dominated set matches the "
                  "unpruned run exactly")
        else:
            for workload in sorted(set(expected) | set(actual)):
                missing = expected.get(workload, set()) - actual.get(
                    workload, set())
                extra = actual.get(workload, set()) - expected.get(
                    workload, set())
                if missing or extra:
                    print(f"frontier mismatch for {workload}: "
                          f"missing {sorted(missing)}, extra {sorted(extra)}",
                          file=sys.stderr)
            return 1
        _finish(engine, args)
    return 0


def _cache_command(args) -> int:
    """The ``t1000 cache stats|clear|gc`` subcommands."""
    from repro.engine import Telemetry

    if not args.cache_dir:
        print("t1000 cache: no cache directory (pass --cache-dir or set "
              "T1000_CACHE_DIR)", file=sys.stderr)
        return 2
    # A telemetry sink bridges store counters into the observability
    # recorder, so --metrics-out captures the maintenance traffic too.
    # Inspecting a store must not create one: a typo'd --cache-dir should
    # say so, not materialise an empty cache and report zeros.
    from repro.errors import ConfigurationError

    try:
        store = ArtifactStore(os.path.expanduser(args.cache_dir),
                              telemetry=Telemetry(), create=False)
    except ConfigurationError as exc:
        print(f"t1000 cache {args.cache_command}: {exc} "
              "(pass --cache-dir pointing at an existing store, or run "
              "an experiment with --cache-dir first to create one)",
              file=sys.stderr)
        return 2
    if args.cache_command == "stats":
        print(store.stats().render())
    elif args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} file(s) from {store.root}")
    elif args.cache_command == "gc":
        summary = store.gc(max_bytes=args.max_bytes,
                           max_age_days=args.max_age_days)
        print(f"evicted {summary['removed']} artefact(s) "
              f"({summary['freed_bytes']} bytes); "
              f"{summary['kept']} artefact(s) kept")
    return 0


def _write_full_report(
    out_dir: str, scale: int, engine: ExperimentEngine | None = None
) -> None:
    """Regenerate Figures 2/6/7 and the §4.1/§5.2 tables into files."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    artefacts = [
        ("fig2_greedy.txt",
         "Figure 2 — greedy selection speedups",
         lambda: format_table(*figures.fig2_greedy(scale, engine=engine))),
        ("fig6_selective.txt",
         "Figure 6 — selective algorithm speedups (10-cycle reconfig)",
         lambda: format_table(*figures.fig6_selective(scale, engine=engine))),
        ("fig7_lut_distribution.txt",
         "Figure 7 — LUT-cost distribution (selective, 4 PFUs)",
         lambda: figures.fig7_area(scale, engine=engine).render()),
        ("greedy_stats.txt",
         "Greedy selection statistics (§4.1)",
         lambda: format_table(*figures.greedy_stats(scale, engine=engine))),
        ("reconfig_sweep.txt",
         "Selective speedup vs reconfiguration latency (2 PFUs, §5.2)",
         lambda: format_table(*figures.reconfig_sweep(scale, engine=engine))),
        ("pfu_sweep.txt",
         "Selective speedup vs PFU count (§5.2)",
         lambda: format_table(*figures.pfu_sweep(scale, engine=engine))),
    ]
    index_lines = [f"# T1000 report (scale {scale})", ""]
    for filename, title, render_fn in artefacts:
        body = f"{title}\n{render_fn()}\n"
        (out / filename).write_text(body)
        index_lines.append(f"- `{filename}` — {title}")
        print(f"wrote {out / filename}")
    (out / "INDEX.md").write_text("\n".join(index_lines) + "\n")
    print(f"wrote {out / 'INDEX.md'}")


def _run_with_selection_file(lab, args):
    """Apply a selection file (§3.1's second input) and simulate."""
    from repro.extinst import apply_selection, validate_equivalence
    from repro.extinst.serialize import load_selection
    from repro.harness.runner import ExperimentResult
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.ooo import MachineConfig, OoOSimulator

    selection = load_selection(args.selection)
    rewritten, defs = apply_selection(lab.program, selection)
    validate_equivalence(lab.program, rewritten, defs)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True
    ).trace
    machine = MachineConfig(n_pfus=args.pfus, reconfig_latency=args.reconfig)
    stats = OoOSimulator(rewritten, machine, ext_defs=defs).simulate(trace)
    base = lab.baseline()
    return ExperimentResult(
        workload=lab.name,
        algorithm=f"file:{args.selection}",
        n_pfus=args.pfus,
        reconfig_latency=args.reconfig,
        stats=stats,
        baseline_cycles=base.cycles,
        n_configs=selection.n_configs,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
