"""Record (or check) the benchmark ledger, ``BENCH_simulator.json``.

Every ledger entry is measured by exactly one source below, and by
nothing else: recording and checking run the same function. Each source
runs in its own fresh interpreter, so no reading depends on what ran
before it (a warm heap, loaded caches).

Default mode runs every source and writes the ledger at the repo root:
median seconds and ops/sec per entry, plus whatever else the source
reports, machine info and the git revision. Entries merge into the
existing file by name. ``--only SOURCE ...`` runs just those sources; it
leaves the file-level ``meta`` alone, and each entry it writes carries
its own ``git_sha``, ``recorded_at`` and ``cores``.

``--compare`` writes nothing: it runs the sources (all, or those named
by ``--only``) and checks each entry's ``median_s`` against the ledger
(``--out``, default the committed one). It exits non-zero if a median
regressed by more than ``--tolerance`` (default 30%), if an entry has
no ledger value, or, when every source ran, if a ledger entry has no
source (so removing a source means removing its entry too).
Improvements just print.

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py          # write ledger
    PYTHONPATH=src python benchmarks/record_bench.py --only native_replay
    PYTHONPATH=src python benchmarks/record_bench.py --compare
    PYTHONPATH=src python benchmarks/record_bench.py --compare --only simulator
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_simulator.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.asm import assemble  # noqa: E402
from repro.sim.functional import FunctionalSimulator  # noqa: E402
from repro.sim.ooo import MachineConfig, OoOSimulator, native  # noqa: E402

# a fixed medium-sized loop for the simulator-throughput entries
_KERNEL = (
    ".text\nmain: li $t9, 3000\nloop:\n"
    + "\n".join("    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9" for _ in range(4))
    + "\n    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
)


def _median_seconds(fn, repeats: int = 5) -> float:
    fn()  # warm caches (code tables, the trace's pre-pass)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _reference(fn):
    """``fn`` run with the native kernels disabled: on the reference
    loops."""
    def run():
        with native.disabled():
            return fn()
    return run


def _measure_simulator() -> dict:
    """The functional interpreter (untraced and traced) and the OoO
    timing model on :data:`_KERNEL`, fast path and reference loop."""
    program = assemble(_KERNEL)
    steps = FunctionalSimulator(program).run().steps
    trace = FunctionalSimulator(program).run(collect_trace=True).trace
    slow_cfg = dataclasses.replace(MachineConfig(), sim_fast_path=False)

    def run(**kwargs):
        return FunctionalSimulator(program).run(**kwargs)

    cases = {
        "test_functional_simulator_throughput": (
            run, _reference(run), steps,
        ),
        "test_functional_simulator_with_trace": (
            lambda: run(collect_trace=True),
            _reference(lambda: run(collect_trace=True)),
            steps,
        ),
        "test_ooo_simulator_throughput": (
            lambda: OoOSimulator(program, MachineConfig()).simulate(trace),
            lambda: OoOSimulator(program, slow_cfg).simulate(trace),
            len(trace),
        ),
    }
    benchmarks = {}
    for name, (fast, reference, ops) in cases.items():
        fast_s = _median_seconds(fast)
        ref_s = _median_seconds(reference)
        benchmarks[name] = {
            "median_s": round(fast_s, 6),
            "ops_per_s": round(ops / fast_s),
            "reference_median_s": round(ref_s, 6),
            "reference_ops_per_s": round(ops / ref_s),
            "speedup_vs_reference": round(ref_s / fast_s, 2),
        }
    return benchmarks


def _unepic_rewrite():
    """``unepic``@2 rewritten by a selective 2-PFU selection, and its
    trace (~194k instructions): ``perfbench``'s ``replay_grid`` trace."""
    from repro import api

    program = api.compile(workload="unepic", scale=2)
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True).trace
    return rewritten, defs, trace


def _measure_native_replay() -> dict:
    """One replay of the ``unepic``@2 selective 2-PFU trace on the
    default machine with the pre-pass cached, through the native kernel
    and the reference loop. Recording aborts unless the kernel is
    loaded and both paths answer alike."""
    from repro.sim.ooo import parallel

    if not native.available():
        raise SystemExit("native replay kernel unavailable (no C compiler?)")
    rewritten, defs, trace = _unepic_rewrite()

    def replay(config=MachineConfig()):
        return OoOSimulator(rewritten, config, ext_defs=defs).simulate(trace)

    slow_cfg = dataclasses.replace(MachineConfig(), sim_fast_path=False)
    if vars(replay()) != vars(replay(config=slow_cfg)):
        raise SystemExit("native and reference replays diverged")
    native_s = _median_seconds(replay)
    ref_s = _median_seconds(lambda: replay(config=slow_cfg), repeats=3)
    return {
        "test_ooo_replay_native": {
            "median_s": round(native_s, 6),
            "ops_per_s": round(len(trace) / native_s),
            "reference_median_s": round(ref_s, 6),
            "speedup_vs_reference": round(ref_s / native_s, 2),
            "instructions": len(trace),
            "cores": parallel.usable_cores(),
        },
    }


def _measure_native_prepass() -> dict:
    """One fetch/cache pre-pass of the ``unepic``@2 selective 2-PFU
    trace on the default hierarchy, through the native kernel and
    through ``build_prepass``. Recording aborts unless the kernel is
    loaded and the two pre-passes are equal field for field."""
    from repro.sim.ooo import parallel
    from repro.sim.ooo.prepass import build_prepass

    if not native.available():
        raise SystemExit("native pre-pass kernel unavailable (no C compiler?)")
    rewritten, defs, trace = _unepic_rewrite()
    config = MachineConfig()
    args = (OoOSimulator(rewritten, config, ext_defs=defs)._events,
            trace.indices, trace.addrs, config.hierarchy, config.fetch_width)
    built = native.prepass(*args)
    if built is None or \
            built._replace(fcyc=built.fcyc.tolist()) != build_prepass(*args):
        raise SystemExit("native and Python pre-passes diverged")
    native_s = _median_seconds(lambda: native.prepass(*args), repeats=15)
    python_s = _median_seconds(lambda: build_prepass(*args), repeats=7)
    return {
        "test_prepass_native": {
            "median_s": round(native_s, 6),
            "ops_per_s": round(len(trace) / native_s),
            "python_median_s": round(python_s, 6),
            "speedup_vs_python": round(python_s / native_s, 2),
            "instructions": len(trace),
            "cores": parallel.usable_cores(),
        },
    }


def _measure_native_functional() -> dict:
    """One traced functional run (construction included) of the
    ``unepic``@2 selective 2-PFU rewrite, as a sweep's validation runs
    it, through the native kernel and the reference loop. Recording
    aborts unless the kernel is loaded and the two runs are equal field
    for field."""
    from repro.fuzz import check_functional
    from repro.sim.ooo import parallel

    if not native.available():
        raise SystemExit("native functional kernel unavailable "
                         "(no C compiler?)")
    rewritten, defs, trace = _unepic_rewrite()
    try:
        check_functional(rewritten, defs)
    except AssertionError as exc:
        raise SystemExit(f"native and reference functional runs "
                         f"diverged: {exc}") from None

    def run():
        return FunctionalSimulator(rewritten, ext_defs=defs).run(
            collect_trace=True)

    native_s = _median_seconds(run, repeats=15)
    ref_s = _median_seconds(_reference(run), repeats=3)
    return {
        "test_functional_native": {
            "median_s": round(native_s, 6),
            "ops_per_s": round(len(trace) / native_s),
            "reference_median_s": round(ref_s, 6),
            "speedup_vs_reference": round(ref_s / native_s, 2),
            "instructions": len(trace),
            "cores": parallel.usable_cores(),
        },
    }


def _measure_explore_pruning() -> dict:
    """The sweep-pruning entry: points skipped and wall-clock saved.

    Runs ``bench_explore_pruning``'s grid in three rounds, each on a
    fresh artefact pipeline: an untimed pruned sweep warms it, then a
    pruned sweep is timed (every artefact warm) and an exhaustive one
    (which also simulates the points pruning skipped). The entry keeps
    each leg's median. Recording aborts unless the pruned frontier is
    byte-identical to the exhaustive one.
    """
    from repro.engine import ArtifactPipeline, EngineConfig, ExperimentEngine
    from repro.explore import SweepSpec, frontier_pairs, run_sweep

    spec = SweepSpec.from_json({
        "name": "bench-pruning",
        "workloads": ["gsm_encode"],
        "axes": {
            "algorithm": ["greedy", "selective"],
            "n_pfus": [1, 2],
            "reconfig_latency": [0, 10, 100, 500],
        },
    })

    def timed_sweep(pipeline, prune):
        engine = ExperimentEngine(EngineConfig())
        engine.pipeline = pipeline
        t0 = time.perf_counter()
        result = run_sweep(spec, engine, prune=prune)
        return result, time.perf_counter() - t0

    pruned_times, unpruned_times = [], []
    for _ in range(3):
        pipeline = ArtifactPipeline()
        timed_sweep(pipeline, True)
        pruned, pruned_t = timed_sweep(pipeline, True)
        unpruned, unpruned_t = timed_sweep(pipeline, False)
        if frontier_pairs(pruned.results) != frontier_pairs(unpruned.results):
            raise SystemExit("pruned sweep frontier diverged from exhaustive")
        pruned_times.append(pruned_t)
        unpruned_times.append(unpruned_t)
    pruned_s = statistics.median(pruned_times)
    unpruned_s = statistics.median(unpruned_times)

    return {
        "explore_pruning": {
            "median_s": round(pruned_s, 6),
            "ops_per_s": round(pruned.n_points / pruned_s, 2),
            "unpruned_median_s": round(unpruned_s, 6),
            "speedup_vs_unpruned": round(unpruned_s / pruned_s, 2),
            "points": pruned.n_points,
            "pruned_points": pruned.n_pruned,
            "pruned_fraction": round(
                pruned.n_pruned / pruned.n_points, 3
            ),
        },
    }


def _measure_explore_warm() -> dict:
    """The warm-sweep entry: a store-backed sweep over perfbench
    ``dse_sweep``'s grid (``gsm_encode`` + ``mpeg2_decode``, 52 points,
    pruning on), run cold once and then re-run warm, each warm run with a
    fresh engine on the same store, as ``explore resume`` does.

    The entry keeps the median of the warm runs and the store gets of
    one of them by artefact kind (deterministic: a warm sweep reads each
    workload's program fingerprint, and a warm point its timings and its
    selection, nothing else) plus the scheduler jobs it ran and the
    workloads it built. Recording aborts unless every warm run simulates
    nothing and reports the cold run's rows.
    """
    import gc
    from collections import Counter

    from repro.engine import (
        ArtifactStore, EngineConfig, ExperimentEngine, Scheduler,
    )
    from repro.engine import pipeline as pipeline_module
    from repro.explore import SweepSpec, run_sweep

    spec = SweepSpec.from_json({
        "name": "bench-explore-warm",
        "workloads": ["gsm_encode", "mpeg2_decode"],
        "scale": 1, "mode": "grid", "prune": True,
        "axes": {
            "algorithm": ["selective", "isegen"],
            "n_pfus": [2, None],
            "reconfig_latency": [10, 100, 500],
            "ruu_size": [32, 64],
        },
    })

    def rows(outcome):
        return [{**r.to_json(), "status": None} for r in outcome.results]

    gets: Counter = Counter()
    jobs, builds = [], []
    real_get, real_run = ArtifactStore.get, Scheduler.run
    real_build = pipeline_module.build_workload

    def counting_get(self, key):
        gets[key.kind] += 1
        return real_get(self, key)

    def counting_run(self, graph, runner):
        jobs.append(len(graph))
        return real_run(self, graph, runner)

    def counting_build(name, scale=1):
        builds.append((name, scale))
        return real_build(name, scale)

    with tempfile.TemporaryDirectory() as cache_dir:
        def sweep():
            engine = ExperimentEngine(EngineConfig(jobs=1,
                                                   cache_dir=cache_dir))
            return run_sweep(spec, engine)

        cold = sweep()
        ArtifactStore.get, Scheduler.run = counting_get, counting_run
        pipeline_module.build_workload = counting_build
        try:
            warm = sweep()
        finally:
            ArtifactStore.get, Scheduler.run = real_get, real_run
            pipeline_module.build_workload = real_build
        times = []
        for _ in range(7):
            gc.collect()
            t0 = time.perf_counter()
            again = sweep()
            times.append(time.perf_counter() - t0)
            if again.n_simulated or rows(again) != rows(cold):
                raise SystemExit("warm sweep simulated or differs from cold")
    median_s = statistics.median(times)
    return {
        "explore_warm": {
            "median_s": round(median_s, 6),
            "ops_per_s": round(warm.n_points / median_s, 2),
            "rounds": len(times),
            "points": warm.n_points,
            "warm_points": warm.n_warm,
            "store_gets": dict(sorted(gets.items())),
            "scheduler_jobs": sum(jobs),
            "workload_builds": len(builds),
        },
    }


def _measure_selection() -> dict:
    """The selector-runtime entry: wall-clock of every registered
    selection algorithm on the same profiled workload (gsm_encode,
    2-PFU budget).

    One entry, one sub-row per algorithm — the quantity of record is
    how much slower the iterative selectors are than greedy, so a
    future algorithmic regression (e.g. an accidental re-fold inside
    the KL loop) shows up as a runtime cliff here. No program analysis
    is passed, so every call builds and fills a fresh one: the entry
    times whole selections, never a memo hit.
    """
    from repro.extinst import SelectionParams, run_selection
    from repro.extinst.registry import registered_algorithms
    from repro.profiling import profile_program
    from repro.workloads import build_workload

    profile = profile_program(build_workload("gsm_encode", 1).program)
    entry: dict = {"workload": "gsm_encode", "select_pfus": 2,
                   "algorithms": {}}
    total_s = 0.0
    for algorithm in registered_algorithms():
        params = SelectionParams(algorithm=algorithm, select_pfus=2)
        median_s = _median_seconds(lambda: run_selection(profile, params))
        selection = run_selection(profile, params)
        entry["algorithms"][algorithm] = {
            "median_s": round(median_s, 6),
            "n_configs": selection.n_configs,
            "n_sites": len(selection.sites),
        }
        total_s += median_s
    entry["median_s"] = round(total_s, 6)
    entry["ops_per_s"] = round(len(entry["algorithms"]) / total_s, 2)
    return {"selector_runtime": entry}


def _measure_wire_framing() -> dict:
    """The serve wire-format entry: bytes per simulate request and sweep
    throughput, digest-addressed frames vs the legacy pickle envelopes.

    Mirrors ``bench_wire_framing``: one client pipelines a 16-point
    machine-config sweep against an in-process server twice — once
    through a :class:`~repro.serve.client.TraceRef` (the program bundle
    ships once, every point is a by-reference request) and once with a
    plain ``program=`` (every request re-ships the pickled program).
    Recording aborts unless the two legs are byte-identical and the
    framed leg sends at least 3x fewer bytes per request.
    """
    import json as json_mod

    from repro import api
    from repro.engine.store import stats_to_json
    from repro.serve import ServeConfig, ToolflowServer
    from repro.serve.client import ServeClient

    source = (
        ".text\nmain: li $s0, 8000\n    li $t1, 3\nloop:\n"
        "    sll $t2, $t1, 4\n    addu $t2, $t2, $t1\n"
        "    andi $t2, $t2, 1023\n    xor $t3, $t2, $t1\n"
        "    andi $t1, $t3, 255\n    addiu $t1, $t1, 1\n"
        "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n    halt\n"
    )
    points = 16
    grid = [api.MachineConfig(ruu_size=16 + 8 * i) for i in range(points)]
    program = api.compile(source=source, name="wire_bench")

    def canonical(stats):
        return json_mod.dumps(stats_to_json(stats), sort_keys=True)

    def sweep(client, payload):
        sent = client.bytes_sent
        t0 = time.perf_counter()
        pending = [client.simulate_submit(program=payload, machine=machine)
                   for machine in grid]
        answers = [canonical(call.result()) for call in pending]
        return answers, client.bytes_sent - sent, time.perf_counter() - t0

    with ToolflowServer(ServeConfig(workers=2, max_queue=256)) as server:
        with ServeClient(server.address, timeout=120.0) as client:
            client.wait_ready()
            ref = client.trace_ref(program=program)
            client.simulate(program=ref, machine=grid[0])   # warmup
            framed, framed_bytes, _ = sweep(client, ref)
            framed_s = _median_seconds(
                lambda: sweep(client, ref), repeats=3)
        with ServeClient(server.address, timeout=120.0) as client:
            client.simulate(program=program, machine=grid[0])
            inline, inline_bytes, _ = sweep(client, program)
            inline_s = _median_seconds(
                lambda: sweep(client, program), repeats=3)

    if framed != inline:
        raise SystemExit("framed sweep responses diverged from inline")
    reduction = inline_bytes / framed_bytes
    if reduction < 3.0:
        raise SystemExit(
            f"framed sweep sent only {reduction:.1f}x fewer bytes per "
            f"request than the pickle path (expected >= 3x)"
        )
    return {
        "wire_framing": {
            "median_s": round(framed_s, 6),
            "ops_per_s": round(points / framed_s, 2),
            "pickle_median_s": round(inline_s, 6),
            "pickle_ops_per_s": round(points / inline_s, 2),
            "bytes_per_request": round(framed_bytes / points),
            "pickle_bytes_per_request": round(inline_bytes / points),
            "bytes_reduction": round(reduction, 2),
            "points": points,
            "cores": os.cpu_count() or 1,
        },
    }


def _measure_gateway_fleet() -> dict:
    """The multi-node serving entry: pipelined simulate throughput
    through one gateway fronting two real backend subprocesses, against
    one backend.

    ``loadtest.run_throughput`` cycles the requests over distinct
    programs, so the gateway's consistent-hash ring spreads them across
    the fleet. Each fleet serves one warm-up round (every backend's
    trace memo) and then five timed rounds; the entry keeps the median.
    The scaling factor is recorded, not asserted: on a 1-core host two
    backends time-slice one core. Recording aborts if any round loses
    or fails a request.
    """
    from repro.gateway import FleetController, Gateway, GatewayConfig
    from repro.serve import loadtest
    from repro.serve.client import ServeClient
    from repro.sim.ooo import parallel

    clients, requests, programs = 4, 48, 8

    def fleet_median(n_backends: int) -> "loadtest.ThroughputPoint":
        fleet = FleetController(workers=2)
        try:
            names = [fleet.spawn() for _ in range(n_backends)]
            gateway = Gateway(GatewayConfig(backends=names))
            gateway.start()
            try:
                with ServeClient(gateway.address, timeout=60.0) as client:
                    client.wait_ready(timeout=30.0)
                points = [
                    loadtest.run_throughput(
                        gateway.address, clients=clients, requests=n,
                        distinct_programs=programs)
                    for n in (programs,) + (requests,) * 5
                ][1:]
            finally:
                gateway.stop()
        finally:
            fleet.drain_all()
        for point in points:
            if point.errors or point.ok != requests:
                raise SystemExit(f"gateway fleet lost requests: "
                                 f"{point.summary()}")
        return sorted(points, key=lambda p: p.seconds)[len(points) // 2]

    single, double = fleet_median(1), fleet_median(2)
    return {
        "gateway_fleet_throughput": {
            "median_s": round(double.seconds, 6),
            "ops_per_s": round(double.rps, 2),
            "single_backend_median_s": round(single.seconds, 6),
            "single_backend_ops_per_s": round(single.rps, 2),
            "speedup_vs_single_backend": round(double.rps / single.rps, 2),
            "backends": 2,
            "clients": clients,
            "requests": requests,
            "distinct_programs": programs,
            "cores": parallel.usable_cores(),
        },
    }


#: source name -> function measuring its entries
SOURCES = {
    "simulator": _measure_simulator,
    "native_replay": _measure_native_replay,
    "native_prepass": _measure_native_prepass,
    "native_functional": _measure_native_functional,
    "explore_pruning": _measure_explore_pruning,
    "explore_warm": _measure_explore_warm,
    "selector_runtime": _measure_selection,
    "wire_framing": _measure_wire_framing,
    "gateway_fleet": _measure_gateway_fleet,
}


def _measure_in_child(name: str) -> dict:
    """The entries of source ``name``, measured in a fresh interpreter
    that writes them to a temporary file. A source that aborts ends
    recording with its exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "entries.json"
        code = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import record_bench\n"
            "entries = record_bench.SOURCES[sys.argv[2]]()\n"
            "open(sys.argv[3], 'w').write(json.dumps(entries))\n"
        )
        done = subprocess.run([sys.executable, "-c", code,
                               str(Path(__file__).parent), name, str(out)])
        if done.returncode:
            raise SystemExit(f"source {name} failed "
                             f"(exit status {done.returncode})")
        return json.loads(out.read_text())


def measure(sources=None) -> dict:
    benchmarks = {}
    for name in sources or SOURCES:
        benchmarks.update(_measure_in_child(name))
    return benchmarks


def _git_sha() -> str:
    """HEAD's sha, suffixed ``-dirty`` when the working tree has
    uncommitted changes (numbers recorded before a commit would
    otherwise carry the parent's sha)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        return sha + "-dirty" if git("status", "--porcelain") else sha
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_baseline(path: Path, only=None) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {
        "benchmarks": {}}
    meta = {
        "git_sha": _git_sha(),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cores": os.cpu_count() or 1,
    }
    measured = measure(only)
    if only:
        for row in measured.values():
            row.setdefault("cores", meta["cores"])
            row["git_sha"] = meta["git_sha"]
            row["recorded_at"] = meta["recorded_at"]
    else:
        doc["meta"] = meta
    doc["benchmarks"].update(measured)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    for name, row in measured.items():
        speedups = "".join(
            f", {value}x vs {key.removeprefix('speedup_vs_')}"
            for key, value in row.items() if key.startswith("speedup_vs_")
        )
        print(f"  {name}: median {row['median_s'] * 1e3:.2f}ms, "
              f"{row['ops_per_s']:,} ops/s{speedups}")


def compare(path: Path, tolerance: float, only=None) -> int:
    ledger = json.loads(path.read_text())["benchmarks"]
    measured = measure(only)
    failures = 0
    for name, row in measured.items():
        new = row["median_s"]
        if name not in ledger:
            print(f"  {name}: median {new * 1e3:.2f}ms, NOT IN {path.name}")
            failures += 1
            continue
        base = ledger[name]["median_s"]
        change = new / base - 1.0
        status = "ok"
        if change > tolerance:
            status = f"REGRESSION (> {tolerance:.0%} allowed)"
            failures += 1
        print(
            f"  {name}: median {new * 1e3:.2f}ms vs ledger "
            f"{base * 1e3:.2f}ms ({change:+.1%}) {status}"
        )
    # an entry no source measures has silently stopped being gated
    if only is None:
        for name in sorted(set(ledger) - set(measured)):
            print(f"  {name}: NO SOURCE measures this entry")
            failures += 1
    if failures:
        print(f"{failures} entry(ies) regressed beyond {tolerance:.0%}, "
              f"unrecorded or without a source")
        return 1
    print("all entries within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", action="store_true",
        help="check the measured medians against the ledger, write nothing",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed median regression fraction (default 0.30)",
    )
    parser.add_argument(
        "--out", type=Path, default=BASELINE,
        help=f"ledger to write or compare against (default {BASELINE})",
    )
    parser.add_argument(
        "--only", nargs="+", choices=sorted(SOURCES), default=None,
        help="run only these sources (entries merge by name)",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.out, args.tolerance, args.only)
    write_baseline(args.out, args.only)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
