"""Record (or check) the simulator-throughput baseline.

Default mode measures every source below and writes
``BENCH_simulator.json`` at the repo root: median seconds and ops/sec
per benchmark, the fast/reference speedup ratio, plus machine info and
the git revision. Entries merge into the existing file by name, so an
entry no source produces is kept. ``--only SOURCE ...`` measures just
those sources; it leaves the file-level ``meta`` alone, and each entry
it writes carries its own ``git_sha``, ``recorded_at`` and ``cores``.
The committed file is the perf baseline CI regresses against.

``--compare RESULTS.json`` takes a ``pytest-benchmark --benchmark-json``
export, compares each benchmark's median against the committed baseline,
and exits non-zero if any median regressed by more than ``--tolerance``
(default 30%) or if a committed ``test_*`` baseline entry has no result
in the export. Only regressions and missing benchmarks fail;
improvements just print.

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py          # write baseline
    PYTHONPATH=src python benchmarks/record_bench.py --only native_replay
    PYTHONPATH=src python benchmarks/record_bench.py --only native_prepass
    PYTHONPATH=src python benchmarks/record_bench.py --only native_functional
    PYTHONPATH=src python benchmarks/record_bench.py --compare out.json
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
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_simulator.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.asm import assemble  # noqa: E402
from repro.sim.functional import FunctionalSimulator  # noqa: E402
from repro.sim.ooo import MachineConfig, OoOSimulator  # noqa: E402

# the same kernel bench_simulator_perf benchmarks (keep in sync)
_KERNEL = (
    ".text\nmain: li $t9, 3000\nloop:\n"
    + "\n".join("    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9" for _ in range(4))
    + "\n    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
)


def _median_seconds(fn, repeats: int = 5) -> float:
    fn()  # warm caches (compiled blocks, dense-pass artefacts)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _measure_simulator() -> dict:
    """The three ``bench_simulator_perf`` kernels, fast and reference."""
    program = assemble(_KERNEL)
    steps = FunctionalSimulator(program).run().steps
    trace = FunctionalSimulator(program).run(collect_trace=True).trace
    slow_cfg = dataclasses.replace(MachineConfig(), sim_fast_path=False)

    cases = {
        "test_functional_simulator_throughput": (
            lambda: FunctionalSimulator(program).run(),
            lambda: FunctionalSimulator(program, compile_blocks=False).run(),
            steps,
        ),
        "test_functional_simulator_with_trace": (
            lambda: FunctionalSimulator(program).run(collect_trace=True),
            lambda: FunctionalSimulator(
                program, compile_blocks=False
            ).run(collect_trace=True),
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
    trace: ``bench_simulator_perf``'s ``unepic_rewrite`` (keep in sync)."""
    from repro import api

    program = api.compile(workload="unepic", scale=2)
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True).trace
    return rewritten, defs, trace


def _measure_native_replay() -> dict:
    """``bench_simulator_perf.test_ooo_replay_native``: one replay of the
    ``unepic``@2 selective 2-PFU trace on the default machine with the
    pre-pass cached, through the native kernel, the generated Python
    loop and the reference loop. Recording aborts unless all three
    answer alike and the kernel is loaded."""
    from repro.sim.ooo import native, parallel

    if not native.available():
        raise SystemExit("native replay kernel unavailable (no C compiler?)")
    rewritten, defs, trace = _unepic_rewrite()

    def replay(config=MachineConfig()):
        return OoOSimulator(rewritten, config, ext_defs=defs).simulate(trace)

    slow_cfg = dataclasses.replace(MachineConfig(), sim_fast_path=False)
    with native.disabled():
        loop = replay()
        loop_s = _median_seconds(replay)
    if not vars(replay()) == vars(loop) == vars(replay(slow_cfg)):
        raise SystemExit("native, Python and reference replays diverged")
    native_s = _median_seconds(replay)
    ref_s = _median_seconds(lambda: replay(slow_cfg), repeats=3)
    return {
        "test_ooo_replay_native": {
            "median_s": round(native_s, 6),
            "ops_per_s": round(len(trace) / native_s),
            "python_fast_median_s": round(loop_s, 6),
            "reference_median_s": round(ref_s, 6),
            "speedup_vs_python_fast": round(loop_s / native_s, 2),
            "speedup_vs_reference": round(ref_s / native_s, 2),
            "instructions": len(trace),
            "cores": parallel.usable_cores(),
        },
    }


def _measure_native_prepass() -> dict:
    """``bench_simulator_perf.test_prepass_native``: one fetch/cache
    pre-pass of the ``unepic``@2 selective 2-PFU trace on the default
    hierarchy, through the native kernel and through ``build_prepass``.
    Recording aborts unless the kernel is loaded and the two pre-passes
    are equal field for field."""
    from repro.sim.ooo import native, parallel
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
    """``bench_simulator_perf.test_functional_native``: one traced
    functional run (construction included) of the ``unepic``@2 selective
    2-PFU rewrite, through the native kernel, the block-compiled
    interpreter and the reference loop. Recording aborts unless the
    kernel is loaded and the three runs are equal field for field."""
    from repro.fuzz import check_functional
    from repro.sim.ooo import native, parallel

    if not native.available():
        raise SystemExit("native functional kernel unavailable "
                         "(no C compiler?)")
    rewritten, defs, trace = _unepic_rewrite()
    try:
        check_functional(rewritten, defs)
    except AssertionError as exc:
        raise SystemExit(f"native, block-compiled and reference functional "
                         f"runs diverged: {exc}") from None

    def run(compile_blocks=None):
        return FunctionalSimulator(
            rewritten, ext_defs=defs, compile_blocks=compile_blocks
        ).run(collect_trace=True)

    native_s = _median_seconds(run, repeats=15)
    with native.disabled():
        blocks_s = _median_seconds(run)
    ref_s = _median_seconds(lambda: run(False), repeats=3)
    return {
        "test_functional_native": {
            "median_s": round(native_s, 6),
            "ops_per_s": round(len(trace) / native_s),
            "blocks_median_s": round(blocks_s, 6),
            "reference_median_s": round(ref_s, 6),
            "speedup_vs_blocks": round(blocks_s / native_s, 2),
            "speedup_vs_reference": round(ref_s / native_s, 2),
            "instructions": len(trace),
            "cores": parallel.usable_cores(),
        },
    }


def _measure_explore_pruning() -> dict:
    """The sweep-pruning entry: points skipped and wall-clock saved.

    Runs ``bench_explore_pruning``'s grid once pruned and once
    exhaustive, each on a fresh storeless engine so neither leg rides
    the other's warm artefacts. Single-shot timings — the quantity of
    record is the pruned fraction; wall-clock is context. Recording
    aborts unless the pruned frontier is byte-identical to the
    exhaustive one.
    """
    from repro.engine import EngineConfig, ExperimentEngine
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

    # warm the process-level caches (workload build, program compile) so
    # neither timed leg pays the one-time costs
    run_sweep(spec, ExperimentEngine(EngineConfig()))

    t0 = time.perf_counter()
    pruned = run_sweep(spec, ExperimentEngine(EngineConfig()))
    pruned_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    unpruned = run_sweep(spec, ExperimentEngine(EngineConfig()),
                         prune=False)
    unpruned_s = time.perf_counter() - t0

    if frontier_pairs(pruned.results) != frontier_pairs(unpruned.results):
        raise SystemExit("pruned sweep frontier diverged from exhaustive")

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


def _measure_selection() -> dict:
    """The selector-runtime entry: wall-clock of every registered
    selection algorithm on the same profiled workload (gsm_encode,
    2-PFU budget).

    One entry, one sub-row per algorithm — the quantity of record is
    how much slower the iterative selectors are than greedy, so a
    future algorithmic regression (e.g. an accidental re-fold inside
    the KL loop) shows up as a runtime cliff here.
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


#: source name -> function measuring its entries
SOURCES = {
    "simulator": _measure_simulator,
    "native_replay": _measure_native_replay,
    "native_prepass": _measure_native_prepass,
    "native_functional": _measure_native_functional,
    "explore_pruning": _measure_explore_pruning,
    "selector_runtime": _measure_selection,
    "wire_framing": _measure_wire_framing,
}


def measure(sources=None) -> dict:
    benchmarks = {}
    for name in sources or SOURCES:
        benchmarks.update(SOURCES[name]())
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
        if "speedup_vs_reference" in row:
            detail = f"{row['speedup_vs_reference']}x vs reference"
        elif "speedup_vs_python" in row:
            detail = f"{row['speedup_vs_python']}x vs build_prepass"
        elif "algorithms" in row:
            detail = ", ".join(
                f"{name} {sub['median_s'] * 1e3:.1f}ms"
                for name, sub in row["algorithms"].items()
            )
        elif "bytes_reduction" in row:
            detail = (f"{row['bytes_per_request']} B/request framed vs "
                      f"{row['pickle_bytes_per_request']} B pickle "
                      f"({row['bytes_reduction']}x fewer bytes, "
                      f"{row['points']} points)")
        else:
            detail = (f"{row['pruned_points']}/{row['points']} points "
                      f"pruned, {row['speedup_vs_unpruned']}x vs "
                      f"exhaustive")
        print(f"  {name}: {row['ops_per_s']:,} ops/s ({detail})")


def compare(results_path: Path, tolerance: float) -> int:
    baseline = json.loads(BASELINE.read_text())["benchmarks"]
    results = json.loads(results_path.read_text())
    failures = 0
    seen = set()
    for bench in results["benchmarks"]:
        name = bench["name"].split("[")[0].split("::")[-1]
        seen.add(name)
        if name not in baseline:
            print(f"  {name}: no baseline, skipping")
            continue
        base = baseline[name]["median_s"]
        new = bench["stats"]["median"]
        change = new / base - 1.0
        status = "ok"
        if change > tolerance:
            status = f"REGRESSION (> {tolerance:.0%} allowed)"
            failures += 1
        print(
            f"  {name}: median {new * 1e3:.2f}ms vs baseline "
            f"{base * 1e3:.2f}ms ({change:+.1%}) {status}"
        )
    # a pytest-benchmark baseline that produced no result has silently
    # stopped being gated: fail until the entry or the benchmark returns
    for name in sorted(n for n in baseline if n.startswith("test_")):
        if name not in seen:
            print(f"  {name}: MISSING from {results_path.name}")
            failures += 1
    if failures:
        print(f"{failures} benchmark(s) missing or regressed beyond "
              f"{tolerance:.0%}")
        return 1
    print("all benchmarks within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", metavar="RESULTS.json", type=Path, default=None,
        help="pytest-benchmark JSON export to check against the baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed median regression fraction (default 0.30)",
    )
    parser.add_argument(
        "--out", type=Path, default=BASELINE,
        help=f"baseline path to write (default {BASELINE})",
    )
    parser.add_argument(
        "--only", nargs="+", choices=sorted(SOURCES), default=None,
        help="measure only these sources and merge their entries by name",
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(args.compare, args.tolerance)
    write_baseline(args.out, args.only)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
