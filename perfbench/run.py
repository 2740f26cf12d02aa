"""Benchmark entry point.

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout: set-up (including
one untimed warm-up op), timed ops for ``--seconds``, then two more
set-ups in fresh processes so ``setup_s`` is a median of three.  The
last line of standard output is the JSON result.  ``--trace 1`` makes a
separate run that alternates traced and untraced ops and reports the
per-layer metrics instead.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run: this process plus ``SETUP_RUNS - 1`` fresh probes.
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 60.0


def _workloads() -> dict:
    from dse_sweep import DseSweep
    from replay_grid import ReplayGrid
    from served_sweep import ServedSweep

    return {cls.name: cls for cls in (DseSweep, ReplayGrid, ServedSweep)}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, tear down and print setup_s only")
    return parser.parse_args(argv)


def _declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _probe_setup(args) -> float:
    """Set-up time of one fresh process running the same workload."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import benchlib

    signal.signal(signal.SIGTERM, _terminate)
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(sorted(workloads))})", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared_metrics()
    work = benchlib.work_dir(ROOT)
    tracer = benchlib.Tracer() if args.trace else None
    speed = benchlib.HostSpeed()
    workload = workloads[args.workload](args.seed, work, tracer, speed)

    try:
        speed.sample()
        workload.setup()
        setup_end = time.perf_counter()
        speed.sample()
        # Set-up at the reference host speed, like every other time,
        # scaled by the samples taken just before and just after it.
        setup_s = (setup_end - T_START) * benchlib.CAL_REF_MS / (
            benchlib.geomean(ms for _, ms in speed.samples))
        if not args.setup_probe:
            workload.measure(args.seconds)
    finally:
        workload.teardown()
    if args.setup_probe:
        if workload.errors:
            print("\n".join(workload.errors), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [setup_s]
    errors = list(workload.errors)
    if not args.trace:
        try:
            setups += [_probe_setup(args) for _ in range(SETUP_RUNS - 1)]
        except (RuntimeError, subprocess.TimeoutExpired,
                ValueError, KeyError) as exc:
            errors.append(str(exc))

    stem = os.path.join(work, f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}")
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s": setups, "cal_ref_ms": benchlib.CAL_REF_MS,
              "cal_ms": [ms for _, ms in speed.samples],
              **workload.record()}
    if args.trace:
        values = workload.per_layer()
        declared = per_layer
        tracer.write_chrome(stem + ".trace.json")
        print(tracer.self_time_table())
    else:
        values = {name: value for name, (value, _unit)
                  in workload.end_to_end().items()}
        values["setup_s"] = benchlib.median(setups)
        declared = end_to_end
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer a workload never enters reports 0 for it.
    metrics = {name: benchlib.metric(values.get(name, 0.0), unit)
               for name, unit in declared.items()}
    report["metrics"] = metrics
    report["errors"] = errors[:50]
    with open(stem + ".json", "w") as out:
        json.dump(report, out, indent=1, default=str)
    for line in errors[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {workload.attempted} op(s), "
          f"{workload.failed} failed; setup {setups}; report {stem}.json")
    print(benchlib.result_line(
        not errors and workload.failed == 0, workload.attempted,
        workload.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
