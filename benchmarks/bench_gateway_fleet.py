"""Multi-node serving throughput: one gateway over 1 vs 2 backends.

The fleet acceptance benchmark: ``loadtest.run_throughput`` drives a
pipelined simulate load over ``_PROGRAMS`` distinct programs through a
gateway fronting first one, then two real backend subprocesses.  The
consistent-hash ring spreads the distinct program digests across the
fleet, so with two backends the work runs in two OS processes.

Asserted shape: zero lost requests in every leg (the gateway's core
guarantee).  The scaling factor is *recorded, not asserted* — on a
1-core CI box two backends time-slice one core and the curve is
honestly flat, which is exactly why the entry carries a ``cores``
field.  The measured point lands both in
``benchmarks/results/gateway_fleet.txt`` and as the
``gateway_fleet_throughput`` entry of ``BENCH_simulator.json``.
"""

import json
import os
import pathlib
import statistics

from conftest import write_result

from repro.gateway import FleetController, Gateway, GatewayConfig
from repro.serve import loadtest
from repro.serve.client import ServeClient

BASELINE = pathlib.Path(__file__).parent.parent / "BENCH_simulator.json"

_CLIENTS = 4
_REQUESTS = 48
_PROGRAMS = 8
_TRIALS = 3


def _measure(n_backends: int) -> "loadtest.ThroughputPoint":
    """Median-of-trials throughput through a fresh ``n_backends`` fleet."""
    fleet = FleetController(workers=2)
    try:
        names = [fleet.spawn() for _ in range(n_backends)]
        gateway = Gateway(GatewayConfig(backends=names))
        gateway.start()
        try:
            with ServeClient(gateway.address, timeout=60.0) as client:
                client.wait_ready(timeout=30.0)
            # Warm every backend's trace memo (one request per program)
            # so the timed legs measure serving, not first-touch compiles.
            loadtest.run_throughput(
                gateway.address, clients=_CLIENTS, requests=_PROGRAMS,
                distinct_programs=_PROGRAMS,
            )
            points = [
                loadtest.run_throughput(
                    gateway.address, clients=_CLIENTS, requests=_REQUESTS,
                    distinct_programs=_PROGRAMS,
                )
                for _ in range(_TRIALS)
            ]
        finally:
            gateway.stop()
    finally:
        fleet.drain_all()
    for point in points:
        assert point.errors == 0 and point.ok == _REQUESTS, point.summary()
    return sorted(points, key=lambda p: p.seconds)[len(points) // 2]


def _record_baseline(single, double, scaling: float, cores: int) -> None:
    doc = json.loads(BASELINE.read_text())
    doc["benchmarks"]["gateway_fleet_throughput"] = {
        "median_s": round(double.seconds, 6),
        "ops_per_s": round(double.rps, 2),
        "single_backend_median_s": round(single.seconds, 6),
        "single_backend_ops_per_s": round(single.rps, 2),
        "speedup_vs_single_backend": round(scaling, 2),
        "backends": 2,
        "clients": _CLIENTS,
        "requests": _REQUESTS,
        "distinct_programs": _PROGRAMS,
        "cores": cores,
    }
    BASELINE.write_text(json.dumps(doc, indent=2) + "\n")


def test_gateway_fleet_throughput():
    single = _measure(1)
    double = _measure(2)
    scaling = double.rps / single.rps if single.rps else 0.0
    cores = os.cpu_count() or 1

    lines = [
        "Gateway fleet throughput "
        f"({_CLIENTS} clients x {_REQUESTS} pipelined simulates over "
        f"{_PROGRAMS} programs, median of {_TRIALS}, {cores} core(s))",
        f"  1 backend:  {single.summary()}",
        f"  2 backends: {double.summary()}",
        f"  scaling:    {scaling:.2f}x",
    ]
    write_result("gateway_fleet.txt", "\n".join(lines))
    _record_baseline(single, double, scaling, cores)
