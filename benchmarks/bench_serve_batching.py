"""Serving throughput: micro-batched vs per-request ``simulate``.

The serve acceptance benchmark: N concurrent clients each sweep the
same machine-configuration grid over one program (the design-space
exploration traffic a shared toolflow service actually sees).  With
micro-batching on (``max_batch`` > 1) admission coalesces concurrent
requests sharing a program/trace into one job, the worker deduplicates
identical configurations and answers the distinct ones through a single
shared-trace :func:`~repro.sim.ooo.simulate_many` sweep.  With batching
forced off (``max_batch=1``) every request pays its own dispatch,
decode, and simulation.

Asserted shape: batching is *invisible* (every response byte-identical
to the unbatched run) and at least 1.5x the throughput on this workload
(median of 3 interleaved trials); the measured numbers are recorded,
not asserted.
"""

import json
import statistics
import threading
import time

from conftest import write_result

from repro import api
from repro.engine.store import stats_to_json
from repro.serve import ServeConfig, ToolflowServer
from repro.serve.client import ServeClient

_SOURCE = (
    ".text\nmain: li $s0, 8000\n    li $t1, 3\nloop:\n"
    "    sll $t2, $t1, 4\n    addu $t2, $t2, $t1\n    andi $t2, $t2, 1023\n"
    "    xor $t3, $t2, $t1\n    andi $t1, $t3, 255\n    addiu $t1, $t1, 1\n"
    "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n    halt\n"
)

#: The shared sweep grid: every client requests all of these in order,
#: so concurrent clients keep asking for the same configuration — the
#: duplication micro-batching exists to collapse.
_GRID = [api.MachineConfig(n_pfus=n, reconfig_latency=r)
         for n in (1, 2, 4) for r in (0, 10, 40)]
_CLIENTS = 12
_TRIALS = 3


def _canonical(stats) -> str:
    return json.dumps(stats_to_json(stats), sort_keys=True)


def _drive_sweep(program, max_batch: int, linger: float):
    """All clients sweep the grid concurrently; returns (seconds, answers)."""
    config = ServeConfig(workers=2, max_batch=max_batch, linger=linger,
                         max_queue=256)
    with ToolflowServer(config) as server:
        with ServeClient(server.address, timeout=120.0) as client:
            client.wait_ready()
            client.simulate(program=program)   # warm the trace memo
        answers: dict = {}
        lock = threading.Lock()

        def sweep(client_id: int) -> None:
            with ServeClient(server.address, timeout=120.0) as client:
                for k, machine in enumerate(_GRID):
                    stats = client.simulate(program=program, machine=machine)
                    with lock:
                        answers[(client_id, k)] = _canonical(stats)

        threads = [threading.Thread(target=sweep, args=(i,))
                   for i in range(_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    assert len(answers) == _CLIENTS * len(_GRID)
    return elapsed, answers


def test_micro_batching_throughput():
    program = api.compile(source=_SOURCE, name="serve_bench")
    requests = _CLIENTS * len(_GRID)

    # Interleave the two modes so machine-load drift hits both equally;
    # 15ms linger gathers the sweep's lockstep batchmates (still far
    # below one simulation's latency on this trace).
    batched_times, unbatched_times = [], []
    for _ in range(_TRIALS):
        seconds, batched = _drive_sweep(program, max_batch=16, linger=0.015)
        batched_times.append(seconds)
        seconds, unbatched = _drive_sweep(program, max_batch=1, linger=0.0)
        unbatched_times.append(seconds)
        # Batching must be invisible: byte-identical answers per request.
        assert batched == unbatched, \
            "batched responses diverged from unbatched"

    batched_s = statistics.median(batched_times)
    unbatched_s = statistics.median(unbatched_times)
    speedup = unbatched_s / batched_s
    lines = [
        "Serve micro-batching throughput "
        f"({_CLIENTS} clients x {len(_GRID)}-config sweep, 2 workers, "
        f"median of {_TRIALS})",
        f"  requests:  {requests} ({len(_GRID)} distinct configurations)",
        f"  batched:   {batched_s:.3f}s ({requests / batched_s:.1f} req/s)",
        f"  unbatched: {unbatched_s:.3f}s "
        f"({requests / unbatched_s:.1f} req/s)",
        f"  speedup:   {speedup:.2f}x",
    ]
    write_result("serve_batching.txt", "\n".join(lines))
    assert speedup >= 1.5, (
        f"micro-batching delivered only {speedup:.2f}x on the sweep "
        f"workload (expected >= 1.5x)"
    )
