"""``repro.serve`` — the batching, backpressure-aware toolflow service.

A long-lived server process exposing the five :mod:`repro.api`
operations (compile / profile / select / rewrite / simulate) to
concurrent callers over a line-delimited JSON protocol::

    from repro.serve import ServeConfig, ToolflowServer
    from repro.serve.client import ServeClient

    with ToolflowServer(ServeConfig(workers=2)) as server:
        with ServeClient(server.address) as client:
            program = client.compile(workload="gsm_encode")
            stats = client.simulate(program=program)

Or from the shell::

    t1000 serve --port 7077 --workers 4 --cache-dir ~/.cache/t1000 &
    t1000 client run gsm_encode --connect 127.0.0.1:7077

What it adds over calling :mod:`repro.api` directly:

- **admission control** — a bounded queue with per-request deadlines;
  saturation produces explicit ``overloaded`` responses (429-style),
  never unbounded queueing.  One policy (:mod:`repro.serve.admission`)
  and one request check (:func:`repro.serve.protocol.validate_request`)
  serve both this backend and the :mod:`repro.gateway`;
- **micro-batching** — concurrent ``simulate`` requests for the same
  program/trace coalesce into one shared-trace
  :func:`~repro.sim.ooo.simulate_many` sweep and are split back per
  caller, bit-identically to serial execution;
- **a worker pool** — subprocess workers reusing the engine's
  persistent artifact store (repeats are cache hits), recycled after N
  requests, respawned on crash with bounded retries, drained cleanly on
  SIGTERM;
- **observability** — ``health``/``stats`` endpoints backed by
  :mod:`repro.obs` (queue-depth gauge, batch-size and per-op latency
  histograms, bridged worker cache counters).

See ``docs/serving.md`` for the protocol, failure modes, and capacity
tuning.
"""

from repro.serve.admission import Admitted, AdmissionPolicy
from repro.serve.client import ServeClient, connect
from repro.serve.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    OP_FAILED,
    OVERLOADED,
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    WORKER_CRASHED,
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    RemoteOpError,
    ServeError,
    ServerClosedError,
    WorkerCrashedError,
)
from repro.serve.server import ServeConfig, ToolflowServer, serve_forever
from repro.serve.workers import PooledWorker, WorkerCrashed, WorkerHandle

__all__ = [
    "Admitted", "AdmissionPolicy", "BAD_REQUEST", "BadRequestError",
    "DEADLINE_EXCEEDED", "DeadlineExceededError", "OP_FAILED", "OVERLOADED",
    "OverloadedError", "PROTOCOL_VERSION", "PooledWorker", "RemoteOpError",
    "SHUTTING_DOWN", "ServeClient", "ServeConfig",
    "ServeError", "ServerClosedError", "ToolflowServer", "WORKER_CRASHED",
    "WorkerCrashed", "WorkerCrashedError", "WorkerHandle", "connect",
    "serve_forever",
]
