"""``repro.gateway`` — the multi-node serving fleet front door.

An asyncio gateway that speaks the :mod:`repro.serve` line-delimited
JSON protocol to clients and fans requests out across N ``repro.serve``
backends::

    from repro.gateway import Gateway, GatewayConfig
    from repro.serve.client import ServeClient

    with Gateway(GatewayConfig(backends=("127.0.0.1:7077",
                                         "127.0.0.1:7078"))) as gw:
        with ServeClient(gw.address) as client:      # same client!
            program = client.compile(workload="gsm_encode")
            stats = client.simulate(program=program)

Or from the shell (gateway + local backend fleet in one command)::

    t1000 gateway run --backends 2 --workers 2 --cache-dir ~/.cache/t1000
    t1000 gateway status --connect 127.0.0.1:7080
    t1000 gateway drain  --connect 127.0.0.1:7080

What it adds over one ``t1000 serve`` process:

- **horizontal scale** — N backends, each with its own worker pool,
  behind one address; a gateway is just another endpoint to
  :class:`~repro.serve.client.ServeClient`;
- **cache-affine routing** — a consistent-hash ring keyed by the
  program/trace digest sends every repeat of a payload to the same
  backend, so micro-batching and warm artifact caches keep working
  (:mod:`repro.gateway.ring`);
- **failover** — in-flight requests on a crashed backend are replayed
  on a surviving node, byte-identically (toolflow ops are pure)
  (:mod:`repro.gateway.backend`);
- **admission classes** — ``interactive`` traffic is served before
  ``sweep`` traffic, with per-class bounded queues and explicit
  ``overloaded`` rejections, through the admission policy and request
  checks the backend uses too (:mod:`repro.serve.admission`,
  :func:`repro.serve.protocol.validate_request`);
- **fleet control** — local backend subprocesses are spawned, drained,
  and autoscaled from the queue-depth gauge
  (:mod:`repro.gateway.fleet`).

See ``docs/gateway.md`` for architecture, hash-ring behaviour,
admission classes, and failover semantics.
"""

from repro.gateway.backend import Backend, BackendDied
from repro.gateway.fleet import (
    FleetController,
    FleetError,
    autoscale_decision,
)
from repro.gateway.ring import HashRing
from repro.gateway.server import (
    Gateway,
    GatewayConfig,
    gateway_forever,
    routing_key,
)
from repro.serve.admission import ADMISSION_CLASSES, INTERACTIVE, SWEEP

__all__ = [
    "ADMISSION_CLASSES",
    "INTERACTIVE",
    "SWEEP",
    "Backend",
    "BackendDied",
    "FleetController",
    "FleetError",
    "Gateway",
    "GatewayConfig",
    "HashRing",
    "autoscale_decision",
    "gateway_forever",
    "routing_key",
]
