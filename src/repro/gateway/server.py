"""The fleet gateway: one front door for N ``repro.serve`` backends.

Wiring (one process, one asyncio loop in a background thread)::

    client conns ──► connection coroutines ──► AdmissionPolicy (per-class)
                                                    │
                         dispatcher coroutine × M ◄─┘
                                │ route by consistent-hash ring
                                ▼
                  Backend pools (async pipelined links) ──► repro.serve × N
                                │ raw responses relayed verbatim
                  client writers ◄──────────────────────────┘

The gateway speaks the exact line-delimited-JSON protocol of
:mod:`repro.serve` on both sides and never decodes payload envelopes:
a response relayed through the gateway carries the backend's ``result``
object untouched (only the wire ``id`` is mapped back), so gateway
responses are byte-identical to direct backend execution.

Guarantees:

- **cache affinity** — requests route by a stable program/trace key
  (:func:`~repro.serve.protocol.routing_key`) over a consistent-hash
  ring, so each backend's micro-batcher and warm artifact caches keep
  hitting, and node join/leave only remaps the moved arcs;
- **failover** — a backend that dies mid-request fails all its
  in-flight entries with :class:`~repro.gateway.backend.BackendDied`;
  the dispatcher replays them on the next node in ring order (toolflow
  ops are pure, so replay is safe and byte-identical) up to
  ``retries`` times;
- **admission classes** — ``interactive`` traffic is dispatched before
  ``sweep`` traffic, each class has its own bounded queue, and
  saturation produces the explicit ``overloaded`` answer of the
  admission policy it shares with the backend
  (:mod:`repro.serve.admission`);
- **drain** — ``stop()`` (or the ``drain`` op, or SIGTERM in
  foreground mode) closes admission, finishes queued + in-flight
  requests, then closes backends and the listener.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from dataclasses import dataclass

from repro.obs import Recorder, get_recorder
from repro.gateway.backend import Backend, BackendDied
from repro.gateway.ring import HashRing
from repro.serve import protocol
from repro.serve.admission import (
    ADMISSION_CLASSES,
    INTERACTIVE,
    SWEEP,
    Admitted,
    AdmissionPolicy,
)
from repro.serve.protocol import routing_key

__all__ = ["GatewayConfig", "Gateway", "gateway_forever", "routing_key"]

_LATENCY_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                   5000, 10000)

#: Inline endpoints the gateway answers itself.
_GATEWAY_OPS = ("health", "stats", "drain")


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for one :class:`Gateway`.

    See ``docs/gateway.md`` for how these interact; the defaults suit
    a localhost fleet of 2-4 backends.
    """

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = pick a free port
    backends: tuple[str, ...] = ()      # static "host:port" backends
    pool_size: int = 2                  # connections per backend
    max_inflight: int = 32              # dispatcher coroutines
    interactive_queue: int = 256        # admission bound per class
    sweep_queue: int = 1024
    retries: int = 2                    # failover attempts per request
    default_timeout_ms: int = 30_000
    health_interval: float = 0.5        # backend probe cadence
    health_timeout: float = 3.0
    fail_after: int = 2                 # probes before unhealthy
    drain_grace: float = 30.0
    # autoscaling (effective only with an attached FleetController)
    min_backends: int = 1
    max_backends: int = 4
    scale_up_depth: int = 8             # queue depth that adds a node
    scale_down_intervals: int = 20      # consecutive idle checks to drop
    autoscale_interval: float = 0.5
    #: Forward the ``_crash``/``_sleep`` test hooks (the backends must
    #: also run with ``debug_ops``; never in production).
    debug_ops: bool = False


class Gateway:
    """The fleet gateway service (asyncio loop in a daemon thread)."""

    def __init__(self, config: GatewayConfig | None = None):
        self.config = config or GatewayConfig()
        # Record into the ambient recorder when observability is on
        # (so ``t1000 gateway run --metrics-out`` exports through the
        # generic CLI path); otherwise keep a private always-on one
        # backing the ``stats`` endpoint.
        ambient = get_recorder()
        self.recorder = ambient if ambient.enabled else Recorder(
            enabled=True
        )
        self.admission = AdmissionPolicy(
            {INTERACTIVE: self.config.interactive_queue,
             SWEEP: self.config.sweep_queue},
            recorder=self.recorder, scope="gateway", where="gateway queue",
        )
        self._work = asyncio.Event()
        self.ring = HashRing()
        self.backends: dict[str, Backend] = {}
        self.fleet = None                 # attached FleetController
        self.autoscale = False            # run autoscale_loop on the fleet
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None
        self._drain_event: asyncio.Event | None = None
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._epoch = time.monotonic()
        self._failovers = 0

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        assert self._address is not None, "gateway not started"
        return self._address

    def start(self) -> "Gateway":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="gateway-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self._address is None:
            raise RuntimeError("gateway failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        except BaseException as exc:      # surface startup failures
            self._startup_error = exc
            self._ready.set()
        finally:
            self._loop.close()
            self._stopped.set()

    async def _main(self) -> None:
        self._drain_event = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_conn, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES + 1,
        )
        self._address = server.sockets[0].getsockname()[:2]
        for name in self.config.backends:
            self._add_backend(name)
        dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch_loop())
            for _ in range(max(1, self.config.max_inflight))
        ]
        scaler = None
        if self.fleet is not None and self.autoscale:
            from repro.gateway.fleet import autoscale_loop

            scaler = asyncio.get_running_loop().create_task(
                autoscale_loop(self, self.fleet)
            )
        self._ready.set()
        await self._drain_event.wait()
        # Drain: stop admitting, let dispatchers finish queued work.
        if scaler is not None:
            scaler.cancel()
        self.close_admission()
        try:
            await asyncio.wait_for(
                asyncio.gather(*dispatchers, return_exceptions=True),
                timeout=self.config.drain_grace,
            )
        except asyncio.TimeoutError:
            for task in dispatchers:
                task.cancel()
        for backend in list(self.backends.values()):
            await backend.close()
        server.close()
        # idle client connections would otherwise outlive the loop
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        await server.wait_closed()

    def stop(self, grace: float | None = None) -> None:
        """Drain and shut down (thread-safe)."""
        if self._loop is None or self._stopped.is_set():
            return
        self._draining = True
        try:
            self._loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:
            return                        # loop already closed
        self._stopped.wait(
            (self.config.drain_grace if grace is None else grace) + 5.0
        )

    def _begin_drain(self) -> None:
        self._draining = True
        if self._drain_event is not None:
            self._drain_event.set()

    def wait(self) -> None:
        """Block until :meth:`stop` completes (CLI foreground mode)."""
        self._stopped.wait()

    def install_signal_handlers(self) -> None:
        def _drain(signum, frame):
            threading.Thread(target=self.stop, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # backend membership (must run on the gateway loop)

    def _add_backend(self, name: str) -> None:
        if name in self.backends:
            return
        backend = Backend(
            name,
            pool_size=self.config.pool_size,
            health_interval=self.config.health_interval,
            health_timeout=self.config.health_timeout,
            fail_after=self.config.fail_after,
            on_health_change=self._health_changed,
        )
        self.backends[name] = backend
        self.ring.add(name)
        backend.start_monitor()
        self._backend_gauge()

    def _remove_backend(self, name: str) -> Backend | None:
        backend = self.backends.pop(name, None)
        if backend is None:
            return None
        self.ring.remove(name)
        self._backend_gauge()
        return backend

    def _health_changed(self, backend: Backend, healthy: bool) -> None:
        """Ring membership follows health: unhealthy nodes take no new
        traffic; a recovered node rejoins and reclaims its arcs."""
        if healthy:
            if backend.name in self.backends:
                self.ring.add(backend.name)
        else:
            self.ring.remove(backend.name)
        self._backend_gauge()

    def _backend_gauge(self) -> None:
        self.recorder.gauge("gateway.backends").set(len(self.ring))

    def add_backend(self, name: str) -> None:
        """Thread-safe join (fleet controller / tests)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._add_backend, name)

    def remove_backend(self, name: str) -> None:
        """Thread-safe leave: stops new traffic, then closes the pool."""
        assert self._loop is not None

        def _remove() -> None:
            backend = self._remove_backend(name)
            if backend is not None:
                asyncio.get_running_loop().create_task(backend.close())

        self._loop.call_soon_threadsafe(_remove)

    # ------------------------------------------------------------------
    # connection handling

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)

        def respond(payload: dict) -> None:
            try:
                writer.write(protocol.dump_line(payload))
            except (ConnectionError, OSError, RuntimeError):
                pass                      # client went away

        try:
            while True:
                try:
                    line = await reader.readline()
                    oversize = len(line) > protocol.MAX_LINE_BYTES
                except ValueError:        # longer than the stream limit
                    oversize = True
                except (ConnectionError, OSError):
                    return
                if oversize:
                    respond(protocol.error_response(
                        None, protocol.BAD_REQUEST, "request line too large"))
                    return
                if not line:
                    return
                if line.strip() == b"":
                    continue
                try:
                    request = protocol.parse_line(line)
                except protocol.BadRequestError as exc:
                    respond(protocol.error_response(
                        None, protocol.BAD_REQUEST, str(exc)))
                    continue
                declared = request.pop("frames", None)
                frames: tuple = ()
                if declared is not None:
                    try:
                        frames = tuple([
                            await reader.readexactly(n)
                            for n in protocol.frame_sizes(declared)
                        ])
                    except protocol.BadRequestError as exc:
                        # The frame bytes follow on the stream
                        # regardless: answer, then drop the connection.
                        respond(protocol.error_response(
                            request.get("id"), protocol.BAD_REQUEST,
                            str(exc)))
                        return
                    except (asyncio.IncompleteReadError, ConnectionError,
                            OSError):
                        return
                self._handle_request(request, respond, frames)
                # Let queued response bytes flush under backpressure.
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
        except asyncio.CancelledError:
            return                        # shutdown: drop the idle conn
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass

    def _handle_request(self, request: dict, respond,
                        frames: tuple = ()) -> None:
        request_id = request.get("id")
        op = request.get("op")
        if op in _GATEWAY_OPS:
            if op == "drain":
                respond(protocol.ok_response(request_id, {"draining": True}))
                self._begin_drain()
            else:
                respond(protocol.ok_response(request_id, self._inline(op)))
            return
        # ``put_trace`` is relayed like a toolflow op, not answered
        # inline: the cache lives on the backends (the gateway stays
        # stateless) and the routing key lands the bundle exactly where
        # its sweep is routed.
        allowed = protocol.TOOLFLOW_OPS + (protocol.PUT_TRACE_OP,) + (
            ("_crash", "_sleep") if self.config.debug_ops else ()
        )
        try:
            op, params, timeout_ms = protocol.validate_request(
                request, allowed, self.config.default_timeout_ms)
        except protocol.BadRequestError as exc:
            respond(protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc)))
            return
        klass = request.get("class", INTERACTIVE)
        if klass not in ADMISSION_CLASSES:
            respond(protocol.error_response(
                request_id, protocol.BAD_REQUEST,
                f"unknown admission class {klass!r} "
                f"(expected one of {ADMISSION_CLASSES})"))
            return
        entry = Admitted(
            request_id=request_id, op=op, params=params, klass=klass,
            deadline=time.monotonic() + timeout_ms / 1000.0,
            respond=respond, key=routing_key(op, params), frames=frames,
        )
        verdict = self.admit(entry)
        if verdict == protocol.OVERLOADED:
            respond(protocol.error_response(
                request_id, protocol.OVERLOADED,
                f"gateway {klass} queue full "
                f"({self.admission.limits[klass]})",
                retry_after_ms=100,
            ))
        elif verdict == protocol.SHUTTING_DOWN:
            respond(protocol.error_response(
                request_id, protocol.SHUTTING_DOWN, "gateway is draining"))
        else:
            self.recorder.counter("gateway.admitted", op=op,
                                  klass=klass).inc()

    def admit(self, entry: Admitted) -> str | None:
        """Submit ``entry`` to admission and wake a dispatcher; the
        admission verdict (``None`` when admitted)."""
        verdict = self.admission.submit(entry)
        if verdict is None:
            self._work.set()
        return verdict

    def close_admission(self) -> None:
        """Stop admitting; wake every waiting dispatcher (drain)."""
        self.admission.close()
        self._work.set()

    async def next_entry(self) -> Admitted | None:
        """Next entry in priority order; ``None`` once admission is
        closed and drained (the dispatcher's exit signal)."""
        while not (batch := self.admission.take()):
            if self.admission.closed:
                return None
            self._work.clear()
            await self._work.wait()
        return batch[0]

    # ------------------------------------------------------------------
    # inline endpoints

    def queue_depth(self) -> int:
        return len(self.admission)

    def _inline(self, op: str) -> dict:
        if op == "health":
            return {
                "status": "draining" if self._draining else "ok",
                "protocol": protocol.PROTOCOL_VERSION,
                "role": "gateway",
                "backends": len(self.backends),
                "healthy_backends": len(self.ring),
                "queue_depth": len(self.admission),
                "queues": {
                    klass: self.admission.depth(klass)
                    for klass in ADMISSION_CLASSES
                },
                "uptime_s": round(time.monotonic() - self._epoch, 3),
            }
        assert op == "stats"
        return {
            "gateway": self._inline("health"),
            "backends": [
                backend.snapshot() for backend in self.backends.values()
            ],
            "failovers": self._failovers,
            "metrics": self.recorder.metrics.snapshot(),
        }

    # ------------------------------------------------------------------
    # dispatch

    async def _dispatch_loop(self) -> None:
        while True:
            entry = await self.next_entry()
            if entry is None:
                return                    # drained and closed
            try:
                await self._dispatch_one(entry)
            except Exception as exc:      # never lose a dispatcher
                entry.fail(
                    protocol.OP_FAILED,
                    f"internal gateway error: {type(exc).__name__}: {exc}",
                )

    def _choose(self, entry: Admitted, tried: set[str]) -> Backend | None:
        """Ring-ordered backend choice, skipping unhealthy and
        already-tried nodes; falls back to any healthy node."""
        for name in self.ring.preference(entry.key):
            backend = self.backends.get(name)
            if backend is not None and backend.healthy \
                    and name not in tried:
                return backend
        for backend in self.backends.values():
            if backend.healthy and backend.name not in tried:
                return backend
        return None

    async def _dispatch_one(self, entry: Admitted) -> None:
        tried: set[str] = set()
        while True:
            backend = self._choose(entry, tried)
            if backend is None:
                if self._draining:
                    entry.fail(protocol.SHUTTING_DOWN,
                               "gateway is draining")
                elif tried:
                    entry.fail(
                        protocol.WORKER_CRASHED,
                        f"backend(s) {sorted(tried)} failed and no "
                        f"healthy backend remains for replay",
                    )
                else:
                    entry.fail(
                        protocol.OVERLOADED,
                        "no healthy backend available",
                        retry_after_ms=200,
                    )
                self._count(entry, None, "unrouted")
                return
            tried.add(backend.name)
            self._route_metrics(backend)
            try:
                response = await backend.execute(
                    entry.op, entry.params, entry.remaining_ms(),
                    klass=entry.klass, frames=entry.frames,
                )
            except BackendDied as exc:
                backend.mark_dead()
                self._failovers += 1
                self.recorder.counter(
                    "gateway.failover", backend=backend.name
                ).inc()
                if len(tried) <= self.config.retries \
                        and not entry.expired():
                    continue              # replay on the next ring node
                entry.fail(
                    protocol.WORKER_CRASHED,
                    f"backend {backend.name} failed and failover budget "
                    f"is exhausted: {exc}",
                )
                self._count(entry, backend, "crashed")
                return
            except protocol.ServeError as exc:
                # The request or its answer is over the line cap: it
                # fails alone, and the backend stays in the ring.
                entry.fail(exc.code, str(exc))
                self._count(entry, backend, "error")
                return
            # Relay verbatim: only the wire id is mapped back, so the
            # result payload is byte-identical to direct execution.
            relayed = dict(response)
            relayed["id"] = entry.request_id
            entry.respond(relayed)
            self._count(
                entry, backend, "ok" if response.get("ok") else "error"
            )
            return

    def _route_metrics(self, backend: Backend) -> None:
        self.recorder.counter(
            "gateway.routed", backend=backend.name
        ).inc()
        counts = {
            name: b.requests for name, b in self.backends.items()
        }
        self.recorder.gauge("gateway.ring.imbalance").set(
            round(HashRing.imbalance(counts), 4)
        )

    def _count(self, entry: Admitted, backend: Backend | None,
               outcome: str) -> None:
        self.recorder.counter(
            "gateway.requests", op=entry.op, klass=entry.klass,
            backend=backend.name if backend is not None else "(none)",
            outcome=outcome,
        ).inc()
        self.recorder.histogram(
            "gateway.latency.ms", bounds=_LATENCY_BOUNDS,
            klass=entry.klass,
        ).observe((time.monotonic() - entry.enqueued_at) * 1000.0)


def gateway_forever(gateway: Gateway) -> int:
    """CLI foreground mode: announce, drain on SIGTERM/SIGINT."""
    gateway.start()
    gateway.install_signal_handlers()
    host, port = gateway.address
    print(f"t1000 gateway: listening on {host}:{port} "
          f"({len(gateway.backends)} backend(s))", flush=True)
    try:
        gateway.wait()
    except KeyboardInterrupt:
        gateway.stop()
    print("t1000 gateway: drained, bye", flush=True)
    return 0
