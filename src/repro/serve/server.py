"""The long-lived toolflow server.

Wiring (one process, threads + worker subprocesses)::

    client sockets ──► connection threads ──► AdmissionPolicy (bounded)
                                                    │ batches
                              dispatcher thread × N ┴─► PooledWorker × N
                                                          │ per-item results
                              responses written back per connection ◄┘

``health`` and ``stats`` are answered inline by the connection thread —
they must keep working while the queue is saturated, that is their
point.  Everything else is checked by
:func:`~repro.serve.protocol.validate_request`, admitted by the shared
admission policy (:mod:`repro.serve.admission`) and handed to a worker
subprocess (:mod:`repro.serve.workers`, :mod:`repro.serve.ops`).

Observability rides on :mod:`repro.obs`: the server owns an enabled
:class:`~repro.obs.Recorder` whose registry holds the queue-depth
gauge, per-op request/latency series, the batch-size histogram, and the
cache counters bridged back from worker telemetry.  The ``stats``
endpoint snapshots that registry.

Shutdown is a drain: SIGTERM (or :meth:`ToolflowServer.stop`) closes
admission — late submitters get ``shutting_down`` — finishes every
in-flight and queued request, then stops workers and the listener.
"""

from __future__ import annotations

import signal
import socket
import socketserver
import threading
import time
from dataclasses import dataclass

from repro.obs import Recorder
from repro.serve import protocol
from repro.serve.admission import DEFAULT_CLASS, Admitted, AdmissionPolicy
from repro.serve.trace_cache import TraceCache
from repro.serve.workers import PooledWorker, WorkerCrashed

#: Histogram buckets for request latencies in milliseconds.
_LATENCY_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                   5000, 10000)
_BATCH_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`ToolflowServer`.

    See ``docs/serving.md`` ("Capacity tuning") for how these interact;
    the defaults suit an interactive localhost service.
    """

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port
    workers: int = 2
    max_queue: int = 128               # admission bound (backpressure)
    max_batch: int = 16                # simulate coalescing cap
    linger: float = 0.002              # batchmate wait when queue empty
    default_timeout_ms: int = 30_000   # per-request deadline default
    worker_max_requests: int = 500     # recycle horizon
    worker_retries: int = 1            # respawn-and-retry budget
    cache_dir: str | None = None       # workers' shared artifact store
    drain_grace: float = 30.0          # close(): max wait for in-flight
    debug_ops: bool = False            # _crash/_sleep test hooks
    trace_cache_entries: int = 64      # digest-addressed bundle LRU
    trace_cache_bytes: int = 256 * 1024 * 1024


class _Listener(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128   # accept backlog must outlive client bursts

    def __init__(self, address, server: "ToolflowServer"):
        self.toolflow = server
        super().__init__(address, _ConnectionHandler)


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: read request lines, admit, respond.

    Responses for this connection may be written by dispatcher threads
    (batch results) and by this thread (inline/rejection responses), so
    every write goes through a per-connection lock.
    """

    def setup(self) -> None:
        super().setup()
        self.write_lock = threading.Lock()

    def respond(self, payload: dict) -> None:
        line = protocol.dump_line(payload)
        self.server.toolflow.recorder.counter(
            "serve.wire.tx_bytes").inc(len(line))
        try:
            with self.write_lock:
                self.wfile.write(line)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            pass  # client went away; results are simply dropped

    def _read_frames(self, declared) -> list[bytes]:
        """Read the binary attachments a request line declared.

        Raises :class:`~repro.serve.protocol.BadRequestError` on a bad
        declaration — after which the caller must drop the connection,
        since the stream can no longer be resynchronised."""
        frames = []
        for nbytes in protocol.frame_sizes(declared):
            chunks, remaining = [], nbytes
            while remaining:
                chunk = self.rfile.read(remaining)
                if not chunk:
                    raise protocol.BadRequestError(
                        "connection closed mid-frame")
                chunks.append(chunk)
                remaining -= len(chunk)
            frames.append(b"".join(chunks))
        return frames

    def handle(self) -> None:
        server: ToolflowServer = self.server.toolflow
        rx_bytes = server.recorder.counter("serve.wire.rx_bytes")
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
            except (ConnectionResetError, OSError):
                return
            if not line:
                return
            if line.strip() == b"":
                continue
            if len(line) > protocol.MAX_LINE_BYTES:
                self.respond(protocol.error_response(
                    None, protocol.BAD_REQUEST, "request line too large"))
                return
            rx_bytes.inc(len(line))
            try:
                request = protocol.parse_line(line)
            except protocol.BadRequestError as exc:
                self.respond(protocol.error_response(
                    None, protocol.BAD_REQUEST, str(exc)))
                continue
            declared = request.pop("frames", None)
            if declared is not None:
                try:
                    frames = self._read_frames(declared)
                except (protocol.BadRequestError, ConnectionResetError,
                        OSError) as exc:
                    self.respond(protocol.error_response(
                        request.get("id"), protocol.BAD_REQUEST, str(exc)))
                    return  # cannot resync a half-read frame stream
                rx_bytes.inc(sum(len(f) for f in frames))
                request["_frames"] = frames
            server.handle_request(request, self.respond)


class ToolflowServer:
    """The service: listener + admission + dispatcher/worker pairs."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.recorder = Recorder(enabled=True)
        self.trace_cache = TraceCache(
            max_entries=self.config.trace_cache_entries,
            max_bytes=self.config.trace_cache_bytes,
            recorder=self.recorder,
        )
        self.admission = AdmissionPolicy(
            {DEFAULT_CLASS: self.config.max_queue},
            max_batch=self.config.max_batch, recorder=self.recorder,
        )
        self._work = threading.Condition()
        self._workers: list[PooledWorker] = []
        self._dispatchers: list[threading.Thread] = []
        self._listener: _Listener | None = None
        self._listener_thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._draining = False
        self._epoch = time.monotonic()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        assert self._listener is not None, "server not started"
        return self._listener.server_address[:2]

    def start(self) -> "ToolflowServer":
        if self._started.is_set():
            return self
        # Spawn every worker before any traffic so the first burst does
        # not pay cold-start latency one request at a time.
        for _ in range(self.config.workers):
            self._workers.append(PooledWorker(
                cache_dir=self.config.cache_dir,
                max_requests=self.config.worker_max_requests,
                retries=self.config.worker_retries,
                debug_ops=self.config.debug_ops,
            ))
        for index, worker in enumerate(self._workers):
            thread = threading.Thread(
                target=self._dispatch_loop, args=(worker,),
                name=f"serve-dispatch-{index}", daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)
        self._listener = _Listener(
            (self.config.host, self.config.port), self
        )
        self._listener_thread = threading.Thread(
            target=self._listener.serve_forever,
            name="serve-listener", daemon=True,
        )
        self._listener_thread.start()
        self._started.set()
        return self

    def stop(self, grace: float | None = None) -> None:
        """Drain and shut down: finish queued + in-flight work first."""
        with self._lock:
            if self._stopped.is_set():
                return
            self._draining = True
        self.close_admission()
        deadline = time.monotonic() + (
            self.config.drain_grace if grace is None else grace
        )
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            worker.close()
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.server_close()
        self._stopped.set()

    def wait(self) -> None:
        """Block until :meth:`stop` completes (CLI foreground mode)."""
        self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (main thread only)."""
        def _drain(signum, frame):
            threading.Thread(target=self.stop, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    def __enter__(self) -> "ToolflowServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request admission (connection threads)

    def handle_request(self, request: dict, respond) -> None:
        request_id = request.get("id")
        op = request.get("op")
        if op in protocol.INLINE_OPS:
            respond(protocol.ok_response(request_id, self._inline(op)))
            return
        if op == protocol.PUT_TRACE_OP:
            self._put_trace(request, respond)
            return
        allowed = protocol.TOOLFLOW_OPS + (
            ("_crash", "_sleep") if self.config.debug_ops else ()
        )
        try:
            op, params, timeout_ms = protocol.validate_request(
                request, allowed, self.config.default_timeout_ms)
        except protocol.BadRequestError as exc:
            respond(protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc)))
            return
        digest = params.get("trace_ref")
        if digest is not None and not self.trace_cache.contains(digest):
            # By-ref simulate: answer the miss at admission, before the
            # request burns a queue slot it cannot use.  A miss that
            # develops *after* admission (evicted while queued) fails
            # the batch with the same code at dispatch time.
            self.recorder.counter("serve.trace_cache.need_trace").inc()
            respond(protocol.error_response(
                request_id, protocol.NEED_TRACE,
                f"trace bundle {digest} is not cached here",
                digest=digest))
            return
        verdict = self.admit(Admitted(
            request_id=request_id, op=op, params=params,
            klass=DEFAULT_CLASS,
            deadline=time.monotonic() + timeout_ms / 1000.0,
            respond=respond,
            key=(protocol.routing_key(op, params) if op == "simulate"
                 else None),
        ))
        if verdict == protocol.OVERLOADED:
            respond(protocol.error_response(
                request_id, protocol.OVERLOADED,
                f"admission queue full ({self.config.max_queue})",
                retry_after_ms=100,
            ))
        elif verdict == protocol.SHUTTING_DOWN:
            respond(protocol.error_response(
                request_id, protocol.SHUTTING_DOWN, "server is draining"))
        else:
            self.recorder.counter("serve.admitted", op=op).inc()

    def admit(self, entry: Admitted) -> str | None:
        """Submit ``entry`` to admission and wake one dispatcher; the
        admission verdict (``None`` when admitted)."""
        with self._work:
            verdict = self.admission.submit(entry)
            if verdict is None:
                self._work.notify()
            return verdict

    def close_admission(self) -> None:
        """Stop admitting; wake every dispatcher so drain can finish."""
        with self._work:
            self.admission.close()
            self._work.notify_all()

    def next_batch(self, timeout: float | None = None
                   ) -> list[Admitted] | None:
        """Block for the next batch of work.

        Returns ``None`` once admission is closed and drained (the
        dispatcher's exit signal), or ``[]`` when ``timeout`` elapses
        with nothing to do.  A batchable head lingers ``linger``
        seconds for batchmates still in flight from other connections.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            while not (batch := self.admission.take()):
                if self.admission.closed:
                    return None
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    return []
                self._work.wait(None if deadline is None else deadline - now)
            if (batch[0].key is not None and self.config.linger > 0
                    and len(batch) < self.admission.max_batch
                    and not self.admission.closed):
                self._work.wait(self.config.linger)
                self.admission.top_up(batch)
            return batch

    def _put_trace(self, request: dict, respond) -> None:
        """Inline handler for ``put_trace``: store the request's first
        binary attachment under its claimed digest."""
        request_id = request.get("id")
        params = request.get("params") or {}
        digest = params.get("digest") if isinstance(params, dict) else None
        frames = request.get("_frames") or []
        if not isinstance(digest, str) or not frames:
            respond(protocol.error_response(
                request_id, protocol.BAD_REQUEST,
                "put_trace needs a string digest param and one binary "
                "frame attachment"))
            return
        try:
            nbytes = self.trace_cache.put(digest, frames[0])
        except protocol.BadRequestError as exc:
            respond(protocol.error_response(
                request_id, protocol.BAD_REQUEST, str(exc)))
            return
        respond(protocol.ok_response(
            request_id, {"stored": True, "bytes": nbytes}))

    # ------------------------------------------------------------------
    # inline endpoints

    def _inline(self, op: str) -> dict:
        if op == "health":
            return {
                "status": "draining" if self._draining else "ok",
                "protocol": protocol.PROTOCOL_VERSION,
                "workers": sum(1 for w in self._workers if w.alive()),
                "queue_depth": len(self.admission),
                "max_queue": self.config.max_queue,
                "uptime_s": round(time.monotonic() - self._epoch, 3),
            }
        assert op == "stats"
        return {
            "server": self._inline("health"),
            "workers": {
                "crashes": sum(w.crashes for w in self._workers),
                "recycles": sum(w.recycles for w in self._workers),
                "pids": [w.pid for w in self._workers],
            },
            "trace_cache": self.trace_cache.stats(),
            "metrics": self.recorder.metrics.snapshot(),
        }

    # ------------------------------------------------------------------
    # dispatch (one thread per worker)

    def _dispatch_loop(self, worker: PooledWorker) -> None:
        while True:
            batch = self.next_batch()
            if batch is None:
                return  # drained and closed
            if not batch:
                continue
            try:
                self._execute_batch(worker, batch)
            except Exception as exc:  # never lose a dispatcher thread
                for request in batch:
                    request.fail(
                        protocol.OP_FAILED,
                        f"internal dispatch error: "
                        f"{type(exc).__name__}: {exc}",
                    )

    def _execute_batch(self, worker: PooledWorker,
                       batch: list[Admitted]) -> None:
        op = batch[0].op
        started = time.monotonic()
        if op == "simulate":
            items, slots = self._explode_simulate(batch)
        else:
            items = [request.params for request in batch]
            slots = [(request, None) for request in batch]
        self.recorder.histogram(
            "serve.batch.size", bounds=_BATCH_BOUNDS, op=op
        ).observe(len(items))
        job: dict = {"op": op, "items": items}
        digest = (batch[0].params.get("trace_ref")
                  if op == "simulate" else None)
        blob = None
        if digest is not None:
            blob = self.trace_cache.get(digest)
            if blob is None:
                # Evicted between admission and dispatch: same typed
                # miss as at admission; the client re-uploads.
                for request in batch:
                    request.fail(
                        protocol.NEED_TRACE,
                        f"trace bundle {digest} is no longer cached here",
                        digest=digest,
                    )
                    self._count_outcome(request.op, "need_trace", started)
                return
            job["trace_ref"] = digest
            if worker.needs_blob(digest):
                job["trace_blob"] = blob
        try:
            reply = worker.execute(job)
            if digest is not None and reply.get("need_blob") == digest:
                # The worker's decode cache dropped it (or a respawned
                # process answered): one bounded resend with the bytes.
                reply = worker.execute(dict(job, trace_blob=blob))
                if reply.get("need_blob"):
                    raise WorkerCrashed(
                        "worker still reports need_blob after resend")
        except WorkerCrashed as exc:
            for request in batch:
                request.fail(
                    protocol.WORKER_CRASHED,
                    f"worker crashed and retries were exhausted: {exc}",
                )
                self._count_outcome(request.op, "crashed", started)
            return
        self._merge_telemetry(reply.get("telemetry") or {})
        self._deliver(batch, slots, reply["results"], started)

    @staticmethod
    def _explode_simulate(batch: list[Admitted]):
        """Flatten simulate requests into per-configuration items.

        One request may carry ``machine`` (single config) or
        ``machines`` (a client-side sweep); either way the worker sees a
        flat item list and ``slots`` remembers which request and which
        result position every item belongs to."""
        items: list[dict] = []
        slots: list[tuple[Admitted, int | None]] = []
        for request in batch:
            shared = {
                k: v for k, v in request.params.items()
                if k not in ("machine", "machines")
            }
            machines = request.params.get("machines")
            if machines is None:
                items.append(
                    {**shared, "machine": request.params.get("machine")}
                )
                slots.append((request, None))
            else:
                if not isinstance(machines, list) or not machines:
                    machines = [None]
                for position, machine in enumerate(machines):
                    items.append({**shared, "machine": machine})
                    slots.append((request, position))
        return items, slots

    def _deliver(self, batch, slots, results, started: float) -> None:
        """Reassemble per-item results into per-request responses."""
        per_request: dict[int, list] = {}
        for (request, position), result in zip(slots, results):
            per_request.setdefault(id(request), []).append(
                (request, position, result)
            )
        for entries in per_request.values():
            request = entries[0][0]
            failures = [r for _, _, r in entries if not r["ok"]]
            if failures:
                error = failures[0]["error"]
                request.fail(error["code"], error["message"])
                self._count_outcome(request.op, "error", started)
                continue
            if entries[0][1] is None:       # single-result request
                payload = entries[0][2]["value"]
            else:                           # client-side sweep: ordered list
                ordered = sorted(entries, key=lambda e: e[1])
                payload = {"$list": [r["value"] for _, _, r in ordered]}
            request.respond(protocol.ok_response(request.request_id, payload))
            self._count_outcome(request.op, "ok", started)

    def _count_outcome(self, op: str, outcome: str, started: float) -> None:
        self.recorder.counter("serve.requests", op=op,
                              outcome=outcome).inc()
        self.recorder.histogram(
            "serve.latency.ms", bounds=_LATENCY_BOUNDS, op=op
        ).observe((time.monotonic() - started) * 1000.0)

    def _merge_telemetry(self, delta: dict) -> None:
        """Bridge worker telemetry counters (cache hits/misses/puts,
        simulation counts) into the server's metric registry."""
        for name, value in delta.items():
            if isinstance(value, (int, float)) and value:
                self.recorder.counter(f"serve.worker.{name}").inc(value)


def serve_forever(config: ServeConfig) -> int:
    """CLI foreground mode: start, announce, drain on SIGTERM/SIGINT."""
    server = ToolflowServer(config).start()
    server.install_signal_handlers()
    host, port = server.address
    print(f"t1000 serve: listening on {host}:{port} "
          f"({config.workers} worker(s), queue {config.max_queue}, "
          f"batch {config.max_batch})", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        server.stop()
    print("t1000 serve: drained, bye", flush=True)
    return 0
