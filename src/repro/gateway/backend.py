"""Async connection pool to one ``repro.serve`` backend.

A :class:`Backend` owns up to ``pool_size`` pipelined connections
(:class:`BackendLink`) to one ``host:port``.  Requests are forwarded
with gateway-assigned wire ids and resolved out of order by each
link's reader task, so many requests ride one connection — which is
exactly what lets the backend's micro-batcher coalesce the
same-key simulates the hash ring concentrates on it.

Failure semantics:

- a link whose connection drops fails every request in flight on it
  with :class:`BackendDied`; the awaiting dispatcher catches it and
  fails over (toolflow ops are pure functions of their payload, so
  replay on a surviving node is safe and byte-identical);
- a line over :data:`~repro.serve.protocol.MAX_LINE_BYTES` fails only
  its own request, with a typed :class:`~repro.serve.protocol.ServeError`:
  a relayed request line (which carries the gateway's own fields) is
  refused before it is sent, and an oversize response line is skipped
  so the link stays in sync and open;
- :meth:`Backend.execute` never retries by itself — retry policy
  (which node next, how many attempts) belongs to the gateway's
  dispatch loop, which can see the whole ring;
- a periodic health probe marks the backend unhealthy after
  ``fail_after`` consecutive failures (connection refused, timeout)
  and healthy again on the first success, re-adding it to the ring —
  a restarted backend rejoins without operator action.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import time
from typing import Any, Callable

from repro.serve import protocol

__all__ = ["Backend", "BackendDied"]


#: The wire id at the head of a response line (the backend writes
#: ``id`` first), read to fail the request an oversize line answers.
_WIRE_ID = re.compile(rb'\{"id":(\d+)[,}]')


class BackendDied(Exception):
    """The backend connection failed before this request was answered."""


class BackendLink:
    """One open pipelined connection to a backend."""

    def __init__(self, backend: "Backend"):
        self.backend = backend
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pump_task: asyncio.Task | None = None
        self._inflight: dict[int, asyncio.Future] = {}
        self._connecting: asyncio.Lock = asyncio.Lock()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _connect(self) -> None:
        async with self._connecting:
            if self._writer is not None:
                return
            host, port = self.backend.address
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(
                    host, port, limit=protocol.MAX_LINE_BYTES + 1),
                timeout=self.backend.connect_timeout,
            )
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump()
            )

    async def _pump(self) -> None:
        """Reader task: resolve responses to their futures by wire id."""
        reader = self._reader
        assert reader is not None
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.LimitOverrunError as exc:
                    await self._drop_oversize(reader, exc.consumed)
                    continue
                except asyncio.IncompleteReadError:
                    raise ConnectionError(
                        "backend closed the connection") from None
                response = protocol.parse_line(line)
                future = self._inflight.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, OSError, protocol.BadRequestError) as exc:
            self._fail_all(exc)
        except asyncio.CancelledError:
            self._fail_all(ConnectionError("link closed"))
            raise

    async def _drop_oversize(self, reader: asyncio.StreamReader,
                             buffered: int) -> None:
        """Skip one response line over the stream limit (``buffered``
        of its bytes are already read) and fail just the request it
        answers.  A line whose wire id cannot be read fails the link."""
        head = await reader.readexactly(min(buffered, 64))
        while True:
            try:
                await reader.readuntil(b"\n")
                break
            except asyncio.LimitOverrunError as exc:
                await reader.readexactly(exc.consumed)
        match = _WIRE_ID.match(head)
        if match is None:
            raise ConnectionError("oversize response line without a wire id")
        future = self._inflight.pop(int(match.group(1)), None)
        if future is not None and not future.done():
            future.set_exception(protocol.RemoteOpError(
                f"response line too large (over "
                f"{protocol.MAX_LINE_BYTES} bytes)"))

    def _fail_all(self, exc: Exception) -> None:
        self._writer = None
        self._reader = None
        pending = list(self._inflight.values())
        self._inflight.clear()
        for future in pending:
            if not future.done():
                future.set_exception(BackendDied(str(exc)))

    async def request(self, payload: dict, timeout: float,
                      frames: tuple = ()) -> dict:
        """Ship one request object (plus any binary ``frames``, written
        verbatim behind the JSON line) and await its response object.

        ``payload`` must already carry the gateway-assigned ``id``.
        Raises :class:`BackendDied` on any connection-level failure and a
        typed :class:`~repro.serve.protocol.ServeError` for a line over
        the cap (this request only).
        """
        line = protocol.dump_line(payload)
        if len(line) > protocol.MAX_LINE_BYTES:
            raise protocol.BadRequestError("request line too large")
        try:
            await self._connect()
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise BackendDied(f"connect failed: {exc}") from exc
        writer = self._writer
        if writer is None:      # a concurrent sender just failed the link
            raise BackendDied("connection lost before send")
        future = asyncio.get_running_loop().create_future()
        self._inflight[payload["id"]] = future
        try:
            writer.write(line)
            for frame in frames:
                writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError) as exc:
            # A concurrent ``_fail_all`` (another sender hit the same
            # dead transport during our ``drain`` suspension) may have
            # failed our future already — retrieve its exception, we
            # raise our own.
            self._inflight.pop(payload["id"], None)
            if future.done() and not future.cancelled():
                future.exception()
            self._fail_all(exc)
            raise BackendDied(f"send failed: {exc}") from exc
        try:
            return await asyncio.wait_for(future, timeout=timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError) as exc:
            # Abandoning the future: if ``_fail_all`` set its exception
            # in the same tick the timeout/cancel fired, retrieve it so
            # the loop's never-retrieved warning stays meaningful.
            self._inflight.pop(payload["id"], None)
            if future.done() and not future.cancelled():
                future.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise
            raise BackendDied(
                f"no response within {timeout:.1f}s"
            ) from None

    async def close(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except (asyncio.CancelledError, Exception):
                pass
            self._pump_task = None
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None
            self._reader = None


class Backend:
    """One backend node: a link pool plus health state."""

    def __init__(
        self,
        name: str,
        *,
        pool_size: int = 2,
        connect_timeout: float = 5.0,
        health_interval: float = 1.0,
        health_timeout: float = 3.0,
        fail_after: int = 2,
        on_health_change: Callable[["Backend", bool], None] | None = None,
    ):
        host, _, port = name.rpartition(":")
        self.name = name
        self.address = (host, int(port))
        self.connect_timeout = connect_timeout
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.fail_after = fail_after
        self.on_health_change = on_health_change
        self.healthy = True
        self.consecutive_failures = 0
        self.requests = 0          # routed-to counter (ring balance)
        self._links = [BackendLink(self) for _ in range(max(1, pool_size))]
        self._ids = itertools.count(1)
        self._monitor_task: asyncio.Task | None = None
        self._closing = False
        self.last_health: dict | None = None

    # ------------------------------------------------------------------

    def _link(self) -> BackendLink:
        """Least-loaded link (connected links preferred)."""
        return min(
            self._links,
            key=lambda link: (not link.connected, link.inflight),
        )

    def next_id(self) -> int:
        return next(self._ids)

    async def execute(self, op: str, params: dict,
                      timeout_ms: int, klass: str | None = None,
                      frames: tuple = ()) -> dict:
        """Forward one toolflow request; returns the backend's raw
        response object (``id`` still the gateway's wire id).  Raises
        :class:`BackendDied` on connection-level failure — the caller
        decides where to fail over — and a typed
        :class:`~repro.serve.protocol.ServeError` when the request or
        its answer does not fit a wire line.  ``frames`` are the
        request's binary attachments, relayed untouched."""
        payload: dict[str, Any] = {
            "id": self.next_id(), "op": op, "params": params,
            "timeout_ms": timeout_ms,
        }
        if klass is not None:
            payload["class"] = klass
        if frames:
            payload["frames"] = [len(frame) for frame in frames]
        self.requests += 1
        # Socket-level guard slightly beyond the server-side deadline so
        # a live backend always answers first (possibly with its own
        # deadline_exceeded), and only a dead one trips the guard.
        timeout = timeout_ms / 1000.0 + self.health_timeout
        return await self._link().request(payload, timeout, frames=frames)

    # ------------------------------------------------------------------
    # health

    async def probe(self) -> bool:
        """One health round trip; flips :attr:`healthy` state machine."""
        try:
            response = await self._link().request(
                {"id": self.next_id(), "op": "health"},
                timeout=self.health_timeout,
            )
            ok = bool(response.get("ok"))
            if ok:
                self.last_health = response.get("result")
        except BackendDied:
            ok = False
        if ok:
            self.consecutive_failures = 0
            if not self.healthy:
                self._set_health(True)
        else:
            self.consecutive_failures += 1
            if self.healthy and self.consecutive_failures >= self.fail_after:
                self._set_health(False)
        return ok

    def mark_dead(self) -> None:
        """Immediate unhealthy transition (a link just died mid-request
        — no reason to wait for the next probe)."""
        self.consecutive_failures = max(
            self.consecutive_failures, self.fail_after
        )
        if self.healthy:
            self._set_health(False)

    def _set_health(self, healthy: bool) -> None:
        self.healthy = healthy
        if self.on_health_change is not None:
            self.on_health_change(self, healthy)

    async def monitor(self) -> None:
        """Periodic health loop (runs until cancelled or closed).

        The explicit ``_closing`` check matters: a cancel that lands
        exactly as a probe's response future resolves can be swallowed
        inside ``wait_for``, and :meth:`close` must still see this
        task finish within one health interval."""
        while not self._closing:
            await self.probe()
            await asyncio.sleep(self.health_interval)

    def start_monitor(self) -> None:
        if self._monitor_task is None:
            self._monitor_task = asyncio.get_running_loop().create_task(
                self.monitor()
            )

    async def close(self) -> None:
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for link in self._links:
            await link.close()

    def snapshot(self) -> dict:
        """Health/traffic summary for the gateway's ``stats``."""
        return {
            "name": self.name,
            "healthy": self.healthy,
            "requests": self.requests,
            "inflight": sum(link.inflight for link in self._links),
            "consecutive_failures": self.consecutive_failures,
        }
