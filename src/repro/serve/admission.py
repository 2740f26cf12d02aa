"""The admission policy shared by the serve backend and the gateway.

Both front-ends admit requests through one :class:`AdmissionPolicy`;
only the way a dispatcher *waits* for work differs (a
``threading.Condition`` plus a batch linger in
:class:`~repro.serve.server.ToolflowServer`, an ``asyncio.Event`` in
:class:`~repro.gateway.server.Gateway`).  The policy is the service's
backpressure contract:

- **bounded admission** — each class has its own bounded FIFO; a full
  class rejects *that class only* with an ``overloaded`` verdict (the
  front-end answers it with a ``retry_after_ms`` hint) instead of
  queueing unboundedly;
- **priority** — classes dequeue in strict priority order, so the
  gateway's ``interactive`` traffic is never starved by a running
  ``sweep``;
- **deadlines** — every entry carries an absolute monotonic deadline;
  entries that expire while queued are failed with
  ``deadline_exceeded`` at dequeue time, never dispatched;
- **micro-batching** — with ``max_batch`` > 1, queued entries sharing
  the head's key (:func:`~repro.serve.protocol.routing_key`) are handed
  out with it as one batch, which the worker turns into a single
  shared-trace :func:`~repro.sim.ooo.simulate_many` sweep.  Entries
  with no key never batch.

The policy never touches sockets, workers or locks: entries carry their
own ``respond`` callable, so expiry is answered from inside the policy,
and the caller serialises access (the backend holds its condition's
lock; the gateway runs on one event loop).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.serve import protocol

__all__ = [
    "DEFAULT_CLASS", "INTERACTIVE", "SWEEP", "ADMISSION_CLASSES",
    "Admitted", "AdmissionPolicy",
]

#: The serve backend's single class: it admits in plain FIFO order.
DEFAULT_CLASS = "default"

INTERACTIVE = "interactive"
SWEEP = "sweep"

#: The gateway's classes in priority order: earlier classes dequeue
#: first.
ADMISSION_CLASSES = (INTERACTIVE, SWEEP)


@dataclass
class Admitted:
    """One admitted request waiting for (or undergoing) execution."""

    request_id: Any
    op: str
    #: Raw still-encoded wire params: neither the server process nor
    #: the gateway decodes payload blobs — only the worker does.
    params: dict
    klass: str
    #: Absolute monotonic deadline (from the request's ``timeout_ms``).
    deadline: float
    respond: Callable[[dict], None]
    #: Payload key: the gateway routes on it, and queued entries
    #: sharing it may be dispatched as one batch; ``None`` never
    #: batches.
    key: Any = None
    #: Binary attachments (``put_trace`` bundles), held until the entry
    #: resolves so a gateway failover re-ships them to the next node.
    frames: tuple = ()
    enqueued_at: float = field(default_factory=time.monotonic)

    def expired(self, now: float | None = None) -> bool:
        return (now if now is not None else time.monotonic()) > self.deadline

    def remaining_ms(self, now: float | None = None) -> int:
        now = now if now is not None else time.monotonic()
        return max(1, int((self.deadline - now) * 1000))

    def fail(self, code: str, message: str, **details: Any) -> None:
        self.respond(protocol.error_response(
            self.request_id, code, message, **details
        ))


class AdmissionPolicy:
    """Bounded per-class FIFOs with strict-priority, batch-aware dequeue.

    ``limits`` maps each class to its bound, in priority order.
    Metrics go to ``recorder`` under ``scope`` (``<scope>.queue.depth``
    and ``<scope>.rejected{reason}``), labelled with ``klass`` when
    there is more than one class; ``where`` names the queue in expiry
    messages.
    """

    def __init__(self, limits: Mapping[str, int], max_batch: int = 1,
                 recorder=None, scope: str = "serve",
                 where: str = "queue"):
        self.limits = dict(limits)
        self.max_batch = max_batch
        self.closed = False
        self._queues: dict[str, deque[Admitted]] = {
            klass: deque() for klass in self.limits
        }
        self._recorder = recorder
        self._scope = scope
        self._where = where
        self._gauges = {
            klass: recorder.gauge(f"{scope}.queue.depth",
                                  **self._labels(klass))
            for klass in self.limits
        } if recorder is not None else {}

    def _labels(self, klass: str) -> dict:
        return {"klass": klass} if len(self.limits) > 1 else {}

    def _reject(self, reason: str, klass: str) -> None:
        if self._recorder is not None:
            self._recorder.counter(f"{self._scope}.rejected", reason=reason,
                                   **self._labels(klass)).inc()

    def _gauge(self, klass: str) -> None:
        if self._gauges:
            self._gauges[klass].set(len(self._queues[klass]))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def depth(self, klass: str) -> int:
        return len(self._queues[klass])

    def submit(self, entry: Admitted) -> str | None:
        """Admit ``entry``; ``None`` on success or the rejection code
        (:data:`~repro.serve.protocol.OVERLOADED` /
        :data:`~repro.serve.protocol.SHUTTING_DOWN`).  The caller
        answers rejected entries; admitted ones are answered by a
        dispatcher (or by expiry)."""
        if self.closed:
            return protocol.SHUTTING_DOWN
        queue = self._queues[entry.klass]
        if len(queue) >= self.limits[entry.klass]:
            self._reject("overloaded", entry.klass)
            return protocol.OVERLOADED
        queue.append(entry)
        self._gauge(entry.klass)
        return None

    def close(self) -> None:
        """Stop admitting; queued entries still dequeue (drain)."""
        self.closed = True

    def _expire(self, entry: Admitted, now: float) -> None:
        self._reject("deadline", entry.klass)
        entry.fail(
            protocol.DEADLINE_EXCEEDED,
            f"deadline expired after "
            f"{now - entry.enqueued_at:.3f}s in {self._where}",
        )

    def take(self) -> list[Admitted]:
        """The next batch: the highest-priority live entry plus its
        queued batchmates; ``[]`` when nothing live is queued.  Expired
        entries met on the way are failed and skipped."""
        now = time.monotonic()
        for klass, queue in self._queues.items():
            while queue:
                head = queue.popleft()
                self._gauge(klass)
                if head.expired(now):
                    self._expire(head, now)
                    continue
                batch = [head]
                self.top_up(batch, now)
                return batch
        return []

    def top_up(self, batch: list[Admitted],
               now: float | None = None) -> None:
        """Move queued entries sharing ``batch[0]``'s key into
        ``batch``, up to ``max_batch``, keeping the rest in order."""
        head = batch[0]
        queue = self._queues[head.klass]
        if head.key is None or len(batch) >= self.max_batch or not queue:
            return
        now = time.monotonic() if now is None else now
        kept: list[Admitted] = []
        while queue and len(batch) < self.max_batch:
            candidate = queue.popleft()
            if candidate.key != head.key:
                kept.append(candidate)
            elif candidate.expired(now):
                self._expire(candidate, now)
            else:
                batch.append(candidate)
        queue.extendleft(reversed(kept))
        self._gauge(head.klass)
