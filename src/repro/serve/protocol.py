"""Wire protocol for the toolflow service.

Two framings share one value codec:

- **client <-> server**: line-delimited JSON (one request or response
  object per ``\\n``-terminated line, UTF-8).  Requests look like::

      {"id": 7, "op": "simulate", "params": {...}, "timeout_ms": 30000}

  and responses either ``{"id": 7, "ok": true, "result": ...}`` or
  ``{"id": 7, "ok": false, "error": {"code": "...", "message": "..."}}``.
  The ``id`` is chosen by the client and echoed verbatim, so a client
  may pipeline requests and correlate out-of-order responses.

- **server <-> worker**: length-prefixed frames over the worker
  subprocess's stdin/stdout pipes (``!I`` byte count, a one-byte kind
  tag, then the payload).  Kind ``J`` is compact JSON with binary
  chunks hoisted out-of-band — the hot path, since by-ref simulate
  jobs carry their trace bundle as raw bytes that then ride the pipe
  without a pickle copy; kind ``P`` is a pickle frame, kept as the
  fallback for jobs JSON cannot carry.  Pickle never crosses the
  network unparsed: the server process forwards client payloads
  opaquely and only the sandboxed-ish worker process decodes them.

A request line may also declare binary **attachments**: a top-level
``"frames": [nbytes, ...]`` list means that many raw binary frames
follow the newline, back to back.  Frame bytes are never JSON-escaped
or base64'd — the ``put_trace`` op uses this to upload a
:mod:`repro.wire` simulate bundle, and the digest-addressed
``$trace_ref`` form of ``simulate`` then refers to it by content
digest (a cache miss answers the typed :data:`NEED_TRACE` error and
the client re-uploads once).  Responses stay pure JSON lines, so they
remain byte-identical across the by-reference and plain paths and the
gateway can relay them verbatim.

Rich toolflow values travel inside the JSON as tagged envelopes
(:func:`encode_value` / :func:`decode_value`): :class:`SimStats` and
:class:`Selection` have faithful pure-JSON codecs and use them (so a
batched ``simulate`` response is byte-comparable to a serial one);
everything else (``Program``, ``ProgramProfile``, ``DynTrace``,
``ext_defs`` tables, ``MachineConfig``) rides as base64 pickle.

.. warning::
   The pickle envelopes mean the service must only be exposed to
   trusted callers (it binds to localhost by default); see
   ``docs/serving.md``.
"""

from __future__ import annotations

import base64
import json
import math
import pickle
import struct
from typing import Any, BinaryIO

from repro.errors import ReproError
from repro.wire import DEFAULT_MAX_STEPS  # noqa: F401  (re-export)

#: Protocol version, echoed by the ``health`` endpoint.
PROTOCOL_VERSION = 1

#: Hard cap on one JSON line (64 MiB) — guards the server against a
#: runaway or malicious client stream.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Hard cap on the total binary attachment bytes one request may
#: declare via ``"frames"`` (256 MiB).
MAX_FRAME_BYTES = 256 * 1024 * 1024

# ----------------------------------------------------------------------
# error codes

#: Request rejected at admission: the bounded queue is full.  The client
#: should back off and retry (the response carries ``retry_after_ms``).
OVERLOADED = "overloaded"
#: The request's deadline passed while it was queued (or the server
#: default timeout elapsed); it was never executed.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: The request was malformed (unknown op, bad JSON, missing params).
BAD_REQUEST = "bad_request"
#: The operation raised inside the worker; ``message`` carries the
#: exception text.
OP_FAILED = "op_failed"
#: The worker executing the request crashed and retries were exhausted.
WORKER_CRASHED = "worker_crashed"
#: The server is draining and no longer admits new work.
SHUTTING_DOWN = "shutting_down"
#: A ``$trace_ref`` digest is not (or no longer) in this backend's
#: trace cache; the client should ``put_trace`` the bundle and retry.
NEED_TRACE = "need_trace"

ERROR_CODES = frozenset({
    OVERLOADED, DEADLINE_EXCEEDED, BAD_REQUEST, OP_FAILED,
    WORKER_CRASHED, SHUTTING_DOWN, NEED_TRACE,
})

#: The five toolflow operations (mirroring :mod:`repro.api`) plus the
#: two inline endpoints answered by the server itself.
TOOLFLOW_OPS = ("compile", "profile", "select", "rewrite", "simulate")
INLINE_OPS = ("health", "stats")
#: Uploads a :mod:`repro.wire` simulate bundle (the request's first
#: binary attachment) into the backend's digest-addressed trace cache.
PUT_TRACE_OP = "put_trace"


class ServeError(ReproError):
    """Base class for service-level failures, tagged with a wire code."""

    code = OP_FAILED

    def __init__(self, message: str, **details: Any):
        self.details = details
        super().__init__(message)


class OverloadedError(ServeError):
    """The server refused admission; retry after ``retry_after_ms``."""

    code = OVERLOADED

    @property
    def retry_after_ms(self) -> int:
        return int(self.details.get("retry_after_ms", 100))


class DeadlineExceededError(ServeError):
    code = DEADLINE_EXCEEDED


class BadRequestError(ServeError):
    code = BAD_REQUEST


class RemoteOpError(ServeError):
    """The toolflow operation itself raised on the server side."""

    code = OP_FAILED


class WorkerCrashedError(ServeError):
    code = WORKER_CRASHED


class ServerClosedError(ServeError):
    code = SHUTTING_DOWN


class NeedTraceError(ServeError):
    """The referenced trace bundle is not cached on this backend.

    :class:`~repro.serve.client.ServeClient` treats this as a
    self-healing miss: upload the bundle with ``put_trace``, retry the
    request once."""

    code = NEED_TRACE

    @property
    def digest(self) -> str:
        return str(self.details.get("digest", ""))


_ERROR_CLASSES: dict[str, type[ServeError]] = {
    OVERLOADED: OverloadedError,
    DEADLINE_EXCEEDED: DeadlineExceededError,
    BAD_REQUEST: BadRequestError,
    OP_FAILED: RemoteOpError,
    WORKER_CRASHED: WorkerCrashedError,
    SHUTTING_DOWN: ServerClosedError,
    NEED_TRACE: NeedTraceError,
}


def error_for(code: str, message: str, **details: Any) -> ServeError:
    """The typed client-side exception for a wire error payload."""
    cls = _ERROR_CLASSES.get(code, RemoteOpError)
    return cls(message, **details)


# ----------------------------------------------------------------------
# value codec


def encode_value(value: Any) -> Any:
    """JSON-safe envelope for a toolflow value.

    Scalars and ``None`` pass through; lists/dicts are encoded
    recursively; :class:`~repro.sim.ooo.SimStats` and
    :class:`~repro.extinst.Selection` use their pure-JSON codecs (so
    responses are byte-comparable across transports); every other
    object becomes a base64 pickle envelope.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Late imports: the codec must not force the simulator stack into
    # thin clients that only ship scalars.
    from repro.engine.store import stats_to_json
    from repro.extinst import Selection
    from repro.extinst.serialize import selection_to_json
    from repro.sim.ooo import SimStats

    if isinstance(value, SimStats):
        return {"$stats": stats_to_json(value)}
    if isinstance(value, Selection):
        return {"$selection": selection_to_json(value)}
    from repro.sim.ooo import MachineConfig

    if type(value) is MachineConfig:
        return {"$machine": _machine_to_json(value)}
    if isinstance(value, (list, tuple)):
        return {"$list": [encode_value(item) for item in value]}
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not any(k.startswith("$") for k in value):
            return {k: encode_value(v) for k, v in value.items()}
    return {"$pickle": base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")}


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if "$pickle" in value:
            return pickle.loads(base64.b64decode(value["$pickle"]))
        if "$stats" in value:
            from repro.engine.store import stats_from_json

            return stats_from_json(value["$stats"])
        if "$selection" in value:
            from repro.extinst.serialize import selection_from_json

            return selection_from_json(value["$selection"])
        if "$list" in value:
            return [decode_value(item) for item in value["$list"]]
        if "$machine" in value:
            return _machine_from_json(value["$machine"])
        return {k: decode_value(v) for k, v in value.items()}
    raise BadRequestError(f"cannot decode wire value of type {type(value)!r}")


def _machine_to_json(config) -> dict:
    """A ``MachineConfig`` as the sparse dict of non-default fields.

    Sweep requests carry one of these per point; most points differ
    from the default machine in one or two fields, so the sparse form
    keeps by-reference simulate requests at ~100 bytes where the pickle
    envelope costs ~1 KiB."""
    import dataclasses

    doc = dataclasses.asdict(config)
    defaults = dataclasses.asdict(type(config)())
    return {k: v for k, v in doc.items() if v != defaults[k]}


def _machine_from_json(doc: Any) -> Any:
    """Inverse of :func:`_machine_to_json`."""
    from repro.sim.cache.cache import CacheConfig
    from repro.sim.cache.hierarchy import HierarchyConfig
    from repro.sim.cache.tlb import TLBConfig
    from repro.sim.ooo import MachineConfig

    if not isinstance(doc, dict):
        raise BadRequestError("$machine envelope must carry an object")
    try:
        kwargs = dict(doc)
        if "hierarchy" in kwargs:
            tree = kwargs["hierarchy"]
            kwargs["hierarchy"] = HierarchyConfig(
                il1=CacheConfig(**tree["il1"]),
                dl1=CacheConfig(**tree["dl1"]),
                ul2=CacheConfig(**tree["ul2"]),
                itlb=TLBConfig(**tree["itlb"]),
                dtlb=TLBConfig(**tree["dtlb"]),
                mem_latency=tree["mem_latency"],
            )
        return MachineConfig(**kwargs)
    except (TypeError, KeyError, ReproError) as exc:
        raise BadRequestError(f"bad $machine envelope: {exc}") from exc


def blob_digest(value: Any) -> str:
    """Stable digest of an *encoded* wire value (micro-batch grouping,
    gateway routing).

    The input must already be JSON-safe (i.e. have passed through
    :func:`encode_value`); a raw object raises a typed
    :class:`BadRequestError` rather than being silently ``repr``-ed
    into the digest, which would make "equal" payloads digest unequal
    across processes."""
    import hashlib

    try:
        blob = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"cannot digest non-JSON-safe wire value: {exc}"
        ) from None
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# JSON-lines framing (client <-> server)


def dump_line(obj: dict) -> bytes:
    """One wire line for ``obj`` (compact JSON + newline).

    Raises a typed :class:`BadRequestError` if ``obj`` holds a value
    JSON cannot represent — a payload that was never routed through
    :func:`encode_value` must fail loudly, not get ``repr``-stringified
    into a response the client would happily decode."""
    try:
        return json.dumps(obj, separators=(",", ":")).encode() + b"\n"
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"payload is not JSON-safe (missing encode_value?): {exc}"
        ) from None


def parse_line(line: bytes) -> dict:
    """Parse one wire line; raises :class:`BadRequestError` on garbage."""
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"malformed JSON line: {exc}") from None
    if not isinstance(obj, dict):
        raise BadRequestError("wire line is not a JSON object")
    return obj


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, code: str, message: str, **details: Any
) -> dict:
    error: dict[str, Any] = {"code": code, "message": message}
    if details:
        error.update(details)
    return {"id": request_id, "ok": False, "error": error}


# ----------------------------------------------------------------------
# the request front door (shared by the serve backend and the gateway)


def validate_request(request: dict, allowed_ops,
                     default_timeout_ms: int) -> tuple[str, dict, Any]:
    """``(op, params, timeout_ms)`` for one parsed request line.

    Raises :class:`BadRequestError` for an op outside ``allowed_ops``,
    non-object params, a ``trace_ref`` that is not a string simulate
    param, a non-integer simulate ``max_steps``, or a ``timeout_ms``
    that is not a finite positive number (booleans, ``NaN``,
    ``Infinity`` and overflowing literals such as ``1e400`` included).
    """
    op = request.get("op")
    if op not in allowed_ops:
        raise BadRequestError(f"unknown op {op!r}")
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise BadRequestError("params must be an object")
    digest = params.get("trace_ref")
    if digest is not None and (op != "simulate"
                               or not isinstance(digest, str)):
        raise BadRequestError(
            "trace_ref is only valid as a string simulate param")
    if op == "simulate" and "max_steps" in params and not _is_int(
            params["max_steps"]):
        # routing_key stringifies max_steps: 5 and "5" must not share
        # a batch.
        raise BadRequestError(
            f"max_steps must be an integer, got {params['max_steps']!r}")
    timeout_ms = request.get("timeout_ms", default_timeout_ms)
    if not (isinstance(timeout_ms, (int, float))
            and not isinstance(timeout_ms, bool)
            and timeout_ms > 0 and _finite(timeout_ms)):
        raise BadRequestError(f"bad timeout_ms {timeout_ms!r}")
    return op, params, timeout_ms


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(number: float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:       # an int too large for a float
        return False


def frame_sizes(declared: Any) -> list[int]:
    """Check a request's ``"frames"`` declaration; returns it.

    Raises :class:`BadRequestError` unless it is a list of
    non-negative byte counts within :data:`MAX_FRAME_BYTES` in total.
    The frame bytes follow on the stream regardless, so a front-end
    must drop the connection after a bad declaration."""
    if not isinstance(declared, list) or not all(
            _is_int(n) and n >= 0 for n in declared):
        raise BadRequestError(
            "frames must be a list of non-negative byte counts")
    if sum(declared) > MAX_FRAME_BYTES:
        raise BadRequestError(
            f"frames declare {sum(declared)} bytes, cap is "
            f"{MAX_FRAME_BYTES}")
    return declared


def routing_key(op: str, params: dict) -> str:
    """Stable payload key: requests that benefit from landing on the
    same backend, or in the same batch, share a key.

    The gateway routes on it over its hash ring, and the backend
    batches ``simulate`` requests on it, so everything the ring sends
    to one node is also coalescible there.  ``simulate`` keys on the
    trace-determining payload (program, ext_defs, max_steps); the
    machine config deliberately stays out — differing configs are
    exactly what one batched sweep amortises.  A by-ref simulate *is*
    that digest already, and ``put_trace`` shares its key — the upload
    lands on the exact backend the sweep routes to (and after a
    failover, on the new ring owner).  ``profile``/``rewrite`` key on
    the program, ``select`` on the profile, ``compile`` on the source
    payload; all hit the same backend's warm artifact cache on repeats.
    """
    if op == PUT_TRACE_OP:
        return f"simulate|ref:{params.get('digest')}"
    if op == "simulate":
        digest = params.get("trace_ref")
        if digest is not None:
            return f"simulate|ref:{digest}"
        return "|".join((
            "simulate",
            blob_digest(params.get("program")),
            blob_digest(params.get("ext_defs")),
            str(params.get("max_steps", 50_000_000)),
        ))
    if op in ("profile", "rewrite"):
        return f"{op}|{blob_digest(params.get('program'))}"
    if op == "select":
        return f"select|{blob_digest(params.get('profile'))}"
    return f"{op}|{blob_digest(params)}"


# ----------------------------------------------------------------------
# length-prefixed framing (server <-> worker pipes)
#
# Frame layout: ``!I`` total byte count, one kind byte, payload.
#
# - kind ``J``: ``!I`` json length, compact-JSON doc, then raw binary
#   chunks back to back.  The doc is ``{"body": ..., "chunks":
#   [nbytes, ...]}`` where every ``bytes``-like value in the original
#   object was hoisted into the chunk tail and replaced by a
#   ``{"$bin": i}`` marker — so a by-ref simulate job's trace bundle
#   crosses the pipe without a pickle copy.
# - kind ``P``: a pickled object — the fallback for payloads JSON
#   cannot carry.

_FRAME_HEADER = struct.Struct("!I")
_FRAME_PICKLE = b"P"
_FRAME_JSON = b"J"


def _hoist_binary(value: Any, chunks: list) -> Any:
    """``value`` with bytes-likes swapped for ``{"$bin": i}`` markers
    (chunks appended in marker order).  Raises :class:`TypeError` for
    shapes JSON can't carry, triggering the pickle fallback."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        chunks.append(value)
        return {"$bin": len(chunks) - 1}
    if isinstance(value, (list, tuple)):
        return [_hoist_binary(item, chunks) for item in value]
    if isinstance(value, dict):
        if "$bin" in value:
            raise TypeError("payload already carries a $bin marker")
        return {k: _hoist_binary(v, chunks) for k, v in value.items()}
    return value


def _lower_binary(value: Any, chunks: list) -> Any:
    """Inverse of :func:`_hoist_binary`."""
    if isinstance(value, list):
        return [_lower_binary(item, chunks) for item in value]
    if isinstance(value, dict):
        if set(value) == {"$bin"}:
            return chunks[value["$bin"]]
        return {k: _lower_binary(v, chunks) for k, v in value.items()}
    return value


def write_frame(stream: BinaryIO, obj: Any) -> None:
    """Write one tagged frame and flush.

    Prefers the ``J`` kind (JSON body + out-of-band binary chunks,
    written without re-copying the chunks); falls back to pickle for
    payloads JSON cannot carry."""
    chunks: list = []
    try:
        doc = json.dumps(
            {"body": _hoist_binary(obj, chunks),
             "chunks": [len(c) for c in chunks]},
            separators=(",", ":"),
        ).encode()
    except (TypeError, ValueError):
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        stream.write(_FRAME_HEADER.pack(len(payload) + 1) + _FRAME_PICKLE)
        stream.write(payload)
        stream.flush()
        return
    total = 1 + _FRAME_HEADER.size + len(doc) + sum(len(c) for c in chunks)
    stream.write(_FRAME_HEADER.pack(total) + _FRAME_JSON
                 + _FRAME_HEADER.pack(len(doc)) + doc)
    for chunk in chunks:
        stream.write(chunk)
    stream.flush()


def _read_exact(stream: BinaryIO, length: int) -> bytes:
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise EOFError("truncated frame payload")
        payload += chunk
    return payload


def read_frame(stream: BinaryIO) -> Any | None:
    """Read one tagged frame (either kind — the reader always speaks
    both); ``None`` on a clean EOF at a frame boundary,
    :class:`EOFError` on a truncated frame."""
    header = stream.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _FRAME_HEADER.unpack(header)
    payload = _read_exact(stream, length)
    kind, payload = payload[:1], payload[1:]
    if kind == _FRAME_PICKLE:
        return pickle.loads(payload)
    if kind != _FRAME_JSON:
        raise EOFError(f"unknown pipe frame kind {kind!r}")
    (doc_len,) = _FRAME_HEADER.unpack_from(payload)
    doc = json.loads(payload[_FRAME_HEADER.size:_FRAME_HEADER.size + doc_len])
    chunks, offset = [], _FRAME_HEADER.size + doc_len
    for nbytes in doc["chunks"]:
        chunks.append(payload[offset:offset + nbytes])
        offset += nbytes
    return _lower_binary(doc["body"], chunks)
