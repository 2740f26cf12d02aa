"""Compact binary framing for columnar traces and simulate payloads.

This is the low-level codec behind the serve/gateway zero-copy wire
path (see ``docs/serving.md``, "Binary frames"):

- **columnar frames** carry the two :class:`~repro.sim.trace.DynTrace`
  columns (or any set of integer ``array`` columns) as a small header
  followed by the raw column bytes.  Encoding produces a *chunk list* —
  the header plus one ``memoryview`` per column — so senders can write
  vectored without ever copying the column data; decoding validates the
  header and does exactly one ``frombytes`` per column.
- **simulate bundles** wrap the trace-determining payload of a
  ``simulate`` request — program, ``ext_defs``, ``max_steps``, and
  optionally the dynamic trace as a columnar frame — into one
  digest-addressed blob.  The digest is content-derived (sha256 prefix
  of the encoded bytes), so a cache entry is self-certifying: the
  server re-hashes an uploaded bundle before trusting its digest.

The module deliberately depends on nothing above :mod:`repro.errors`,
so :mod:`repro.serve.protocol` can re-export it for the network path
without an import cycle.

Byte order is little-endian canonical.  On a big-endian host the
encoder byteswaps into a copy and the decoder swaps back after
``frombytes`` — the frame bytes (and therefore the digests) are
identical across hosts.

.. warning::
   Bundles embed pickled ``Program``/``ExtInstDef`` objects and are
   decoded inside worker processes; like the rest of the serve wire
   they must only be accepted from trusted callers (``docs/serving.md``,
   "Trust boundary").
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ReproError

__all__ = [
    "FrameError",
    "WIRE_VERSION",
    "DEFAULT_MAX_STEPS",
    "column_chunks",
    "decode_columns",
    "trace_chunks",
    "trace_from_bytes",
    "SimulateBundle",
    "bundle_chunks",
    "decode_bundle",
    "chunks_digest",
]

#: Version stamped into every frame header.
WIRE_VERSION = 1

#: The server-side ``max_steps`` default, shared so a bundle built
#: without an explicit cap digests identically to one built with it.
DEFAULT_MAX_STEPS = 50_000_000

_COLUMNS_MAGIC = b"RTC1"
_BUNDLE_MAGIC = b"RSB1"

# <magic, version, ncols>
_COLUMNS_HEADER = struct.Struct("<4sHH")
# <typecode, itemsize, reserved, count> per column
_COLUMN_DESC = struct.Struct("<cBHQ")
# <magic, version, flags, reserved, max_steps, program_len, ext_defs_len>
_BUNDLE_HEADER = struct.Struct("<4sHBxQII")
_BUNDLE_HAS_TRACE = 0x01

#: Integer array typecodes a column frame may carry.
_COLUMN_TYPECODES = frozenset("bBhHiIlLqQ")

_BIG_ENDIAN = sys.byteorder == "big"


class FrameError(ReproError):
    """A binary frame failed validation (bad magic, truncation,
    typecode/itemsize mismatch, digest mismatch)."""


# ----------------------------------------------------------------------
# columnar frames


def _column_buffer(column: Any) -> memoryview:
    """A typed ``memoryview`` of one column (zero-copy).

    Accepts a plain :class:`array.array` or a ``memoryview``."""
    view = column if isinstance(column, memoryview) else memoryview(column)
    if view.format not in _COLUMN_TYPECODES:
        raise FrameError(
            f"cannot frame column of format {view.format!r} "
            f"(integer array columns only)"
        )
    return view


def column_chunks(*columns: Any) -> list:
    """Encode ``columns`` as one frame, returned as a chunk list.

    The first chunk is the header (``bytes``); each following chunk is
    that column's raw data as a ``memoryview`` straight into the
    caller's buffer — no copy is made on the send side (vectored writes
    such as ``socket.sendmsg`` or sequential ``write`` calls ship them
    directly).  On a big-endian host the data chunks are byteswapped
    copies so the frame bytes stay canonical little-endian.
    """
    views = [_column_buffer(column) for column in columns]
    header = bytearray(_COLUMNS_HEADER.pack(
        _COLUMNS_MAGIC, WIRE_VERSION, len(views)
    ))
    chunks: list = [None]  # header placeholder
    for view in views:
        header += _COLUMN_DESC.pack(
            view.format.encode("ascii"), view.itemsize, 0, len(view)
        )
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
            swapped = array(view.format)
            swapped.frombytes(view.cast("B"))
            swapped.byteswap()
            chunks.append(swapped.tobytes())
        else:
            chunks.append(view.cast("B"))
    chunks[0] = bytes(header)
    return chunks


def decode_columns(buf) -> list[array]:
    """Decode one columnar frame into plain :class:`array.array`
    columns (a single ``frombytes`` each).

    Raises :class:`FrameError` on bad magic, unsupported version,
    unknown typecode, an itemsize that does not match this host's
    ``array`` itemsize for the stored typecode, or a length mismatch
    (truncated frame / trailing bytes)."""
    view = memoryview(buf).cast("B")
    if len(view) < _COLUMNS_HEADER.size:
        raise FrameError(
            f"truncated column frame: {len(view)} byte(s), "
            f"need at least {_COLUMNS_HEADER.size} for the header"
        )
    magic, version, ncols = _COLUMNS_HEADER.unpack_from(view, 0)
    if magic != _COLUMNS_MAGIC:
        raise FrameError(f"bad column-frame magic {bytes(magic)!r}")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported column-frame version {version}")
    offset = _COLUMNS_HEADER.size
    descs = []
    for _ in range(ncols):
        if offset + _COLUMN_DESC.size > len(view):
            raise FrameError("truncated column frame: header cut short")
        typecode, itemsize, _reserved, count = _COLUMN_DESC.unpack_from(
            view, offset
        )
        offset += _COLUMN_DESC.size
        tc = typecode.decode("ascii", errors="replace")
        if tc not in _COLUMN_TYPECODES:
            raise FrameError(f"unknown column typecode {tc!r}")
        if itemsize != array(tc).itemsize:
            raise FrameError(
                f"column typecode/itemsize mismatch: typecode {tc!r} "
                f"is {array(tc).itemsize} byte(s) on this host, frame "
                f"says {itemsize}"
            )
        descs.append((tc, itemsize, count))
    expected = offset + sum(itemsize * count for _, itemsize, count in descs)
    if len(view) < expected:
        raise FrameError(
            f"truncated column frame: {len(view)} byte(s), "
            f"header promises {expected}"
        )
    if len(view) > expected:
        raise FrameError(
            f"oversized column frame: {len(view) - expected} trailing "
            f"byte(s) after the promised {expected}"
        )
    columns = []
    for tc, itemsize, count in descs:
        nbytes = itemsize * count
        column = array(tc)
        column.frombytes(view[offset:offset + nbytes])
        if _BIG_ENDIAN:  # pragma: no cover - big-endian hosts only
            column.byteswap()
        offset += nbytes
        columns.append(column)
    return columns


def trace_chunks(trace) -> list:
    """A :class:`~repro.sim.trace.DynTrace` as one columnar frame
    (chunk list): indices then addrs, straight from their buffers."""
    return column_chunks(trace.indices, trace.addrs)


def trace_from_bytes(buf):
    """Inverse of :func:`trace_chunks`."""
    from repro.sim.trace import DynTrace

    columns = decode_columns(buf)
    if len(columns) != 2:
        raise FrameError(
            f"a trace frame carries 2 columns (indices, addrs), "
            f"got {len(columns)}"
        )
    indices, addrs = columns
    if indices.typecode != "i" or addrs.typecode != "q":
        raise FrameError(
            f"trace frame columns must be ('i', 'q'), got "
            f"({indices.typecode!r}, {addrs.typecode!r})"
        )
    return DynTrace(indices=indices, addrs=addrs)


# ----------------------------------------------------------------------
# simulate bundles


@dataclass(frozen=True)
class SimulateBundle:
    """One decoded simulate payload: everything that determines the
    dynamic trace, plus (optionally) the trace itself."""

    program: Any
    ext_defs: Any
    max_steps: int
    trace: Any = None          # DynTrace | None
    nbytes: int = 0            # encoded size (cache accounting)


def bundle_chunks(program, ext_defs=None,
                  max_steps: int | None = None, trace=None) -> list:
    """Encode a simulate payload as a chunk list.

    The program and ``ext_defs`` sections are pickled (they are rich
    object graphs with no columnar shape); the trace — the part that
    actually grows with workload size — rides as a columnar frame
    appended zero-copy.  ``max_steps=None`` encodes the shared
    :data:`DEFAULT_MAX_STEPS` so implicit and explicit defaults digest
    identically."""
    program_blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    defs_blob = pickle.dumps(ext_defs, protocol=pickle.HIGHEST_PROTOCOL)
    flags = _BUNDLE_HAS_TRACE if trace is not None else 0
    header = _BUNDLE_HEADER.pack(
        _BUNDLE_MAGIC, WIRE_VERSION, flags,
        DEFAULT_MAX_STEPS if max_steps is None else int(max_steps),
        len(program_blob), len(defs_blob),
    )
    chunks: list = [header, program_blob, defs_blob]
    if trace is not None:
        chunks.extend(trace_chunks(trace))
    return chunks


def decode_bundle(buf) -> SimulateBundle:
    """Inverse of :func:`bundle_chunks`.

    Raises :class:`FrameError` on structural problems; unpickling the
    program/defs sections happens here (worker side — the trust
    boundary is the same as the legacy ``$pickle`` envelopes)."""
    view = memoryview(buf).cast("B")
    if len(view) < _BUNDLE_HEADER.size:
        raise FrameError(
            f"truncated bundle: {len(view)} byte(s), need at least "
            f"{_BUNDLE_HEADER.size} for the header"
        )
    magic, version, flags, max_steps, program_len, defs_len = \
        _BUNDLE_HEADER.unpack_from(view, 0)
    if magic != _BUNDLE_MAGIC:
        raise FrameError(f"bad bundle magic {bytes(magic)!r}")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported bundle version {version}")
    offset = _BUNDLE_HEADER.size
    if offset + program_len + defs_len > len(view):
        raise FrameError(
            f"truncated bundle: sections promise "
            f"{offset + program_len + defs_len} byte(s), have {len(view)}"
        )
    try:
        program = pickle.loads(view[offset:offset + program_len])
        offset += program_len
        ext_defs = pickle.loads(view[offset:offset + defs_len])
        offset += defs_len
    except Exception as exc:
        raise FrameError(f"bundle payload failed to unpickle: {exc}") \
            from exc
    trace = None
    if flags & _BUNDLE_HAS_TRACE:
        trace = trace_from_bytes(view[offset:])
    elif offset != len(view):
        raise FrameError(
            f"oversized bundle: {len(view) - offset} trailing byte(s)"
        )
    return SimulateBundle(program=program, ext_defs=ext_defs,
                          max_steps=max_steps, trace=trace,
                          nbytes=len(view))


def chunks_digest(chunks: Sequence) -> str:
    """Content digest of an encoded chunk list (the ``$trace_ref``
    value): sha256 over the concatenated bytes, truncated to match the
    serve/gateway digest width."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]
