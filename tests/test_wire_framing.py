"""The binary column/bundle codec (:mod:`repro.wire`).

Edge cases of the length-prefixed columnar frame format (empty,
single-entry, >1M-entry columns; typecode/itemsize rejection; truncated
frames; bad magic; trailing bytes), zero-copy properties of the encode
side, and seeded fuzz round trips through
:func:`repro.fuzz.check_wire_framing`.
"""

import array
import random

import pytest

from repro import wire
from repro.asm import assemble
from repro.fuzz import build_program, check_wire_framing
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import DynTrace


def _trace(pairs) -> DynTrace:
    trace = DynTrace()
    for index, addr in pairs:
        trace.append(index, addr)
    return trace


def _roundtrip_columns(*columns):
    return wire.decode_columns(b"".join(
        bytes(chunk) for chunk in wire.column_chunks(*columns)
    ))


class TestColumnFrames:
    def test_round_trip(self):
        a = array.array("i", [1, -2, 3])
        b = array.array("q", [2**40, -(2**40), 0])
        out_a, out_b = _roundtrip_columns(a, b)
        assert out_a == a and out_b == b
        assert (out_a.typecode, out_b.typecode) == ("i", "q")

    def test_empty_columns(self):
        out, = _roundtrip_columns(array.array("q"))
        assert len(out) == 0 and out.typecode == "q"

    def test_single_entry_column(self):
        out, = _roundtrip_columns(array.array("i", [7]))
        assert out.tolist() == [7]

    def test_million_entry_column(self):
        big = array.array("q", range(1_000_001))
        out, = _roundtrip_columns(big)
        assert out.tobytes() == big.tobytes()

    def test_encode_side_is_zero_copy(self):
        column = array.array("i", [1, 2, 3])
        chunks = wire.column_chunks(column)
        # Header plus one memoryview straight into the caller's buffer.
        assert len(chunks) == 2
        assert isinstance(chunks[1], memoryview)

    def test_unknown_typecode_rejected(self):
        frame = bytearray(b"".join(
            bytes(chunk) for chunk in
            wire.column_chunks(array.array("i", [1]))
        ))
        offset = frame.index(b"i", 8)      # the per-column typecode byte
        frame[offset:offset + 1] = b"f"    # floats are not framable
        with pytest.raises(wire.FrameError, match="typecode"):
            wire.decode_columns(bytes(frame))

    def test_itemsize_mismatch_rejected(self):
        frame = bytearray(b"".join(
            bytes(chunk) for chunk in
            wire.column_chunks(array.array("i", [1]))
        ))
        offset = frame.index(b"i", 8)
        frame[offset + 1] = 2              # claim 2-byte ints
        with pytest.raises(wire.FrameError, match="itemsize"):
            wire.decode_columns(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = b"".join(bytes(chunk) for chunk in
                         wire.column_chunks(array.array("q", [1, 2])))
        for cut in (1, 6, len(frame) - 1):
            with pytest.raises(wire.FrameError, match="truncated"):
                wire.decode_columns(frame[:cut])

    def test_trailing_bytes_rejected(self):
        frame = b"".join(bytes(chunk) for chunk in
                         wire.column_chunks(array.array("i", [1])))
        with pytest.raises(wire.FrameError, match="trailing"):
            wire.decode_columns(frame + b"\x00")

    def test_bad_magic_rejected(self):
        frame = b"".join(bytes(chunk) for chunk in
                         wire.column_chunks(array.array("i", [1])))
        with pytest.raises(wire.FrameError, match="magic"):
            wire.decode_columns(b"XXXX" + frame[4:])


class TestTraceFrames:
    def test_round_trip(self):
        trace = _trace([(0, -1), (1, 4096), (2, 2**40)])
        decoded = wire.trace_from_bytes(
            b"".join(bytes(c) for c in wire.trace_chunks(trace))
        )
        assert decoded.indices.tobytes() == trace.indices.tobytes()
        assert decoded.addrs.tobytes() == trace.addrs.tobytes()

    def test_empty_trace(self):
        decoded = wire.trace_from_bytes(
            b"".join(bytes(c) for c in wire.trace_chunks(_trace([])))
        )
        assert len(decoded) == 0

    def test_wrong_column_count_rejected(self):
        frame = b"".join(bytes(c) for c in
                         wire.column_chunks(array.array("i", [1])))
        with pytest.raises(wire.FrameError, match="2 columns"):
            wire.trace_from_bytes(frame)


class TestBundles:
    def test_round_trip_with_trace(self):
        program = assemble(
            ".text\nmain: li $t0, 3\n    addu $t0, $t0, $t0\n    halt\n"
        )
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        chunks = wire.bundle_chunks(program, max_steps=1234, trace=trace)
        bundle = wire.decode_bundle(b"".join(bytes(c) for c in chunks))
        assert bundle.max_steps == 1234
        assert bundle.trace is not None
        assert bundle.trace.indices.tobytes() == trace.indices.tobytes()
        assert bundle.program.render() == program.render()

    def test_default_max_steps_digests_identically(self):
        program = assemble(".text\nmain: halt\n")
        implicit = wire.bundle_chunks(program)
        explicit = wire.bundle_chunks(
            program, max_steps=wire.DEFAULT_MAX_STEPS
        )
        assert wire.chunks_digest(implicit) == wire.chunks_digest(explicit)

    def test_digest_is_content_addressed(self):
        program = assemble(".text\nmain: halt\n")
        other = assemble(".text\nmain: li $t0, 1\n    halt\n")
        assert wire.chunks_digest(wire.bundle_chunks(program)) != \
            wire.chunks_digest(wire.bundle_chunks(other))

    def test_bad_magic_rejected(self):
        with pytest.raises(wire.FrameError, match="magic"):
            wire.decode_bundle(b"Z" * 64)


class TestFuzzRoundTrip:
    def test_seeded_random_traces_round_trip(self):
        rng = random.Random(1234)
        for _ in range(20):
            trace = _trace([
                (rng.randrange(0, 2**20),
                 rng.randrange(-1, 2**44))
                for _ in range(rng.randrange(0, 400))
            ])
            check_wire_framing(trace)

    def test_fuzz_program_trace_round_trips(self):
        program, _ = build_program(seed=99, flavor="asm")
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        check_wire_framing(trace)
