"""Wire protocol tests: value codec round-trips, both framings, and
the typed error mapping (:mod:`repro.serve.protocol`)."""

import io
import json

import pytest

from repro import api
from repro.engine.store import stats_to_json
from repro.serve import protocol

SOURCE = """
.text
main:
    li $s0, 20
    li $t1, 3
loop:
    sll  $t2, $t1, 2
    addu $t2, $t2, $t1
    andi $t1, $t2, 255
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""


@pytest.fixture(scope="module")
def program():
    return api.compile(source=SOURCE, name="proto_test")


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, 0, 3, 2.5, "x"):
            assert protocol.encode_value(value) == value
            assert protocol.decode_value(value) == value

    def test_encoded_values_are_json_serialisable(self, program):
        profile = api.profile(program=program)
        stats = api.simulate(program=program)
        for value in (program, profile, stats, [1, stats], {"a": program}):
            json.dumps(protocol.encode_value(value))

    def test_program_round_trip(self, program):
        decoded = protocol.decode_value(protocol.encode_value(program))
        assert decoded.name == program.name
        assert len(decoded.text) == len(program.text)

    def test_stats_envelope_is_pure_json(self, program):
        """SimStats ride as ``$stats`` (byte-comparable JSON), never as
        pickle — the batching-invisibility check depends on it."""
        stats = api.simulate(program=program)
        wire = protocol.encode_value(stats)
        assert set(wire) == {"$stats"}
        assert wire["$stats"] == stats_to_json(stats)
        decoded = protocol.decode_value(wire)
        assert stats_to_json(decoded) == stats_to_json(stats)

    def test_selection_envelope(self, program):
        selection = api.select(profile=api.profile(program=program),
                               algorithm="greedy")
        wire = protocol.encode_value(selection)
        assert set(wire) == {"$selection"}
        decoded = protocol.decode_value(wire)
        assert decoded.n_configs == selection.n_configs
        assert len(decoded.sites) == len(selection.sites)

    def test_list_and_dict_nesting(self, program):
        stats = api.simulate(program=program)
        wire = protocol.encode_value({"runs": [stats, stats], "n": 2})
        decoded = protocol.decode_value(wire)
        assert decoded["n"] == 2
        assert stats_to_json(decoded["runs"][0]) == stats_to_json(stats)

    def test_machine_config_round_trip(self):
        machine = api.MachineConfig(n_pfus=4, reconfig_latency=0)
        decoded = protocol.decode_value(protocol.encode_value(machine))
        assert decoded == machine

    def test_machine_envelope_is_sparse_json(self):
        """Sweep requests carry one machine per point, so the envelope
        holds only the non-default fields — no pickle, no base64."""
        wire = protocol.encode_value(api.MachineConfig(ruu_size=40))
        assert wire == {"$machine": {"ruu_size": 40}}
        assert protocol.encode_value(api.MachineConfig()) == \
            {"$machine": {}}

    def test_machine_envelope_rejects_unknown_fields(self):
        with pytest.raises(protocol.BadRequestError, match="machine"):
            protocol.decode_value({"$machine": {"rob_size": 32}})

    def test_non_json_safe_value_raises_typed_error(self):
        """An unencoded rich object reaching the JSON layer must fail
        as an explicit ``bad_request``, never via a silent repr
        fallback that would produce undecodable (and digest-unstable)
        payloads."""
        stats_like = object()
        with pytest.raises(protocol.BadRequestError,
                           match="not JSON-safe"):
            protocol.dump_line({"id": 1, "result": {"$stats": stats_like}})
        with pytest.raises(protocol.BadRequestError,
                           match="non-JSON-safe"):
            protocol.blob_digest({"$stats": stats_like})

    def test_blob_digest_stable_and_discriminating(self, program):
        wire = protocol.encode_value(program)
        assert protocol.blob_digest(wire) == protocol.blob_digest(wire)
        other = protocol.encode_value(
            api.compile(source=SOURCE, name="other_name")
        )
        assert protocol.blob_digest(wire) != protocol.blob_digest(other)


class TestJsonFraming:
    def test_dump_parse_round_trip(self):
        obj = {"id": 7, "op": "simulate", "params": {"x": 1}}
        line = protocol.dump_line(obj)
        assert line.endswith(b"\n")
        assert protocol.parse_line(line) == obj

    def test_parse_garbage_raises_bad_request(self):
        with pytest.raises(protocol.BadRequestError):
            protocol.parse_line(b"{not json\n")

    def test_parse_non_object_raises(self):
        with pytest.raises(protocol.BadRequestError):
            protocol.parse_line(b"[1, 2]\n")

    def test_response_builders(self):
        ok = protocol.ok_response(3, {"x": 1})
        assert ok == {"id": 3, "ok": True, "result": {"x": 1}}
        err = protocol.error_response(4, protocol.OVERLOADED, "full",
                                      retry_after_ms=50)
        assert err["ok"] is False
        assert err["error"]["code"] == protocol.OVERLOADED
        assert err["error"]["retry_after_ms"] == 50


class TestPickleFraming:
    def test_frame_round_trip(self):
        buf = io.BytesIO()
        protocol.write_frame(buf, {"op": "compile", "items": [1, 2]})
        protocol.write_frame(buf, [3, 4])
        buf.seek(0)
        assert protocol.read_frame(buf) == {"op": "compile", "items": [1, 2]}
        assert protocol.read_frame(buf) == [3, 4]
        assert protocol.read_frame(buf) is None  # clean EOF

    def test_truncated_frame_raises(self):
        buf = io.BytesIO()
        protocol.write_frame(buf, {"x": 1})
        truncated = io.BytesIO(buf.getvalue()[:-2])
        with pytest.raises(EOFError):
            protocol.read_frame(truncated)

    def test_json_safe_payload_uses_json_kind(self):
        buf = io.BytesIO()
        protocol.write_frame(buf, {"op": "simulate", "items": [{"n": 1}]})
        raw = buf.getvalue()
        assert raw[4:5] == b"J"     # tagged JSON frame, not pickle

    def test_binary_chunks_ride_outside_the_json_doc(self):
        """``bytes`` values are hoisted out of the JSON body and written
        raw behind it — a trace blob crosses the worker pipe without a
        pickle or base64 detour."""
        blob = bytes(range(256)) * 4
        payload = {"op": "simulate", "trace_blob": blob,
                   "items": [{"machine": None}]}
        buf = io.BytesIO()
        protocol.write_frame(buf, payload)
        raw = buf.getvalue()
        assert raw[4:5] == b"J"
        assert blob in raw          # raw chunk tail, not base64
        buf.seek(0)
        assert protocol.read_frame(buf) == payload

    def test_non_json_safe_payload_falls_back_to_pickle_kind(self, program):
        buf = io.BytesIO()
        payload = {"op": "profile", "program": program}
        protocol.write_frame(buf, payload)
        assert buf.getvalue()[4:5] == b"P"
        buf.seek(0)
        assert protocol.read_frame(buf)["program"].name == program.name

    def test_unknown_frame_kind_raises(self):
        buf = io.BytesIO()
        protocol.write_frame(buf, {"x": 1})
        raw = bytearray(buf.getvalue())
        raw[4:5] = b"Z"
        with pytest.raises(EOFError):
            protocol.read_frame(io.BytesIO(bytes(raw)))


class TestErrorMapping:
    def test_every_code_maps_to_a_typed_error(self):
        for code in protocol.ERROR_CODES:
            exc = protocol.error_for(code, "boom")
            assert isinstance(exc, protocol.ServeError)
            assert exc.code == code

    def test_unknown_code_falls_back_to_remote_op_error(self):
        assert isinstance(protocol.error_for("???", "x"),
                          protocol.RemoteOpError)

    def test_overloaded_carries_retry_hint(self):
        exc = protocol.error_for(protocol.OVERLOADED, "full",
                                 retry_after_ms=250)
        assert isinstance(exc, protocol.OverloadedError)
        assert exc.retry_after_ms == 250

    def test_need_trace_carries_the_missing_digest(self):
        exc = protocol.error_for(protocol.NEED_TRACE, "not cached",
                                 digest="ab12" * 4)
        assert isinstance(exc, protocol.NeedTraceError)
        assert exc.digest == "ab12" * 4
