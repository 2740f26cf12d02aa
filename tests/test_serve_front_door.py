"""One request front door for the serve backend and the gateway.

Both front-ends check requests with
:func:`repro.serve.protocol.validate_request` and
:func:`~repro.serve.protocol.frame_sizes` and cap request lines at
:data:`~repro.serve.protocol.MAX_LINE_BYTES`.  These tests send raw
lines — values ``json.dumps`` would never produce included — to an
in-process backend and to a gateway in front of it, and require the
same answer code and the same connection outcome from both.

The module lowers ``MAX_LINE_BYTES`` to 1 MiB so the oversize case
stays cheap; both front-ends read the one constant, and the
100 KB request below still exceeds asyncio's 64 KiB default stream
limit.
"""

import json
import socket
import time

import pytest

from repro.gateway import Gateway, GatewayConfig
from repro.serve import ServeConfig, ToolflowServer, protocol
from repro.serve.client import ServeClient

LINE_CAP = 1024 * 1024


@pytest.fixture(scope="module")
def front_ends():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "MAX_LINE_BYTES", LINE_CAP)
        with ToolflowServer(ServeConfig(workers=1, linger=0.0)) as backend:
            host, port = backend.address
            config = GatewayConfig(backends=(f"{host}:{port}",),
                                   health_interval=0.2)
            with Gateway(config) as gateway:
                with ServeClient(gateway.address, timeout=60.0) as client:
                    client.wait_ready()
                yield {"backend": backend.address,
                       "gateway": gateway.address}


def exchange(address, raw: bytes) -> tuple[dict | None, bool]:
    """Send ``raw``, read one response line, then report whether the
    connection still answers a ``health`` probe."""
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.sendall(raw)
        rfile = sock.makefile("rb")
        line = rfile.readline()
        response = json.loads(line) if line else None
        try:
            sock.sendall(b'{"id":"probe","op":"health"}\n')
            alive = bool(rfile.readline())
        except OSError:
            alive = False
        return response, alive


def request_line(timeout_ms: str = "30000", **fields: str) -> bytes:
    """A raw request line; values are spliced in verbatim."""
    body = {"id": "1", "op": '"compile"', "params": "{}",
            "timeout_ms": timeout_ms, **fields}
    return ("{" + ",".join(f'"{k}":{v}' for k, v in body.items())
            + "}\n").encode()


#: Raw ``timeout_ms`` literals, by test id.
BAD_TIMEOUTS = {
    **{value: value for value in (
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true",
        "false", "0", "-5", '"100"', "null", "[]")},
    "10**400": "1" + "0" * 400,
}

#: (case, raw line, expected code, connection stays open)
PARITY_TABLE = [
    ("unknown op", request_line(op='"nope"'), protocol.BAD_REQUEST, True),
    ("params not an object", request_line(params="[1, 2]"),
     protocol.BAD_REQUEST, True),
    ("malformed json", b'{"id": 1, "op": \n', protocol.BAD_REQUEST, True),
    *[(f"timeout_ms {name}", request_line(timeout_ms=value),
       protocol.BAD_REQUEST, True) for name, value in BAD_TIMEOUTS.items()],
    ("frames not a list",
     request_line(op='"put_trace"', params='{"digest": "ab"}',
                  frames='"many"'), protocol.BAD_REQUEST, False),
    ("negative frame size",
     request_line(op='"put_trace"', params='{"digest": "ab"}',
                  frames="[-1]"), protocol.BAD_REQUEST, False),
    ("boolean frame size",
     request_line(op='"put_trace"', params='{"digest": "ab"}',
                  frames="[true]"), protocol.BAD_REQUEST, False),
    ("frames over the cap",
     request_line(op='"put_trace"', params='{"digest": "ab"}',
                  frames=f"[{protocol.MAX_FRAME_BYTES + 1}]"),
     protocol.BAD_REQUEST, False),
    ("non-string trace_ref",
     request_line(op='"simulate"', params='{"trace_ref": 5}'),
     protocol.BAD_REQUEST, True),
    ("trace_ref on another op",
     request_line(op='"profile"', params='{"trace_ref": "ab"}'),
     protocol.BAD_REQUEST, True),
    ("string max_steps",
     request_line(op='"simulate"',
                  params='{"program": null, "max_steps": "5"}'),
     protocol.BAD_REQUEST, True),
]


def compile_line(rows: int = 2800, **dumps) -> bytes:
    """A ~100 KB ``compile`` request whose answer is larger still."""
    body = "".join(f"    addiu $t1, $t1, {i % 100}  # pad {i:05d}\n"
                   for i in range(rows))
    source = f".text\nmain:\n{body}    halt\n"
    return (json.dumps({"id": 1, "op": "compile",
                        "params": {"source": source, "name": "long_line"},
                        "timeout_ms": 20_000}, **dumps) + "\n").encode()


def gateway_stats(address) -> dict:
    with ServeClient(address, timeout=60.0) as client:
        return client.call("stats", {})


def oversize_line() -> bytes:
    """A request line one byte over the cap, newline included."""
    head, tail = b'{"id":1,"op":"compile","params":{"source":"', b'"}}\n'
    return head + b"#" * (LINE_CAP + 1 - len(head) - len(tail)) + tail


class TestParity:
    @pytest.mark.parametrize(
        "raw, code, stays_open",
        [case[1:] for case in PARITY_TABLE],
        ids=[case[0] for case in PARITY_TABLE],
    )
    def test_backend_and_gateway_agree(self, front_ends, raw, code,
                                       stays_open):
        outcomes = {name: exchange(address, raw)
                    for name, address in front_ends.items()}
        for name, (response, alive) in outcomes.items():
            assert response is not None, f"{name} sent no answer"
            assert response["ok"] is False, (name, response)
            assert response["error"]["code"] == code, (name, response)
            assert alive == stays_open, (name, response)

    def test_oversize_line_answers_then_closes(self, front_ends):
        raw = oversize_line()
        assert len(raw) == protocol.MAX_LINE_BYTES + 1
        for name, address in front_ends.items():
            response, alive = exchange(address, raw)
            assert response is not None, f"{name} sent no answer"
            assert response["error"] == {
                "code": protocol.BAD_REQUEST,
                "message": "request line too large",
            }, name
            assert not alive, name


class TestTimeouts:
    @pytest.mark.parametrize("value", BAD_TIMEOUTS.values(),
                             ids=BAD_TIMEOUTS.keys())
    def test_bad_timeout_rejected_by_both(self, front_ends, value):
        for name, address in front_ends.items():
            response, _ = exchange(address, request_line(timeout_ms=value))
            assert response["error"]["code"] == protocol.BAD_REQUEST, \
                (name, response)
            assert response["error"]["message"].startswith(
                "bad timeout_ms"), (name, response)


class TestLineLimit:
    def test_large_request_and_response_cross_the_gateway(self,
                                                          front_ends):
        """A 100 KB ``compile`` line (and its larger answer) must pass
        the gateway as it passes the backend: past asyncio's 64 KiB
        default stream limit on both of the gateway's hops."""
        raw = compile_line()
        assert len(raw) > 100_000
        answers = {}
        for name, address in front_ends.items():
            response, alive = exchange(address, raw)
            assert response is not None, f"{name} sent no answer"
            assert response["ok"], (name, response["error"])
            assert alive, name
            answers[name] = json.dumps(response["result"])
        assert len(answers["gateway"]) > 64 * 1024
        assert answers["gateway"] == answers["backend"]
        program = protocol.decode_value(json.loads(answers["gateway"]))
        assert program.name == "long_line"

    def test_response_over_the_cap_fails_fast_at_the_gateway(self):
        """An answer longer than the cap cannot be relayed: the gateway
        must fail that request with a typed error at once, not wait out
        its 20 s deadline, and must keep the healthy backend that sent
        it in service."""
        raw = compile_line()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "MAX_LINE_BYTES", len(raw) + 1024)
            with ToolflowServer(ServeConfig(workers=1)) as backend:
                host, port = backend.address
                config = GatewayConfig(backends=(f"{host}:{port}",))
                with Gateway(config) as gateway:
                    started = time.monotonic()
                    response, alive = exchange(gateway.address, raw)
                    elapsed = time.monotonic() - started
                    after, _ = exchange(gateway.address, compile_line(4))
                    stats = gateway_stats(gateway.address)
        assert response["error"] == {
            "code": protocol.OP_FAILED,
            "message": f"response line too large (over {len(raw) + 1024}"
                       f" bytes)",
        }
        assert elapsed < 10.0
        assert alive
        assert after["ok"], after
        assert stats["failovers"] == 0
        assert stats["backends"][0]["healthy"]

    def test_relayed_line_over_the_cap_is_refused_at_the_gateway(self):
        """The gateway re-serialises a request and adds its own fields,
        so a client line just under the cap can outgrow it on the way.
        The gateway must answer ``bad_request`` itself rather than send
        it and lose the backend, which then answers the next request."""
        raw = compile_line(separators=(",", ":"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "MAX_LINE_BYTES", len(raw) + 5)
            with ToolflowServer(ServeConfig(workers=1)) as backend:
                host, port = backend.address
                config = GatewayConfig(backends=(f"{host}:{port}",))
                with Gateway(config) as gateway:
                    response, alive = exchange(gateway.address, raw)
                    after, _ = exchange(gateway.address, compile_line(4))
                    stats = gateway_stats(gateway.address)
        assert response["error"] == {
            "code": protocol.BAD_REQUEST,
            "message": "request line too large",
        }
        assert alive
        assert after["ok"], after
        assert stats["failovers"] == 0
        assert stats["backends"][0]["healthy"]
