"""Backend admission semantics: bounded admission, deadline expiry while
queued, batch grouping, and drain/close.

The policy lives in :mod:`repro.serve.admission`; these tests drive it
through the backend's own front-end (:meth:`ToolflowServer.admit`,
:meth:`~ToolflowServer.next_batch`, :meth:`~ToolflowServer.close_admission`)
on a server that is never started, so the waiting primitive and the
batch linger are covered too.
"""

import threading
import time

from repro.serve import ServeConfig, ToolflowServer, protocol
from repro.serve.admission import DEFAULT_CLASS, Admitted


class Sink:
    """Collects responses a request's ``respond`` callable delivers."""

    def __init__(self):
        self.responses = []

    def __call__(self, payload):
        self.responses.append(payload)


def backend(**config):
    return ToolflowServer(ServeConfig(**config))


def make_request(request_id, op="compile", key=None,
                 deadline_in=30.0, sink=None):
    return Admitted(
        request_id=request_id, op=op, params={}, klass=DEFAULT_CLASS,
        deadline=time.monotonic() + deadline_in,
        respond=sink if sink is not None else Sink(), key=key,
    )


class TestAdmission:
    def test_submit_then_next_batch(self):
        server = backend(max_queue=4)
        assert server.admit(make_request(1)) is None
        batch = server.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == [1]

    def test_queue_bound_rejects_with_overloaded(self):
        server = backend(max_queue=2)
        assert server.admit(make_request(1)) is None
        assert server.admit(make_request(2)) is None
        assert server.admit(make_request(3)) == protocol.OVERLOADED
        assert len(server.admission) == 2

    def test_closed_broker_rejects_with_shutting_down(self):
        server = backend()
        server.close_admission()
        assert server.admit(make_request(1)) == protocol.SHUTTING_DOWN

    def test_fifo_order_across_unbatched_ops(self):
        server = backend()
        for i in range(3):
            server.admit(make_request(i))
        seen = [server.next_batch(timeout=1.0)[0].request_id
                for _ in range(3)]
        assert seen == [0, 1, 2]


class TestDeadlines:
    def test_expired_request_failed_at_dequeue_not_executed(self):
        """The deadline passes while the request is queued; the
        dispatcher must answer ``deadline_exceeded`` and skip it, not
        hand it to a worker."""
        server = backend(linger=0.0)
        sink = Sink()
        server.admit(make_request("late", deadline_in=0.005, sink=sink))
        live = make_request("live")
        time.sleep(0.02)
        server.admit(live)
        batch = server.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == ["live"]
        [response] = sink.responses
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.DEADLINE_EXCEEDED
        assert "in queue" in response["error"]["message"]

    def test_expired_batchmate_dropped_from_batch(self):
        server = backend(linger=0.0)
        sink = Sink()
        server.admit(make_request("a", op="simulate", key="k"))
        server.admit(make_request("late", op="simulate", key="k",
                                  deadline_in=0.005, sink=sink))
        server.admit(make_request("b", op="simulate", key="k"))
        time.sleep(0.02)
        batch = server.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == ["a", "b"]
        assert sink.responses[0]["error"]["code"] == \
            protocol.DEADLINE_EXCEEDED

    def test_all_expired_and_closed_returns_none(self):
        server = backend(linger=0.0)
        server.admit(make_request("late", deadline_in=0.001))
        time.sleep(0.01)
        server.close_admission()
        assert server.next_batch(timeout=1.0) is None


class TestBatching:
    def test_same_key_coalesces(self):
        server = backend(linger=0.0)
        for i in range(3):
            server.admit(make_request(i, op="simulate", key="k"))
        batch = server.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == [0, 1, 2]

    def test_different_keys_stay_separate(self):
        server = backend(linger=0.0)
        server.admit(make_request("a1", op="simulate", key="a"))
        server.admit(make_request("b1", op="simulate", key="b"))
        server.admit(make_request("a2", op="simulate", key="a"))
        first = server.next_batch(timeout=1.0)
        assert [r.request_id for r in first] == ["a1", "a2"]
        second = server.next_batch(timeout=1.0)
        assert [r.request_id for r in second] == ["b1"]

    def test_max_batch_respected(self):
        server = backend(max_batch=2, linger=0.0)
        for i in range(5):
            server.admit(make_request(i, op="simulate", key="k"))
        sizes = []
        while True:
            batch = server.next_batch(timeout=0.05)
            if not batch:
                break
            sizes.append(len(batch))
        assert sizes == [2, 2, 1]

    def test_non_batch_ops_never_coalesce(self):
        server = backend(linger=0.0)
        server.admit(make_request(1))
        server.admit(make_request(2))
        assert len(server.next_batch(timeout=1.0)) == 1

    def test_interleaved_other_key_preserved_in_order(self):
        server = backend(linger=0.0)
        server.admit(make_request("k1", op="simulate", key="k"))
        server.admit(make_request("other"))
        server.admit(make_request("k2", op="simulate", key="k"))
        batch = server.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == ["k1", "k2"]
        assert [r.request_id
                for r in server.next_batch(timeout=1.0)] == ["other"]

    def test_linger_waits_for_late_batchmate(self):
        server = backend(linger=0.2)
        server.admit(make_request("a", op="simulate", key="k"))

        def late_submit():
            time.sleep(0.02)
            server.admit(make_request("b", op="simulate", key="k"))

        thread = threading.Thread(target=late_submit)
        thread.start()
        batch = server.next_batch(timeout=1.0)
        thread.join()
        assert [r.request_id for r in batch] == ["a", "b"]

    def test_simulate_batch_key_is_the_routing_key(self):
        """The backend batches ``simulate`` on the gateway's routing
        key, so which payload parts determine a trace is decided once;
        other ops carry no key and never batch."""
        server = backend(linger=0.0)
        params = {"program": {"$pickle": "AAAA"}, "ext_defs": None,
                  "max_steps": 1000}
        for request_id, op in ((1, "simulate"), (2, "profile")):
            server.handle_request(
                {"id": request_id, "op": op, "params": params}, Sink())
        simulate, profile = (server.next_batch(timeout=1.0)[0]
                             for _ in range(2))
        assert simulate.key == protocol.routing_key("simulate", params)
        assert profile.key is None


class TestClose:
    def test_close_drains_then_signals_exit(self):
        server = backend(linger=0.0)
        server.admit(make_request(1))
        server.close_admission()
        assert [r.request_id
                for r in server.next_batch(timeout=1.0)] == [1]
        assert server.next_batch(timeout=1.0) is None

    def test_timeout_returns_empty_list(self):
        server = backend()
        assert server.next_batch(timeout=0.01) == []

    def test_close_wakes_blocked_dispatcher(self):
        server = backend()
        result = {}

        def dispatcher():
            result["batch"] = server.next_batch(timeout=10.0)

        thread = threading.Thread(target=dispatcher)
        thread.start()
        time.sleep(0.05)
        server.close_admission()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert result["batch"] is None
