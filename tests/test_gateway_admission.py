"""Gateway admission classes on the shared policy
(:mod:`repro.serve.admission`).

Per-class bounded queues with explicit ``overloaded`` verdicts, strict
interactive-before-sweep dequeue, lazy deadline expiry at dequeue time,
and clean close/drain behaviour — driven through the gateway's own
front-end (:meth:`Gateway.admit`, :meth:`~Gateway.next_entry`,
:meth:`~Gateway.close_admission`) on a gateway that is never started.
"""

import asyncio
import time

from repro.gateway import Gateway, GatewayConfig
from repro.serve import protocol
from repro.serve.admission import (
    ADMISSION_CLASSES,
    INTERACTIVE,
    SWEEP,
    Admitted,
)


def _gateway(**config):
    return Gateway(GatewayConfig(**config))


def _entry(klass=INTERACTIVE, request_id=None, timeout_s=30.0,
           responses=None):
    sink = responses if responses is not None else []
    return Admitted(
        request_id=request_id, op="simulate", params={}, klass=klass,
        deadline=time.monotonic() + timeout_s,
        respond=sink.append, key="k",
    )


def _run(coro):
    return asyncio.run(coro)


class TestBounds:
    def test_class_order_is_priority_order(self):
        assert ADMISSION_CLASSES == (INTERACTIVE, SWEEP)

    def test_per_class_limits_reject_that_class_only(self):
        gateway = _gateway(interactive_queue=2, sweep_queue=1)
        assert gateway.admit(_entry(INTERACTIVE)) is None
        assert gateway.admit(_entry(INTERACTIVE)) is None
        assert gateway.admit(_entry(INTERACTIVE)) == protocol.OVERLOADED
        # the sweep budget is untouched by the full interactive queue
        assert gateway.admit(_entry(SWEEP)) is None
        assert gateway.admit(_entry(SWEEP)) == protocol.OVERLOADED
        assert len(gateway.admission) == 3
        assert gateway.admission.depth(INTERACTIVE) == 2
        assert gateway.admission.depth(SWEEP) == 1

    def test_closed_queue_says_shutting_down(self):
        gateway = _gateway()
        gateway.close_admission()
        assert gateway.admit(_entry()) == protocol.SHUTTING_DOWN


class TestPriority:
    def test_interactive_dequeues_before_earlier_sweep(self):
        async def run():
            gateway = _gateway()
            sweep = _entry(SWEEP, request_id="s1")
            inter = _entry(INTERACTIVE, request_id="i1")
            gateway.admit(sweep)          # arrives first
            gateway.admit(inter)          # still served first
            assert (await gateway.next_entry()) is inter
            assert (await gateway.next_entry()) is sweep

        _run(run())

    def test_same_key_entries_never_batch_at_the_gateway(self):
        async def run():
            gateway = _gateway()
            first, second = _entry(request_id=1), _entry(request_id=2)
            gateway.admit(first)
            gateway.admit(second)         # same key "k"
            assert (await gateway.next_entry()) is first
            assert gateway.admission.depth(INTERACTIVE) == 1

        _run(run())


class TestDeadlines:
    def test_expired_entry_fails_at_dequeue_never_dispatches(self):
        async def run():
            gateway = _gateway()
            responses: list = []
            dead = _entry(SWEEP, request_id=7, timeout_s=-0.001,
                          responses=responses)
            live = _entry(SWEEP, request_id=8)
            gateway.admit(dead)
            gateway.admit(live)
            assert (await gateway.next_entry()) is live
            assert responses and not responses[0]["ok"]
            assert responses[0]["error"]["code"] == \
                protocol.DEADLINE_EXCEEDED
            assert responses[0]["id"] == 7

        _run(run())

    def test_sweep_expires_while_parked_behind_interactive(self):
        # a sweep entry with a short deadline waits behind a stream of
        # interactive work and is failed with deadline_exceeded when
        # its turn finally comes
        async def run():
            gateway = _gateway()
            responses: list = []
            sweep = _entry(SWEEP, request_id="slow-sweep",
                           timeout_s=0.05, responses=responses)
            gateway.admit(sweep)
            for i in range(3):
                gateway.admit(_entry(INTERACTIVE, request_id=i))
            for _ in range(3):            # interactive drains first
                entry = await gateway.next_entry()
                assert entry.klass == INTERACTIVE
            await asyncio.sleep(0.06)     # sweep's deadline passes
            gateway.close_admission()
            assert (await gateway.next_entry()) is None
            assert responses[0]["error"]["code"] == \
                protocol.DEADLINE_EXCEEDED
            assert "gateway queue" in responses[0]["error"]["message"]

        _run(run())


class TestDrain:
    def test_get_returns_none_once_closed_and_empty(self):
        async def run():
            gateway = _gateway()
            entry = _entry()
            gateway.admit(entry)
            gateway.close_admission()
            assert (await gateway.next_entry()) is entry  # drain finishes
            assert (await gateway.next_entry()) is None

        _run(run())

    def test_waiting_getters_wake_on_close(self):
        async def run():
            gateway = _gateway()
            getter = asyncio.create_task(gateway.next_entry())
            await asyncio.sleep(0.01)
            gateway.close_admission()
            assert (await asyncio.wait_for(getter, timeout=1.0)) is None

        _run(run())

    def test_waiting_getters_wake_on_submit(self):
        async def run():
            gateway = _gateway()
            getter = asyncio.create_task(gateway.next_entry())
            await asyncio.sleep(0.01)
            entry = _entry()
            gateway.admit(entry)
            assert (await asyncio.wait_for(getter, timeout=1.0)) is entry

        _run(run())


class TestGauges:
    def test_depth_gauges_and_rejection_counters(self):
        gateway = _gateway(sweep_queue=1)
        gateway.admit(_entry(SWEEP))
        gateway.admit(_entry(SWEEP))      # rejected
        rows = {(row["name"], tuple(sorted(row["labels"].items()))): row
                for row in gateway.recorder.metrics.snapshot()}
        depth = rows[("gateway.queue.depth", (("klass", SWEEP),))]
        assert depth["value"] == 1
        rejected = rows[(
            "gateway.rejected",
            (("klass", SWEEP), ("reason", "overloaded")),
        )]
        assert rejected["value"] == 1

    def test_backend_metrics_carry_no_class_label(self):
        from repro.serve import ServeConfig, ToolflowServer

        server = ToolflowServer(ServeConfig(max_queue=1))
        for request_id in (1, 2):         # the second is rejected
            server.handle_request(
                {"id": request_id, "op": "compile", "params": {}},
                lambda payload: None)
        metrics = server.recorder.metrics
        assert metrics.value("serve.queue.depth") == 1
        assert metrics.value("serve.rejected", reason="overloaded") == 1
