"""End-to-end service tests: served results equal :mod:`repro.api`
byte-for-byte, micro-batching is invisible, backpressure and deadlines
produce explicit answers, poisoned batchmates fail alone, and SIGTERM
drains cleanly (:mod:`repro.serve`)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.engine.store import stats_to_json
from repro.serve import ServeConfig, ToolflowServer, protocol
from repro.serve.client import ServeClient
from repro.serve.loadtest import run_smoke

SOURCE = """
.text
main:
    li $s0, 120
    li $t1, 3
loop:
    sll  $t2, $t1, 4
    addu $t2, $t2, $t1
    andi $t2, $t2, 1023
    xor  $t3, $t2, $t1
    andi $t1, $t3, 255
    addiu $t1, $t1, 1
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""


def canonical(stats) -> str:
    return json.dumps(stats_to_json(stats), sort_keys=True)


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(workers=2, debug_ops=True)
    with ToolflowServer(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServeClient(server.address, timeout=60.0) as c:
        c.wait_ready()
        yield c


@pytest.fixture(scope="module")
def program():
    return api.compile(source=SOURCE, name="serve_e2e")


class TestEndToEnd:
    def test_five_op_toolflow_matches_local_api(self, client, program):
        served_program = client.compile(source=SOURCE, name="serve_e2e")
        profile = client.profile(program=served_program)
        selection = client.select(profile=profile, algorithm="greedy")
        rewritten, defs = client.rewrite(program=served_program,
                                         selection=selection)
        served = client.simulate(program=rewritten, ext_defs=defs)

        local_profile = api.profile(program=program)
        local_selection = api.select(profile=local_profile,
                                     algorithm="greedy")
        local_rewritten, local_defs = api.rewrite(
            program=program, selection=local_selection
        )
        local = api.simulate(program=local_rewritten, ext_defs=local_defs)
        assert canonical(served) == canonical(local)
        assert served.ext_instructions == local.ext_instructions
        assert served.ext_instructions > 0

    def test_baseline_simulate_matches_local(self, client, program):
        served = client.simulate(program=program)
        assert canonical(served) == canonical(api.simulate(program=program))

    @pytest.mark.parametrize("machine, error", [
        ({"ruu_size": 64.0}, protocol.RemoteOpError),
        ({"$machine": {"ruu_size": 64.0}}, protocol.BadRequestError),
        ({"$machine": {"n_pfus": True}}, protocol.BadRequestError),
    ], ids=["field dict", "machine envelope", "bool n_pfus"])
    def test_non_int_machine_field_gets_a_typed_error(self, client, program,
                                                      machine, error):
        """``64.0`` equals ``64`` but digests differently: the served
        answer must be a typed error, never a result cached under a
        second identity of the default machine."""
        with pytest.raises(error, match="ruu_size|n_pfus"):
            client.call("simulate", {
                "program": protocol.encode_value(program),
                "ext_defs": None, "machine": machine,
            })

    def test_machine_sweep_matches_local(self, client, program):
        machines = [api.MachineConfig(),
                    api.MachineConfig(n_pfus=4, reconfig_latency=0)]
        served = client.simulate(program=program, machine=machines)
        local = api.simulate(program=program, machine=machines)
        assert [canonical(s) for s in served] == \
            [canonical(s) for s in local]

    def test_health_and_stats_shape(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == server.config.workers
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        stats = client.stats()
        assert stats["server"]["status"] == "ok"
        names = {row["name"] for row in stats["metrics"]}
        assert "serve.queue.depth" in names
        assert any(n.startswith("serve.latency") for n in names)

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(protocol.BadRequestError):
            client.call("transmogrify", {})

    def test_op_error_is_remote_op_error(self, client):
        with pytest.raises(protocol.RemoteOpError) as exc_info:
            client.call("compile", {})   # neither source nor workload
        assert "source" in str(exc_info.value) or \
            "workload" in str(exc_info.value)


class TestPipelining:
    def test_pipelined_submits_match_serial(self, client, program):
        machines = [api.MachineConfig(n_pfus=n, reconfig_latency=lat)
                    for n in (1, 2) for lat in (0, 100)]
        pending = [client.simulate_submit(program=program, machine=m)
                   for m in machines]
        piped = [p.result() for p in pending]
        serial = [client.simulate(program=program, machine=m)
                  for m in machines]
        assert [canonical(s) for s in piped] == \
            [canonical(s) for s in serial]

    def test_results_collectable_out_of_order(self, client, program):
        first = client.submit("simulate", {
            "program": protocol.encode_value(program)
        })
        second = client.submit("health", {})
        # draining the later call first stashes the earlier response
        assert second.result()["status"] == "ok"
        assert canonical(first.result()) == \
            canonical(api.simulate(program=program))

    def test_submitted_op_error_raises_on_result(self, client):
        pending = client.submit("compile", {})
        with pytest.raises(protocol.RemoteOpError):
            pending.result()


class TestBatching:
    def test_concurrent_simulates_batch_and_match_serial(
        self, server, program
    ):
        """The load-bearing guarantee: coalesced execution answers
        byte-identically to serial repro.api calls."""
        machines = [api.MachineConfig(n_pfus=n, reconfig_latency=r)
                    for n in (1, 2, 4) for r in (0, 10, 40)]
        expected = [canonical(api.simulate(program=program, machine=m))
                    for m in machines]
        got: list = [None] * len(machines)

        def one(i):
            with ServeClient(server.address, timeout=60.0) as c:
                got[i] = canonical(
                    c.simulate(program=program, machine=machines[i])
                )

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(len(machines))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == expected

        batch_sizes = server.recorder.metrics.value(
            "serve.batch.size", op="simulate"
        )
        assert batch_sizes is not None and batch_sizes.max >= 2, \
            "concurrent same-program simulates never coalesced"

    def test_poisoned_batchmate_fails_alone(self, server, program):
        """One bad machine config in a coalesced batch answers op_failed
        while its batchmates succeed (satellite edge case)."""
        results: dict = {}

        def occupy():
            with ServeClient(server.address, timeout=60.0) as c:
                results["sleep"] = c.call("_sleep", {"seconds": 0.4})

        def good(tag, machine):
            with ServeClient(server.address, timeout=60.0) as c:
                results[tag] = canonical(
                    c.simulate(program=program, machine=machine)
                )

        def bad():
            with ServeClient(server.address, timeout=60.0) as c:
                try:
                    c.call("simulate", {
                        "program": protocol.encode_value(program),
                        "ext_defs": None,
                        "machine": {"no_such_field": 1},
                    })
                except protocol.ServeError as exc:
                    results["bad"] = exc

        # Occupy both workers so the three simulates queue into one batch.
        occupiers = [threading.Thread(target=occupy) for _ in range(2)]
        for t in occupiers:
            t.start()
        time.sleep(0.1)
        others = [
            threading.Thread(target=good,
                             args=("good1", api.MachineConfig())),
            threading.Thread(target=bad),
            threading.Thread(
                target=good,
                args=("good2", api.MachineConfig(n_pfus=1))),
        ]
        for t in others:
            t.start()
        for t in occupiers + others:
            t.join()
        assert results["good1"] == canonical(api.simulate(program=program))
        assert results["good2"] == canonical(
            api.simulate(program=program, machine=api.MachineConfig(n_pfus=1))
        )
        assert isinstance(results["bad"], protocol.RemoteOpError)


class TestLoad:
    def test_32_clients_every_request_answered(self, server):
        """The acceptance-criteria load shape: 32 concurrent clients,
        mixed ops; every request gets a response (success or explicit
        error), simulate answers byte-match serial execution, and no
        worker processes leak."""
        report = run_smoke(server.address, clients=32, requests=64,
                           timeout=120.0)
        assert report.passed, report.summary()
        assert report.answered == report.issued
        assert report.dropped == 0
        assert report.mismatches == []
        with ServeClient(server.address, timeout=30.0) as c:
            health = c.health()
        assert health["workers"] == server.config.workers
        assert health["queue_depth"] == 0


class TestBackpressure:
    def test_overload_answers_explicitly(self):
        config = ServeConfig(workers=1, max_queue=2, debug_ops=True,
                             linger=0.0)
        with ToolflowServer(config) as srv:
            outcomes: list = []
            lock = threading.Lock()

            def flood():
                with ServeClient(srv.address, timeout=30.0,
                                 retries=0) as c:
                    try:
                        c.call("_sleep", {"seconds": 0.15})
                        verdict = "ok"
                    except protocol.OverloadedError:
                        verdict = "overloaded"
                with lock:
                    outcomes.append(verdict)

            threads = [threading.Thread(target=flood) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(outcomes) == 8, "some requests were never answered"
        assert outcomes.count("overloaded") >= 1
        assert outcomes.count("ok") >= 1

    def test_deadline_expires_while_queued(self):
        config = ServeConfig(workers=1, debug_ops=True, linger=0.0)
        with ToolflowServer(config) as srv:
            blocker = threading.Thread(target=lambda: ServeClient(
                srv.address, timeout=30.0
            ).connect().call("_sleep", {"seconds": 0.6}))
            blocker.start()
            time.sleep(0.1)
            with ServeClient(srv.address, timeout=30.0) as c:
                with pytest.raises(protocol.DeadlineExceededError) as info:
                    c.call("_sleep", {"seconds": 0.01}, timeout_ms=100)
            blocker.join()
        assert "in queue" in str(info.value)


class TestDrain:
    def test_stop_completes_inflight_work(self):
        config = ServeConfig(workers=1, debug_ops=True, linger=0.0)
        srv = ToolflowServer(config).start()
        result: dict = {}

        def slow():
            with ServeClient(srv.address, timeout=30.0) as c:
                result["value"] = c.call("_sleep", {"seconds": 0.4})

        thread = threading.Thread(target=slow)
        thread.start()
        time.sleep(0.1)
        srv.stop()
        thread.join()
        assert result["value"] == "slept"
        with pytest.raises(protocol.ServerClosedError):
            ServeClient(srv.address, timeout=2.0, retries=0).call("health")

    def test_sigterm_drains_cli_server(self, tmp_path):
        """`t1000 serve` under SIGTERM finishes in-flight work, answers
        it, and exits 0 (satellite edge case)."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--workers", "1", "--debug-ops"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            address = banner.split("listening on ")[1].split()[0]
            result: dict = {}

            def slow():
                with ServeClient(address, timeout=30.0) as c:
                    c.wait_ready()
                    result["value"] = c.call("_sleep", {"seconds": 0.6})

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.3)          # request is in flight
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=30.0)
            assert proc.wait(timeout=30.0) == 0
            assert result.get("value") == "slept", \
                "in-flight request was dropped by the drain"
            assert "drained, bye" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestApiConnect:
    def test_api_connect_returns_working_client(self, server, program):
        client = api.connect(server.address, timeout=60.0)
        try:
            served = client.simulate(program=program)
            assert canonical(served) == \
                canonical(api.simulate(program=program))
        finally:
            client.close()


class TestReconnectJitter:
    def test_delays_stay_in_decorrelated_window(self):
        import random

        from repro.serve.client import _BACKOFF_CAP, _jittered_backoff

        random.seed(1234)
        base = 0.05
        prev = base
        for _ in range(200):
            nxt = _jittered_backoff(base, prev)
            assert base <= nxt <= min(_BACKOFF_CAP, max(base, prev * 3.0))
            prev = nxt

    def test_delays_are_capped(self):
        from repro.serve.client import _jittered_backoff

        for _ in range(50):
            assert _jittered_backoff(0.05, 1e9, cap=2.5) <= 2.5

    def test_two_clients_desynchronise(self):
        import random

        from repro.serve.client import _jittered_backoff

        random.seed(99)
        a = [0.05]
        b = [0.05]
        for _ in range(6):
            a.append(_jittered_backoff(0.05, a[-1]))
        for _ in range(6):
            b.append(_jittered_backoff(0.05, b[-1]))
        # with jitter, two clients retrying from the same failure time
        # do not share a single deterministic schedule
        assert a[1:] != b[1:]


class TestAdmissionClassTag:
    def test_class_field_rides_along_and_backend_ignores_it(self, server):
        client = ServeClient(server.address, timeout=60.0,
                             admission_class="sweep")
        sent = []
        original = protocol.dump_line

        def capture(payload):
            sent.append(payload)
            return original(payload)

        protocol_dump, protocol.dump_line = protocol.dump_line, capture
        try:
            with client:
                assert client.health()["status"] == "ok"
                pending = client.submit("health")
                assert pending.result()["status"] == "ok"
        finally:
            protocol.dump_line = protocol_dump
        # the in-process server shares dump_line: keep requests only
        requests = [p for p in sent if "op" in p]
        assert len(requests) == 2
        assert all(req["class"] == "sweep" for req in requests)

    def test_untagged_client_sends_no_class_field(self, server):
        sent = []
        original = protocol.dump_line

        def capture(payload):
            sent.append(payload)
            return original(payload)

        protocol_dump, protocol.dump_line = protocol.dump_line, capture
        try:
            with ServeClient(server.address, timeout=60.0) as client:
                client.health()
        finally:
            protocol.dump_line = protocol_dump
        requests = [p for p in sent if "op" in p]
        assert requests and all("class" not in req for req in requests)


class TestCliParsing:
    def test_serve_and_client_subcommands_parse(self):
        from repro.harness.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--port", "7070", "--workers", "3",
            "--max-queue", "10", "--max-batch", "4",
            "--timeout-ms", "5000", "--worker-max-requests", "9",
        ])
        assert (args.port, args.workers, args.max_queue,
                args.max_batch) == (7070, 3, 10, 4)
        args = parser.parse_args(
            ["client", "smoke", "--connect", "h:1", "--clients", "4",
             "--requests", "9"]
        )
        assert args.connect == "h:1"
        assert (args.clients, args.requests) == (4, 9)
        args = parser.parse_args(["client", "run", "gsm_encode",
                                  "--algorithm", "greedy"])
        assert args.workload == "gsm_encode"
