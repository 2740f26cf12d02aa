"""Workload ``served_sweep``: sweeps and interactive requests via the gateway.

Set-up starts one ``t1000 serve`` backend with one worker and one
``t1000 gateway`` in front of it, each on a free port and in its own
process group.  The benchmark process then holds two connections to the
gateway:

* a closed-loop ``$trace_ref`` sweep (class ``sweep``) over a tiny
  rewritten kernel, keeping ``IN_FLIGHT`` points in flight; one op is
  one pass over the machine grid;
* an open-loop interactive stream (class ``interactive``): Poisson
  arrivals at ``INTERACTIVE_RATE`` requests per second with the program
  inline, each request timed from when it was due.

The end-to-end ``query_ms`` is the median latency of one sweep point.
The interactive latency is a per-layer diagnostic: beside a sweep that
keeps the one worker busy, its median moves by up to a fifth between
runs, because it sits where the latency distribution is flattest.

Every answer is compared with ``repro.api.simulate`` results computed in
set-up.  Teardown stops both process groups and checks that no gateway,
backend or worker process outlives the run.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque

from benchlib import (
    HostSpeed, Tracer, canonical, group_members, histogram_quantile,
    median, model_counts, own_peak_rss_mb, percentile, raw_ms, supported_tail,
    vm_hwm_mb,
)

#: The sweep kernel (the serve smoke test's ``smoke_mac``, 3.2k dynamic
#: instructions); a selective 2-PFU rewrite gives it two configurations.
SWEEP_SOURCE = """
.text
main:
    li $s0, 400
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
    move $v0, $t2
    halt
"""
#: The interactive kernel (``smoke_shift``), sent inline every time.
INTERACTIVE_SOURCE = """
.text
main:
    li $s0, 300
    li $t4, 9
loop:
    srl  $t5, $t4, 1
    or   $t5, $t5, $t4
    andi $t5, $t5, 511
    addu $t4, $t5, $t4
    andi $t4, $t4, 127
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $v0, $t4
    halt
"""
SWEEP_AXES = {"n_pfus": (1, 2, 4, None), "reconfig_latency": (10, 100),
              "ruu_size": (32, 64)}
INTERACTIVE_AXES = {"n_pfus": (1, 2, None), "reconfig_latency": (0, 10, 40)}
FIG6 = {"n_pfus": 2, "reconfig_latency": 10, "ruu_size": 64}
IN_FLIGHT = 4
INTERACTIVE_RATE = 10.0         # requests per second
CLIENT_TIMEOUT_S = 10.0
HOP_SWEEPS = 8                  # traced run: direct/gateway sweep pairs
CAL_EVERY_S = 0.5               # host-speed sample spacing between ops
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_ANNOUNCE = re.compile(r"listening on (\S+?):(\d+)")


def _grid(axes: dict) -> list[dict]:
    return [dict(zip(axes, values))
            for values in itertools.product(*axes.values())]


def _rewrite(source: str, name: str):
    from repro import api

    program = api.compile(source=source, name=name)
    selection = api.select(profile=api.profile(program=program),
                           algorithm="selective", pfus=2)
    return (program, *api.rewrite(program=program, selection=selection))


# ----------------------------------------------------------------------
# the fleet


class Fleet:
    """One backend and one gateway, each in its own process group."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.procs: dict[str, subprocess.Popen] = {}
        self.addresses: dict[str, str] = {}
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("T1000_") and k != "REPRO_SERVE_PICKLE"}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = work

    def start(self) -> None:
        self._spawn("backend", ["serve", "--port", "0", "--workers", "1"])
        self._spawn("gateway", ["gateway", "run", "--port", "0",
                                "--attach", self.addresses["backend"]])

    def _spawn(self, role: str, argv: list[str]) -> None:
        log_path = os.path.join(self.work, f"{role}-{os.getpid()}.log")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.harness.cli", *argv,
                 "--host", "127.0.0.1"],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=self.env, cwd=self.root, start_new_session=True,
            )
        self.procs[role] = proc
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(log_path) as log:
                match = _ANNOUNCE.search(log.read())
            if match:
                self.addresses[role] = f"{match.group(1)}:{match.group(2)}"
                return
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        with open(log_path) as log:
            tail = log.read()[-2000:]
        raise RuntimeError(f"{role} did not start: {tail}")

    def peak_rss_mb(self, backend_stats: dict) -> float:
        """Peak RSS of the gateway, backend and current worker."""
        pids = [p.pid for p in self.procs.values()]
        pids += backend_stats["workers"]["pids"]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> list[str]:
        """SIGTERM both process groups and wait until no member (worker
        processes included) is left; returns what had to be killed."""
        groups = {role: proc.pid for role, proc in self.procs.items()}
        for role in ("gateway", "backend"):
            if role in groups:
                _signal_group(groups[role], signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in self.procs.values():
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        while time.monotonic() < deadline and any(
                group_members(pgid) for pgid in groups.values()):
            time.sleep(0.05)
        problems = []
        for role, pgid in groups.items():
            left = group_members(pgid)
            if left:
                problems.append(f"{role} processes {left} outlived the run")
                _signal_group(pgid, signal.SIGKILL)
        for proc in self.procs.values():
            proc.wait()
        self.procs.clear()
        return problems


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# the workload


class ServedSweep:
    name = "served_sweep"

    def __init__(self, seed: int, work: str, tracer: Tracer | None,
                 speed: HostSpeed):
        rng = random.Random(seed)
        self.grid = _grid(SWEEP_AXES)
        rng.shuffle(self.grid)
        self.interactive_grid = _grid(INTERACTIVE_AXES)
        self.interactive_seed = rng.randrange(2 ** 32)
        self.work = work
        self.tracer = tracer
        self.speed = speed
        self.fleet = Fleet(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), work)
        self.clients: list = []
        self.backend_client = None
        # (start, end) intervals: sweep ops, sweep points (sent to
        # answered) and interactive requests (due to answered)
        self.sweeps: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []
        self.untraced: list[tuple[float, float]] = []
        self.points: list[tuple[float, float]] = []
        self.interactive: list[tuple[float, float]] = []
        self.late_ms: list[float] = []
        self.warmed = False
        self.ops = self.failed_ops = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.codes: dict[str, int] = {}
        self.layer: dict[str, float] = {}
        self.peak_mb = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # set-up

    def setup(self) -> None:
        from repro import api

        self.fleet.start()
        base, self.sweep_program, self.sweep_defs = _rewrite(
            SWEEP_SOURCE, "perfbench_sweep")
        _, self.interactive_program, self.interactive_defs = _rewrite(
            INTERACTIVE_SOURCE, "perfbench_interactive")
        self.machines = [api.MachineConfig(**p) for p in self.grid]
        self.expected_stats = [
            api.simulate(program=self.sweep_program,
                         ext_defs=self.sweep_defs, machine=m)
            for m in self.machines
        ]
        self.expected = [canonical(s) for s in self.expected_stats]
        self.interactive_machines = [
            api.MachineConfig(**p) for p in self.interactive_grid]
        self.interactive_expected = [
            canonical(api.simulate(program=self.interactive_program,
                                   ext_defs=self.interactive_defs, machine=m))
            for m in self.interactive_machines
        ]
        fig6 = self.grid.index(FIG6)
        base_cycles = api.simulate(
            program=base,
            machine=api.MachineConfig(ruu_size=FIG6["ruu_size"])).cycles
        self.speedup = base_cycles / self.expected_stats[fig6].cycles

        gateway = self.fleet.addresses["gateway"]
        self.sweep_client = self._client(gateway, "sweep")
        self.interactive_client = self._client(gateway, "interactive")
        self.backend_client = self._client(self.fleet.addresses["backend"])
        self.ref = self.sweep_client.trace_ref(program=self.sweep_program,
                                               ext_defs=self.sweep_defs)
        # The warm-up op pays the one need_trace upload.
        if not self._sweep_op(self.sweep_client, self.ref, False)[0]:
            raise RuntimeError("warm-up sweep failed: "
                               + "; ".join(self.errors[-5:]))
        self._interactive_request(time.perf_counter(), -1)
        if self.failed:
            raise RuntimeError("warm-up request failed: "
                               + "; ".join(self.errors[-5:]))
        self.warmed = True
        self.attempted = 0
        for samples in (self.points, self.interactive, self.late_ms):
            samples.clear()
        self.stats_before = self._backend_stats()

    def _client(self, address: str, admission_class: str | None = None):
        from repro.serve.client import ServeClient

        client = ServeClient(address, timeout=CLIENT_TIMEOUT_S,
                             admission_class=admission_class).connect()
        self.clients.append(client)
        return client

    def _backend_stats(self) -> dict:
        return self.backend_client.stats()

    # ------------------------------------------------------------------
    # requests

    def _fail(self, what: str, code: str) -> None:
        with self._lock:
            self.failed += 1
            self.codes[code] = self.codes.get(code, 0) + 1
            if len(self.errors) < 200:
                self.errors.append(what)

    def _sweep_op(self, client, ref, traced: bool, points: list | None = None
                  ) -> tuple[bool, tuple[float, float]]:
        """One pass over the grid with ``IN_FLIGHT`` points in flight.
        Returns whether every answer was right, and the op's interval."""
        from repro.serve import protocol

        points = self.points if points is None else points
        pending: deque = deque()
        counts = {"submitted": 0, "answered": 0}
        ok = True
        retries = client.need_trace_retries

        def resolve() -> bool:
            index, call, sent = pending.popleft()
            counts["answered"] += 1
            try:
                stats = call.result()
            except protocol.ServeError as exc:
                self._fail(f"sweep point {index}: {exc}", exc.code)
                return False
            done = time.perf_counter()
            points.append((sent, done))
            if traced:
                self.tracer.add("served.sweep.request", sent, done,
                                rid=call.request_id, point=index)
            if canonical(stats) != self.expected[index]:
                self._fail(f"sweep point {index} diverged", "mismatch")
                return False
            return True

        start = time.perf_counter()
        try:
            for index, machine in enumerate(self.machines):
                while len(pending) >= IN_FLIGHT:
                    ok &= resolve()
                self.attempted += 1
                counts["submitted"] += 1
                pending.append((index, client.simulate_submit(
                    program=ref, machine=machine), time.perf_counter()))
            while pending:
                ok &= resolve()
        except OSError as exc:
            # The connection broke: every unanswered point is lost.
            for _ in range(counts["submitted"] - counts["answered"]):
                self._fail(f"sweep connection: {exc}", "connection")
            client.close()
            return False, (start, time.perf_counter())
        end = time.perf_counter()
        if self.warmed and client.need_trace_retries != retries:
            # A re-upload after warm-up means the cache lost the bundle.
            self._fail("need_trace after warm-up", protocol.NEED_TRACE)
            ok = False
        if traced:
            self.tracer.add("served.sweep.op", start, end)
        return ok, (start, end)

    def _interactive_request(self, due: float, number: int) -> None:
        from repro.serve import protocol

        index = random.Random(f"{self.interactive_seed}:{number}").randrange(
            len(self.interactive_machines))
        sent = time.perf_counter()
        with self._lock:
            self.attempted += 1
        try:
            stats = self.interactive_client.simulate(
                program=self.interactive_program,
                ext_defs=self.interactive_defs,
                machine=self.interactive_machines[index])
        except protocol.ServeError as exc:
            self._fail(f"interactive {number}: {exc}", exc.code)
            return
        done = time.perf_counter()
        if canonical(stats) != self.interactive_expected[index]:
            self._fail(f"interactive {number} diverged", "mismatch")
            return
        with self._lock:
            self.interactive.append((due, done))
            self.late_ms.append((sent - due) * 1000.0)
        if self.tracer is not None:
            self.tracer.add("served.interactive.request", sent, done,
                            due=due)

    def _interactive_loop(self, start: float, end: float) -> None:
        """Open loop: Poisson arrivals; a fixed period would beat against
        the sweep's own cadence."""
        gaps = random.Random(f"{self.interactive_seed}:gaps")
        number = 0
        due = start
        while True:
            due += gaps.expovariate(INTERACTIVE_RATE)
            if due >= end:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._interactive_request(due, number)
            number += 1

    # ------------------------------------------------------------------
    # measuring

    def measure(self, seconds: float) -> None:
        self.speed.sample()
        start = time.perf_counter()
        end = start + seconds
        sent0 = self.sweep_client.bytes_sent
        received0 = self.sweep_client.bytes_received
        interactive = threading.Thread(
            target=self._interactive_loop,
            args=(start, end),
            name="perfbench-interactive", daemon=True)
        interactive.start()
        try:
            while time.perf_counter() < end:
                if self.speed.age() >= CAL_EVERY_S:
                    self.speed.sample()
                traced = self.tracer is not None and self.ops % 2 == 1
                ok, span = self._sweep_op(self.sweep_client, self.ref, traced)
                self.ops += 1
                if not ok:
                    self.failed_ops += 1
                elif self.tracer is None:
                    self.sweeps.append(span)
                else:
                    (self.traced if traced else self.untraced).append(span)
        finally:
            interactive.join(timeout=seconds + 2 * CLIENT_TIMEOUT_S)
        self.speed.sample()
        if interactive.is_alive():
            self.errors.append("interactive generator did not finish")
        n_points = max(1, len(self.points))
        self.wire = (
            (self.sweep_client.bytes_sent - sent0) / n_points,
            (self.sweep_client.bytes_received - received0) / n_points,
        )
        self.stats_after = self._backend_stats()
        if self.tracer is not None:
            self._layer_from_stats()
            self._gateway_hop()

    def _gateway_hop(self) -> None:
        """Same sweep direct to the backend and via the gateway, with no
        other load; the hop is the difference of the point p50s."""
        direct_client = self._client(self.fleet.addresses["backend"])
        direct_ref = direct_client.trace_ref(program=self.sweep_program,
                                             ext_defs=self.sweep_defs)
        direct: list[tuple[float, float]] = []
        via: list[tuple[float, float]] = []
        for _ in range(HOP_SWEEPS):
            self.speed.sample()
            self._sweep_op(direct_client, direct_ref, False, direct)
            self._sweep_op(self.sweep_client, self.ref, False, via)
        self.speed.sample()
        self.layer["gateway.hop_ms"] = (
            median(self.speed.scaled_ms(via))
            - median(self.speed.scaled_ms(direct)))
        self.layer["gateway.hop_samples"] = min(len(via), len(direct))

    def _layer_from_stats(self) -> None:
        before, after = self.stats_before, self.stats_after

        def rows(stats, name, **labels):
            return [r for r in stats["metrics"] if r["name"] == name
                    and all(r["labels"].get(k) == v for k, v in labels.items())]

        def counter(name, **labels):
            return (sum(r["value"] for r in rows(after, name, **labels))
                    - sum(r["value"] for r in rows(before, name, **labels)))

        def histogram(name, **labels):
            new = (rows(after, name, **labels) or [None])[0]
            old = (rows(before, name, **labels) or [None])[0]
            if new is None:
                return {"count": 0}
            if old is None:
                return new
            return dict(new, count=new["count"] - old["count"],
                        sum=new["sum"] - old["sum"],
                        bucket_counts=[a - b for a, b in zip(
                            new["bucket_counts"], old["bucket_counts"])])

        batches = histogram("serve.batch.size", op="simulate")
        latency = histogram("serve.latency.ms", op="simulate")
        hits = after["trace_cache"]["hits"] - before["trace_cache"]["hits"]
        misses = (after["trace_cache"]["misses"]
                  - before["trace_cache"]["misses"])
        self.layer.update({
            "serve.batch_size_mean": (batches["sum"] / batches["count"]
                                      if batches["count"] else 0.0),
            "serve.server_p50_ms": histogram_quantile(latency, 0.5),
            "serve.trace_cache.hit_ratio": (hits / (hits + misses)
                                            if hits + misses else 0.0),
            "serve.trace_cache.need_trace": counter(
                "serve.trace_cache.need_trace"),
            "serve.worker.recycles": (after["workers"]["recycles"]
                                      - before["workers"]["recycles"]),
            "serve.worker.crashes": (after["workers"]["crashes"]
                                     - before["workers"]["crashes"]),
            "serve.rejected": counter("serve.rejected"),
            "gateway.failovers": self.sweep_client.stats()["failovers"],
        })

    # ------------------------------------------------------------------
    # teardown and results

    def teardown(self) -> None:
        try:
            if self.backend_client is not None:
                stats = self._backend_stats()
                self.peak_mb = own_peak_rss_mb() + self.fleet.peak_rss_mb(
                    stats)
        except Exception as exc:   # teardown must go on regardless
            self.errors.append(f"final stats: {exc}")
        for client in self.clients:
            client.close()
        self.errors.extend(self.fleet.stop())

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        sweep = median(self.speed.scaled_ms(self.sweeps))
        return {
            "sweep_ms": (sweep, "ms"),
            "sweep_points_per_s": (len(self.machines) / (sweep / 1000.0),
                                   "1/s"),
            "query_ms": (median(self.speed.scaled_ms(self.points)), "ms"),
            "peak_rss_mb": (self.peak_mb, "MB"),
        }

    def per_layer(self) -> dict[str, float]:
        out = dict(self.layer)
        out["serve.wire.bytes_out_per_point"] = self.wire[0]
        out["serve.wire.bytes_in_per_point"] = self.wire[1]
        points = self.speed.scaled_ms(self.points)
        out["serve.sweep_point_p99_ms"] = percentile(points, 99.0)
        out["serve.sweep_point_samples"] = len(points)
        interactive = self.speed.scaled_ms(self.interactive)
        pct, tail = supported_tail(interactive)
        out["interactive.p50_ms"] = median(interactive)
        out["interactive.tail_pct"] = pct
        out["interactive.tail_ms"] = tail
        out["interactive.samples"] = len(interactive)
        out["interactive.late_ms_max"] = max(self.late_ms, default=0.0)
        out.update(model_counts(self.expected_stats))
        out["model.t1000_speedup"] = self.speedup
        out["trace.ops"] = len(self.traced)
        out["trace.overhead"] = (
            median(self.speed.scaled_ms(self.traced))
            / median(self.speed.scaled_ms(self.untraced))
            if self.untraced and self.traced else 0.0)
        return out

    def record(self) -> dict:
        points = self.speed.scaled_ms(self.points)
        interactive = self.speed.scaled_ms(self.interactive)
        return {
            "grid": self.grid, "interactive_grid": self.interactive_grid,
            "in_flight": IN_FLIGHT, "interactive_rate": INTERACTIVE_RATE,
            "ops": {"attempted": self.ops, "failed": self.failed_ops},
            "requests": {"attempted": self.attempted, "failed": self.failed,
                         "by_code": self.codes},
            "samples": {"sweep_ms": len(self.sweeps),
                        "sweep_point": len(points),
                        "interactive": len(interactive),
                        "traced_ops": len(self.traced),
                        "untraced_ops": len(self.untraced)},
            "tails": {"sweep_point": supported_tail(points),
                      "interactive": supported_tail(interactive)},
            "raw_ms": {"sweep": raw_ms(self.sweeps),
                       "point": raw_ms(self.points),
                       "interactive": raw_ms(self.interactive)},
            "scaled_ms": {"sweep": self.speed.scaled_ms(self.sweeps),
                          "point": points,
                          "interactive": interactive},
            "errors": self.errors[:20],
        }
