"""Local backend fleet management: spawn, drain, autoscale.

A :class:`FleetController` owns N ``t1000 serve`` backend subprocesses
(the same ``repro.harness.cli serve`` entry point operators run by
hand), each bound to an ephemeral port parsed from its startup
announcement.  ``t1000 gateway run`` builds one, registers every
backend with the :class:`~repro.gateway.server.Gateway`, and attaches
the autoscaler.

Autoscaling is deliberately simple and fully unit-testable: the pure
:func:`autoscale_decision` looks at the gateway's queue-depth gauge
(the same signal ``repro.obs`` exports as ``gateway.queue.depth``) and
says ``"up"`` when the queue is persistently deep and a slot is free,
``"down"`` after ``scale_down_intervals`` consecutive idle checks, and
``None`` otherwise.  The async :func:`autoscale_loop` applies those
decisions: spawn + ring join on the way up, ring leave + SIGTERM drain
(the backend finishes its in-flight work, then exits) on the way down.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

__all__ = ["FleetController", "FleetError", "autoscale_decision",
           "autoscale_loop"]

_ANNOUNCE = re.compile(r"listening on (\S+?):(\d+)")


class FleetError(RuntimeError):
    """A backend subprocess failed to start or announce its port."""


def _backend_env() -> dict[str, str]:
    """Child environment with the repro package importable."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])  # .../src
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


class FleetController:
    """Spawns and drains local ``t1000 serve`` backend subprocesses."""

    def __init__(
        self,
        *,
        workers: int = 2,
        cache_dir: str | None = None,
        host: str = "127.0.0.1",
        max_queue: int = 128,
        spawn_timeout: float = 60.0,
        debug_ops: bool = False,
    ):
        self.workers = workers
        self.cache_dir = cache_dir
        self.host = host
        self.max_queue = max_queue
        self.spawn_timeout = spawn_timeout
        self.debug_ops = debug_ops
        self.procs: dict[str, subprocess.Popen] = {}
        self.spawned = 0
        self.drained = 0

    # ------------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self.procs)

    def _argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.harness.cli", "serve",
            "--host", self.host, "--port", "0",
            "--workers", str(self.workers),
            "--max-queue", str(self.max_queue),
        ]
        if self.cache_dir:
            argv += ["--cache-dir", self.cache_dir]
        if self.debug_ops:
            argv += ["--debug-ops"]
        return argv

    def spawn(self) -> str:
        """Start one backend; blocks until it announces its port.

        Returns the backend's ``host:port`` name."""
        proc = subprocess.Popen(
            self._argv(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=_backend_env(),
        )
        try:
            assert proc.stdout is not None
            # serve_forever prints exactly one announcement line first.
            line = proc.stdout.readline()
        except Exception as exc:
            proc.kill()
            raise FleetError(f"backend startup read failed: {exc}") from exc
        match = _ANNOUNCE.search(line or "")
        if match is None:
            proc.kill()
            raise FleetError(
                f"backend did not announce a port (got {line!r}, "
                f"exit code {proc.poll()})"
            )
        name = f"{match.group(1)}:{match.group(2)}"
        self.procs[name] = proc
        self.spawned += 1
        return name

    def drain(self, name: str, timeout: float = 30.0) -> None:
        """Gracefully stop one backend (SIGTERM → serve drains)."""
        proc = self.procs.pop(name, None)
        if proc is None:
            return
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self.drained += 1

    def kill(self, name: str) -> None:
        """Hard-kill one backend (failover testing)."""
        proc = self.procs.pop(name, None)
        if proc is None:
            return
        proc.kill()
        proc.wait()

    def drain_all(self, timeout: float = 30.0) -> None:
        for name in list(self.procs):
            self.drain(name, timeout=timeout)

    def reap(self) -> list[str]:
        """Names of backends whose process exited on its own."""
        dead = [n for n, p in self.procs.items() if p.poll() is not None]
        for name in dead:
            self.procs.pop(name)
        return dead


# ----------------------------------------------------------------------
# autoscaling


def autoscale_decision(depth: int, n_backends: int, config,
                       idle_streak: int) -> tuple[str | None, int]:
    """One scaling decision from the queue-depth gauge.

    Returns ``(decision, idle_streak)`` where decision is ``"up"``,
    ``"down"``, or ``None``.  Scale-up triggers immediately on a deep
    queue (latency is on the line); scale-down needs
    ``scale_down_intervals`` consecutive idle observations (hysteresis,
    so a bursty workload does not thrash backends up and down).
    """
    if depth >= config.scale_up_depth and n_backends < config.max_backends:
        return "up", 0
    if depth == 0:
        idle_streak += 1
        if (idle_streak >= config.scale_down_intervals
                and n_backends > config.min_backends):
            return "down", 0
        return None, idle_streak
    return None, 0


async def autoscale_loop(gateway, fleet: FleetController) -> None:
    """Apply :func:`autoscale_decision` on a fixed cadence.

    Runs on the gateway loop until cancelled.  Also restarts backends
    that died outright (crash, OOM) so the fleet converges back to its
    configured floor.
    """
    config = gateway.config
    idle_streak = 0
    while True:
        await asyncio.sleep(config.autoscale_interval)
        for name in fleet.reap():
            gateway.remove_backend(name)
        while len(fleet.procs) < config.min_backends:
            name = await asyncio.to_thread(fleet.spawn)
            gateway.add_backend(name)
            gateway.recorder.counter(
                "gateway.autoscale", action="replace"
            ).inc()
        decision, idle_streak = autoscale_decision(
            gateway.queue_depth(), len(fleet.procs), config, idle_streak
        )
        if decision == "up":
            name = await asyncio.to_thread(fleet.spawn)
            gateway.add_backend(name)
            gateway.recorder.counter(
                "gateway.autoscale", action="up"
            ).inc()
        elif decision == "down":
            # Newest backend leaves: its caches are the coldest.
            name = fleet.names[-1]
            gateway.remove_backend(name)
            await asyncio.to_thread(fleet.drain, name)
            gateway.recorder.counter(
                "gateway.autoscale", action="down"
            ).inc()
