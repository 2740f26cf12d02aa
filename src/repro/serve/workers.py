"""Worker-process management for the toolflow service.

:class:`WorkerHandle` is one live ``repro.serve.worker`` subprocess and
its frame pipes.  :class:`PooledWorker` wraps a handle with the
serving policy — respawn on crash with bounded retries, recycle after
``max_requests`` jobs (so slow leaks in long-lived simulator processes
cannot accumulate), graceful close on drain — and is what the server's
dispatcher threads actually call.

Subprocesses (not ``multiprocessing``/fork) keep the model simple and
safe under the server's threads: a worker is an ordinary child process
whose death is a pipe EOF, and recycling is "close stdin, wait, spawn".
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.serve import protocol


class WorkerCrashed(Exception):
    """The worker died mid-job (pipe EOF / broken pipe)."""


def _worker_env() -> dict[str, str]:
    """Child environment with the repro package importable."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])  # .../src
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


class WorkerHandle:
    """One live worker subprocess."""

    def __init__(self, cache_dir: str | None = None,
                 debug_ops: bool = False):
        argv = [sys.executable, "-m", "repro.serve.worker"]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        if debug_ops:
            argv += ["--debug-ops"]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=None, env=_worker_env(),
        )
        self.requests_served = 0
        #: Trace-bundle digests this *process* has decoded — purely an
        #: optimisation hint for the dispatcher's "attach the blob
        #: up-front?" decision.  A stale entry (the worker's small
        #: decode LRU evicted it) self-heals via the ``need_blob``
        #: reply; a respawn starts empty, which is exactly right.
        self.seen_digests: set[str] = set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def run(self, job: dict) -> dict:
        """Ship one job frame and block for its reply frame."""
        try:
            protocol.write_frame(self.proc.stdin, job)
            reply = protocol.read_frame(self.proc.stdout)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise WorkerCrashed(str(exc) or type(exc).__name__) from exc
        if reply is None:
            raise WorkerCrashed(
                f"worker pid {self.pid} exited mid-job "
                f"(code {self.proc.poll()})"
            )
        self.requests_served += 1
        digest = job.get("trace_ref")
        if digest and not reply.get("need_blob"):
            self.seen_digests.add(digest)
        return reply

    def close(self, timeout: float = 5.0) -> None:
        """Graceful stop: EOF on stdin, wait, kill as a last resort."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class PooledWorker:
    """A self-healing worker slot: one live handle plus policy.

    ``execute`` retries a crashed job on a fresh process up to
    ``retries`` extra times, then raises :class:`WorkerCrashed`; after
    ``max_requests`` jobs the process is proactively recycled.  Thread
    safety: each slot is driven by exactly one dispatcher thread; the
    lock only guards close() racing a late execute().
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        max_requests: int = 500,
        retries: int = 1,
        debug_ops: bool = False,
    ):
        self.cache_dir = cache_dir
        self.max_requests = max_requests
        self.retries = retries
        self.debug_ops = debug_ops
        self.crashes = 0
        self.recycles = 0
        self._lock = threading.Lock()
        self._closed = False
        self._handle = self._spawn()

    def _spawn(self) -> WorkerHandle:
        return WorkerHandle(cache_dir=self.cache_dir,
                            debug_ops=self.debug_ops)

    @property
    def pid(self) -> int:
        return self._handle.pid

    def alive(self) -> bool:
        return not self._closed and self._handle.alive()

    def needs_blob(self, digest: str) -> bool:
        """Should the dispatcher attach the bundle bytes up-front?

        Optimistic: ``False`` once this slot's current process has
        decoded ``digest`` (skipping the pipe copy on every later
        batch of the sweep); wrong guesses cost one ``need_blob``
        round trip, never a wrong answer."""
        with self._lock:
            return digest not in self._handle.seen_digests

    def execute(self, job: dict) -> dict:
        """Run one job, surviving worker crashes up to the retry budget."""
        last: WorkerCrashed | None = None
        for _attempt in range(self.retries + 1):
            with self._lock:
                if self._closed:
                    raise WorkerCrashed("worker pool is closed")
                handle = self._handle
            try:
                reply = handle.run(job)
            except WorkerCrashed as exc:
                last = exc
                self.crashes += 1
                with self._lock:
                    if self._closed:
                        raise
                    handle.close(timeout=0.5)
                    self._handle = self._spawn()
                continue
            if handle.requests_served >= self.max_requests:
                self.recycles += 1
                with self._lock:
                    if not self._closed:
                        handle.close()
                        self._handle = self._spawn()
            return reply
        assert last is not None
        raise last

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.close(timeout=timeout)
