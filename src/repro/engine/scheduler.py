"""Dependency-DAG job scheduler for the experiment engine.

A pool run (``jobs > 1``) turns the points the store cannot answer into
:class:`Job` objects in a :class:`JobGraph` (a point's leaf job depends
on its baseline and prepare jobs, which depend on a profile job); a
``jobs=1`` run makes no job.  A :class:`Scheduler` executes a graph
across a ``concurrent.futures.ProcessPoolExecutor``, or inline
(deterministic topological order, no processes) when it is given one
worker or one job, with:

- **per-job timeouts** — enforced inside the worker via ``SIGALRM``
  (platforms without it run without enforcement);
- **bounded retries** — a job failing with :class:`TransientJobError` or
  :class:`JobTimeoutError` is re-run up to ``retries`` extra times; any
  other exception fails the job immediately;
- **failure cascade** — jobs whose dependencies failed are recorded as
  ``skipped``, never run;
- **deterministic results** — ``run`` returns a ``job_id -> JobResult``
  mapping whose contents do not depend on completion order, so callers
  can assemble output in request order.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.telemetry import JobRecord, Telemetry
from repro.errors import ReproError
from repro.obs import WALL, get_recorder


class SchedulerError(ReproError):
    """Raised for malformed job graphs (cycles, unknown dependencies)."""


class JobTimeoutError(ReproError):
    """A job exceeded its wall-clock budget (retryable)."""


class TransientJobError(ReproError):
    """Raise inside a job to request a bounded retry."""


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``payload`` must be picklable; it is handed to the runner callable.
    ``retries`` is the number of *additional* attempts after the first
    failure (transient failures and timeouts only).
    """

    job_id: str
    kind: str
    payload: Any
    deps: tuple[str, ...] = ()
    timeout: float | None = None
    retries: int = 1


@dataclass
class JobResult:
    job_id: str
    status: str                  # "ok" | "failed" | "skipped"
    value: Any = None
    error: str | None = None
    attempts: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class JobGraph:
    """An insertion-ordered DAG of jobs, deduplicated by job id."""

    def __init__(self) -> None:
        self.jobs: dict[str, Job] = {}

    def add(self, job: Job) -> Job:
        """Add ``job``; adding an id twice returns the existing job."""
        existing = self.jobs.get(job.job_id)
        if existing is not None:
            return existing
        self.jobs[job.job_id] = job
        return job

    def __len__(self) -> int:
        return len(self.jobs)

    def topological_order(self) -> list[str]:
        """Kahn's algorithm, stable by insertion order; raises on cycles
        and on dependencies naming jobs absent from the graph."""
        pending: dict[str, int] = {}
        dependents: dict[str, list[str]] = {jid: [] for jid in self.jobs}
        for jid, job in self.jobs.items():
            for dep in job.deps:
                if dep not in self.jobs:
                    raise SchedulerError(
                        f"job {jid!r} depends on unknown job {dep!r}"
                    )
                dependents[dep].append(jid)
            pending[jid] = len(job.deps)
        ready = deque(jid for jid in self.jobs if pending[jid] == 0)
        order: list[str] = []
        while ready:
            jid = ready.popleft()
            order.append(jid)
            for dependent in dependents[jid]:
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self.jobs):
            cyclic = sorted(set(self.jobs) - set(order))
            raise SchedulerError(f"job graph has a cycle involving {cyclic}")
        return order


# ----------------------------------------------------------------------
# timeout plumbing (runs inside the worker process)


def _run_with_timeout(
    runner: Callable[[Any], Any], payload: Any, timeout: float | None
) -> Any:
    """Run ``runner(payload)``, raising JobTimeoutError past ``timeout``.

    Enforcement uses ``SIGALRM`` and therefore only applies on platforms
    that have it and when called from a main thread (always true inside
    ``ProcessPoolExecutor`` workers on POSIX).
    """
    can_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return runner(payload)

    def _on_alarm(signum, frame):  # pragma: no cover - signal context
        raise JobTimeoutError(f"job exceeded {timeout:.1f}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return runner(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_entry(
    runner: Callable[[Any], Any], payload: Any, timeout: float | None
) -> Any:
    """Module-level (picklable) wrapper submitted to the process pool."""
    return _run_with_timeout(runner, payload, timeout)


def _is_retryable(exc: BaseException) -> bool:
    return isinstance(exc, (TransientJobError, JobTimeoutError))


# ----------------------------------------------------------------------
# the scheduler


@dataclass
class Scheduler:
    """Executes a :class:`JobGraph` inline or across worker processes."""

    jobs: int = 1
    telemetry: Telemetry = field(default_factory=Telemetry)
    default_timeout: float | None = None
    default_retries: int | None = None
    poll_interval: float = 0.05

    # ------------------------------------------------------------------

    def run(
        self, graph: JobGraph, runner: Callable[[Any], Any]
    ) -> dict[str, JobResult]:
        """Execute every job; returns a result for each job id.

        ``runner`` is called as ``runner(job.payload)``.  With worker
        processes it must be a picklable module-level callable; inline it
        may be any callable (closures included).
        """
        order = graph.topological_order()
        if self.jobs <= 1 or len(graph) <= 1:
            return self._run_inline(graph, order, runner)
        return self._run_pool(graph, order, runner)

    # ------------------------------------------------------------------

    def _budget(self, job: Job) -> tuple[float | None, int]:
        timeout = job.timeout if job.timeout is not None else self.default_timeout
        retries = job.retries if self.default_retries is None else self.default_retries
        return timeout, max(0, retries)

    def _record(self, result: JobResult, kind: str) -> None:
        self.telemetry.record_job(
            JobRecord(
                job_id=result.job_id, kind=kind, status=result.status,
                attempts=result.attempts, wall_time=result.wall_time,
                error=result.error,
            )
        )

    def _skip(self, job: Job, failed_dep: str) -> JobResult:
        result = JobResult(
            job_id=job.job_id, status="skipped",
            error=f"dependency {failed_dep!r} did not complete",
        )
        self._record(result, job.kind)
        return result

    def _attempt_loop(
        self, job: Job, invoke: Callable[[Any, float | None], Any]
    ) -> JobResult:
        timeout, retries = self._budget(job)
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                value = invoke(job.payload, timeout)
            except Exception as exc:
                if _is_retryable(exc) and attempts <= retries:
                    continue
                return JobResult(
                    job_id=job.job_id, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempts,
                    wall_time=time.perf_counter() - started,
                )
            return JobResult(
                job_id=job.job_id, status="ok", value=value,
                attempts=attempts,
                wall_time=time.perf_counter() - started,
            )

    # ------------------------------------------------------------------
    # inline execution

    def _run_inline(
        self, graph: JobGraph, order: list[str],
        runner: Callable[[Any], Any],
    ) -> dict[str, JobResult]:
        rec = get_recorder()
        results: dict[str, JobResult] = {}
        for jid in order:
            job = graph.jobs[jid]
            failed = next(
                (dep for dep in job.deps if not results[dep].ok), None
            )
            if failed is not None:
                results[jid] = self._skip(job, failed)
                continue
            with rec.span(
                "engine.job", track="engine", job=jid, kind=job.kind
            ) as attrs:
                results[jid] = self._attempt_loop(
                    job,
                    lambda payload, t: _run_with_timeout(runner, payload, t),
                )
                if attrs is not None:
                    attrs["status"] = results[jid].status
                    attrs["attempts"] = results[jid].attempts
            self._record(results[jid], job.kind)
        return results

    # ------------------------------------------------------------------
    # process-pool execution

    def _run_pool(
        self, graph: JobGraph, order: list[str],
        runner: Callable[[Any], Any],
    ) -> dict[str, JobResult]:
        results: dict[str, JobResult] = {}
        pending: dict[str, int] = {
            jid: len(graph.jobs[jid].deps) for jid in order
        }
        dependents: dict[str, list[str]] = {jid: [] for jid in order}
        for jid in order:
            for dep in graph.jobs[jid].deps:
                dependents[dep].append(jid)
        attempts: dict[str, int] = {jid: 0 for jid in order}
        started_at: dict[str, float] = {}
        ready = deque(jid for jid in order if pending[jid] == 0)
        running: dict[Any, str] = {}

        rec = get_recorder()

        def resolve(jid: str, result: JobResult) -> None:
            results[jid] = result
            if rec.enabled and jid in started_at:
                start = started_at[jid] - rec.epoch
                rec.add_span(
                    "engine.job", start, start + result.wall_time,
                    clock=WALL, track="engine", job=jid,
                    kind=graph.jobs[jid].kind, status=result.status,
                    attempts=result.attempts,
                )
            self._record(result, graph.jobs[jid].kind)
            for dependent in dependents[jid]:
                if dependent in results:
                    continue
                if not result.ok:
                    resolve(dependent, JobResult(
                        job_id=dependent, status="skipped",
                        error=f"dependency {jid!r} did not complete",
                    ))
                else:
                    pending[dependent] -= 1
                    if pending[dependent] == 0:
                        ready.append(dependent)

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            def submit(jid: str) -> None:
                job = graph.jobs[jid]
                timeout, _ = self._budget(job)
                attempts[jid] += 1
                started_at.setdefault(jid, time.perf_counter())
                future = pool.submit(_pool_entry, runner, job.payload, timeout)
                running[future] = jid

            while len(results) < len(order):
                while ready:
                    submit(ready.popleft())
                if not running:
                    # every remaining job is unreachable (cascaded skips
                    # are resolved eagerly, so this should not happen)
                    remaining = [j for j in order if j not in results]
                    for jid in remaining:  # pragma: no cover - safety net
                        resolve(jid, JobResult(
                            job_id=jid, status="skipped",
                            error="scheduler stalled",
                        ))
                    break
                done, _ = wait(
                    set(running), timeout=self.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    jid = running.pop(future)
                    job = graph.jobs[jid]
                    _, retries = self._budget(job)
                    exc = future.exception()
                    wall = time.perf_counter() - started_at[jid]
                    if exc is None:
                        resolve(jid, JobResult(
                            job_id=jid, status="ok", value=future.result(),
                            attempts=attempts[jid], wall_time=wall,
                        ))
                    elif _is_retryable(exc) and attempts[jid] <= retries:
                        submit(jid)
                    else:
                        resolve(jid, JobResult(
                            job_id=jid, status="failed",
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=attempts[jid], wall_time=wall,
                        ))
        return results
