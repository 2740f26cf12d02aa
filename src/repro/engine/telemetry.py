"""Engine instrumentation: counters, per-job wall time, run reports.

A :class:`Telemetry` instance collects two kinds of signal while the
engine runs:

- **counters** — flat ``name -> int`` counts. Names are dotted paths so
  reports can group them: ``cache.hit.profile``, ``cache.miss.timing``,
  ``store.put.selection``, ``sim.functional``, ``sim.timing``,
  ``compute.selection`` and so on.
- **job records** — one :class:`JobRecord` per scheduled job with its
  status, attempt count, and wall time.

Worker processes cannot share the parent's Telemetry object, so each job
returns the *delta* of its worker-local counters (see
:meth:`Telemetry.snapshot` / :meth:`Telemetry.delta_since`) and the
parent merges them with :meth:`Telemetry.merge_counts`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs import get_recorder


@dataclass
class JobRecord:
    """Outcome of one scheduled job."""

    job_id: str
    kind: str
    status: str                  # "ok" | "failed" | "skipped"
    attempts: int = 1
    wall_time: float = 0.0
    error: str | None = None


@dataclass
class Telemetry:
    """Mutable run-wide instrumentation sink."""

    counters: Counter = field(default_factory=Counter)
    jobs: list[JobRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # counters

    def incr(self, name: str, n: int = 1) -> None:
        self.counters[name] += n
        rec = get_recorder()
        if rec.enabled:
            rec.counter("engine." + name).inc(n)

    def snapshot(self) -> dict[str, int]:
        """Current counter values (for later :meth:`delta_since`)."""
        return dict(self.counters)

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter increments accumulated since ``snapshot`` was taken."""
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self.counters.items()
            if value != snapshot.get(name, 0)
        }

    def merge_counts(
        self, counts: dict[str, int], bridge: bool = False
    ) -> None:
        """Fold a worker's counter delta into this telemetry.

        ``bridge=True`` additionally republishes the counts to the
        process-wide observability recorder — callers set it only when
        the counts were produced *out of process* (pool workers), where
        :meth:`incr` could not have reached this process's recorder.
        Counts produced in-process were bridged at :meth:`incr` time and
        must not be double-published.
        """
        rec = get_recorder() if bridge else None
        for name, value in counts.items():
            self.counters[name] += value
            if rec is not None and rec.enabled:
                rec.counter("engine." + name).inc(value)

    def total(self, prefix: str) -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(
            value for name, value in self.counters.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    # ------------------------------------------------------------------
    # jobs

    def record_job(self, record: JobRecord) -> None:
        self.jobs.append(record)
        rec = get_recorder()
        if rec.enabled:
            rec.counter(f"engine.jobs.{record.status}", kind=record.kind).inc()
            rec.histogram("engine.job.wall_time", kind=record.kind).observe(
                record.wall_time
            )

    # ------------------------------------------------------------------
    # reporting

    @property
    def cache_hits(self) -> int:
        return self.total("cache.hit")

    @property
    def cache_misses(self) -> int:
        return self.total("cache.miss")

    def report(self) -> str:
        """Human-readable run summary (jobs, cache traffic, simulations)."""
        by_status = Counter(job.status for job in self.jobs)
        total_wall = sum(job.wall_time for job in self.jobs)
        lines = ["engine run summary"]
        lines.append(
            f"  jobs: {by_status.get('ok', 0)} ok, "
            f"{by_status.get('failed', 0)} failed, "
            f"{by_status.get('skipped', 0)} skipped "
            f"(total job wall time {total_wall:.2f}s)"
        )
        hits, misses = self.cache_hits, self.cache_misses
        if hits or misses:
            rate = hits / (hits + misses) if hits + misses else 0.0
            lines.append(
                f"  cache: {hits} hit(s) / {misses} miss(es) "
                f"({rate:.1%} hit rate)"
            )
            kinds = sorted(
                {name.split(".", 2)[2]
                 for name in self.counters
                 if name.startswith(("cache.hit.", "cache.miss."))}
            )
            for kind in kinds:
                lines.append(
                    f"    {kind:<10} {self.counters.get(f'cache.hit.{kind}', 0)}"
                    f" hit(s) / {self.counters.get(f'cache.miss.{kind}', 0)}"
                    f" miss(es)"
                )
        sims = self.total("sim")
        # a validation run is a functional run too
        functional = self.total("sim.functional") + self.total("sim.validate")
        lines.append(
            f"  simulations: {sims} "
            f"(functional={functional}, "
            f"timing={self.counters.get('sim.timing', 0)})"
        )
        slowest = sorted(self.jobs, key=lambda j: -j.wall_time)[:5]
        if slowest and slowest[0].wall_time > 0:
            lines.append("  slowest jobs:")
            for job in slowest:
                lines.append(
                    f"    {job.wall_time:7.2f}s  {job.job_id} "
                    f"[{job.status}, {job.attempts} attempt(s)]"
                )
        return "\n".join(lines)
