"""Experiment execution engine.

The engine is the batch front door for every T1000 experiment.  Each
request is a point (workload, scale, selection, validate, machine) that
the :class:`ArtifactPipeline` answers through its memo and an optional
persistent content-addressed store shared between processes and
invocations.  With ``jobs=1`` every point is one in-process pipeline
call; with ``jobs > 1`` the points the store cannot answer become the
leaves of one dependency DAG (timing depends on rewrite depends on
selection depends on profile) run across a process pool.

Typical use::

    from repro.engine import EngineConfig, ExperimentEngine, make_spec

    engine = ExperimentEngine(EngineConfig(jobs=4, cache_dir="~/.t1000"))
    results = engine.run_batch([
        make_spec("gsm_encode", "selective", 2, 10),
        make_spec("gsm_encode", "greedy", None, 0),
    ])
    print(engine.report())

Environment knobs (used by :func:`default_engine`, which the figure
drivers fall back to): ``T1000_JOBS``, ``T1000_CACHE_DIR``,
``T1000_NO_CACHE``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.engine.pipeline import (
    ArtifactPipeline,
    ExperimentResult,
    ExperimentSpec,
    Point,
    answer,
    core_machine,
    execute_job,
    get_default_pipeline,
    make_spec,
    point_token,
)
from repro.engine.scheduler import (
    Job,
    JobGraph,
    JobResult,
    JobTimeoutError,
    Scheduler,
    SchedulerError,
    TransientJobError,
)
from repro.engine.store import (
    SCHEMA_VERSION,
    SERVE_SCALE,
    ArtifactKey,
    ArtifactStore,
    StoreStats,
    build_source_digest,
    fingerprint_key,
    machine_fingerprint,
    machine_from_json,
    machine_to_json,
    make_key,
    profile_key,
    program_fingerprint,
    read_json,
    rewrite_key,
    selection_key,
    stats_from_json,
    stats_to_json,
    timing_key,
    trace_key,
    write_json_atomic,
)
from repro.engine.telemetry import JobRecord, Telemetry
from repro.errors import ReproError
from repro.extinst import Selection, SelectionParams
from repro.extinst.registry import normalize_select_pfus

__all__ = [
    "ArtifactKey", "ArtifactPipeline", "ArtifactStore", "EngineConfig",
    "EngineError", "ExperimentEngine", "ExperimentResult", "ExperimentSpec",
    "Job", "JobGraph", "JobRecord", "JobResult", "JobTimeoutError", "Point",
    "SCHEMA_VERSION", "SERVE_SCALE", "Scheduler", "SchedulerError",
    "StoreStats", "Telemetry", "TransientJobError", "build_source_digest",
    "core_machine", "default_engine", "execute_job", "fingerprint_key",
    "get_default_pipeline",
    "machine_fingerprint", "machine_from_json", "machine_to_json",
    "make_key", "make_spec", "profile_key", "program_fingerprint",
    "read_json", "rewrite_key", "selection_key", "stats_from_json",
    "stats_to_json", "timing_key", "trace_key", "write_json_atomic",
]


class EngineError(ReproError):
    """Raised when a batch cannot be completed: a point failed, or a pool
    job failed or was skipped."""


@dataclass(frozen=True)
class EngineConfig:
    """How the engine executes and caches a batch.

    ``no_cache`` wins over ``cache_dir`` (explicit opt-out).
    ``job_timeout`` and ``retries`` apply to pool jobs (``jobs > 1``)
    only: a ``job_timeout`` of None disables wall-clock budgets, and
    ``retries`` is the number of extra attempts for transient failures
    and timeouts.  With ``jobs=1`` no job is made.
    """

    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    job_timeout: float | None = None
    retries: int = 1

    def resolved_cache_dir(self) -> str | None:
        if self.no_cache or not self.cache_dir:
            return None
        return os.path.abspath(os.path.expanduser(self.cache_dir))


class ExperimentEngine:
    """Facade: experiment batches in, ordered results out."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.telemetry = Telemetry()
        cache_dir = self.config.resolved_cache_dir()
        if cache_dir is not None:
            self.store: ArtifactStore | None = ArtifactStore(
                cache_dir, telemetry=self.telemetry
            )
            self.pipeline = ArtifactPipeline(
                store=self.store, telemetry=self.telemetry
            )
        else:
            # Storeless engines share the process-wide pipeline so labs,
            # figure drivers, and repeated CLI calls reuse artefacts.
            self.store = None
            self.pipeline = get_default_pipeline()
        self._cache_dir = cache_dir

    # ------------------------------------------------------------------

    def _answers(self, stage: str, points: list[Point]) -> list[Any]:
        """:func:`~repro.engine.pipeline.answer` for each point, in order.

        With ``jobs=1`` each point is one call into this engine's
        pipeline, cold or warm.  A pool run answers the points whose
        timings the store holds (:meth:`ArtifactPipeline.is_warm`) the
        same way, and the rest as the leaves of one job graph.
        """
        counted = self.pipeline.telemetry
        snapshot = counted.snapshot()
        try:
            pooled = self._pool(stage, points) if self.config.jobs > 1 else {}
            return [
                pooled[i] if i in pooled else self._answer(stage, point)
                for i, point in enumerate(points)
            ]
        finally:
            # In-process stages count into this store: persist once per
            # run, even when the run fails.
            if self.store is not None:
                self.store.flush_counters()
            # The shared storeless pipeline counts into its own telemetry.
            if counted is not self.telemetry:
                self.telemetry.merge_counts(counted.delta_since(snapshot))

    def _answer(self, stage: str, point: Point) -> Any:
        try:
            return answer(self.pipeline, stage, point)
        except Exception as exc:
            raise EngineError(
                f"{stage}:{point_token(point)} did not complete: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _pool(self, stage: str, points: list[Point]) -> dict[int, Any]:
        """The answers of the points that are not warm (a selection never
        is), by index, each from a pool job."""
        held: dict = {}
        cold = [
            i for i, point in enumerate(points)
            if point[-1] is None or not self.pipeline.is_warm(*point, held)
        ]
        if not cold:
            return {}
        graph, leaves = self._pool_graph(stage, [points[i] for i in cold])
        results = Scheduler(
            jobs=self.config.jobs, telemetry=self.telemetry,
            default_timeout=self.config.job_timeout,
            default_retries=self.config.retries,
        ).run(graph, execute_job)
        for result in results.values():
            if result.ok:
                # counted in workers, out of reach of this process's
                # observability recorder: bridge them on merge
                self.telemetry.merge_counts(
                    result.value["telemetry"], bridge=True
                )
        failures = [r for r in results.values() if not r.ok]
        if failures:
            detail = "; ".join(
                f"{r.job_id}: {r.status} ({r.error})" for r in failures[:5]
            )
            raise EngineError(
                f"{len(failures)} job(s) did not complete: {detail}"
            )
        return {
            i: results[leaf].value["value"] for i, leaf in zip(cold, leaves)
        }

    def _pool_graph(
        self, stage: str, points: list[Point]
    ) -> tuple[JobGraph, list[str]]:
        """The job graph a pool runs for ``points``, and each point's leaf.

        With a store, a point's leaf depends on one profile job per
        (workload, scale), one baseline job per (workload, scale, core
        geometry) and one prepare job per rewrite, so parallel leaves
        never race on a shared artefact.  Without one, artefacts cannot
        cross processes, and each leaf computes its own chain.
        """
        graph = JobGraph()

        def add(kind: str, point: Point, deps: tuple[str, ...] = ()) -> str:
            job_id = f"{kind}:{point_token(point)}"
            graph.add(Job(
                job_id=job_id, kind=kind,
                payload={"stage": kind, "point": point,
                         "cache_dir": self._cache_dir},
                deps=deps,
            ))
            return job_id

        leaves = []
        for point in points:
            workload, scale, params, validate, machine = point
            if self.store is None:
                leaves.append(add(stage, point))
                continue
            deps = (add("profile", (workload, scale, None, True, None)),)
            if machine is not None:
                base = add(stage, (workload, scale, None, True,
                                   core_machine(machine)), deps)
                if params is None:
                    leaves.append(base)
                    continue
                deps = (base, add("prepare", (workload, scale, params,
                                              validate, None), deps))
            leaves.append(add(stage, point, deps))
        return graph, leaves

    # ------------------------------------------------------------------
    # public API

    def run_batch(self, specs: list[ExperimentSpec]) -> list[ExperimentResult]:
        """Run a batch of experiments; results come back in spec order."""
        return self._answers("experiment", [spec.point for spec in specs])

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        return self.run_batch([spec])[0]

    def run_explore_points(
        self, points: list[Point]
    ) -> list[tuple[ExperimentResult, int]]:
        """Each design-space point's result and its selection's LUT area
        (:meth:`ArtifactPipeline.explore_point`), in point order."""
        return self._answers("explore", points)

    def select_batch(
        self, requests: list[tuple[str, int, str, int | None]]
    ) -> list[Selection]:
        """Compute selections for ``(workload, scale, algorithm,
        select_pfus)`` requests, in request order."""
        return self._answers("selection", [
            (workload, scale, SelectionParams(
                algorithm, normalize_select_pfus(algorithm, select_pfus)
            ), True, None)
            for workload, scale, algorithm, select_pfus in requests
        ])

    def report(self) -> str:
        """Per-run telemetry summary (jobs, cache traffic, simulations)."""
        return self.telemetry.report()


# ----------------------------------------------------------------------
# process-wide default engine (figure drivers fall back to this)

_DEFAULT_ENGINE: ExperimentEngine | None = None


def default_engine() -> ExperimentEngine:
    """Engine configured from ``T1000_JOBS``/``T1000_CACHE_DIR``/
    ``T1000_NO_CACHE``; storeless and serial when the env says nothing."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine(EngineConfig(
            jobs=int(os.environ.get("T1000_JOBS") or 1),
            cache_dir=os.environ.get("T1000_CACHE_DIR") or None,
            no_cache=bool(os.environ.get("T1000_NO_CACHE")),
        ))
    return _DEFAULT_ENGINE
