"""Experiment execution engine.

The engine is the batch front door for every T1000 experiment: requests
become jobs in a dependency DAG (timing depends on rewrite depends on
selection depends on profile), jobs execute inline or across a process
pool, and every intermediate artefact is cached in a persistent
content-addressed store shared between processes and invocations.

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
from collections.abc import Callable, Collection
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.engine.pipeline import (
    ArtifactPipeline,
    ExperimentResult,
    ExperimentSpec,
    core_machine,
    execute_job,
    get_default_pipeline,
    make_spec,
    requested_selection,
    run_stage,
    selection_from_payload,
    spec_payload,
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
from repro.extinst import BASELINE, Selection
from repro.extinst.registry import normalize_select_pfus

__all__ = [
    "ArtifactKey", "ArtifactPipeline", "ArtifactStore", "EngineConfig",
    "EngineError", "ExperimentEngine", "ExperimentResult", "ExperimentSpec",
    "Job", "JobGraph", "JobRecord", "JobResult", "JobTimeoutError",
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
    """Raised when a batch cannot be completed (failed/skipped jobs)."""


@dataclass(frozen=True)
class EngineConfig:
    """How the engine executes and caches a batch.

    ``no_cache`` wins over ``cache_dir`` (explicit opt-out).  A
    ``job_timeout`` of None disables wall-clock budgets; ``retries`` is
    the number of extra attempts for transient failures/timeouts.
    """

    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    validate: bool = True
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

    def _scheduler(self) -> Scheduler:
        return Scheduler(
            jobs=max(1, self.config.jobs),
            telemetry=self.telemetry,
            default_timeout=self.config.job_timeout,
            default_retries=None,
        )

    def _runner(self):
        """Inline runs go through this engine's pipeline; pool runs give
        each worker its own pipeline keyed by the cache dir."""
        if self.config.jobs <= 1:
            return lambda payload: run_stage(self.pipeline, payload)
        return execute_job

    def _execute(
        self, graph: JobGraph,
        warm: dict[str, Callable[[], Any]] | None = None,
    ) -> dict[str, Any]:
        """Each job's value, by job id, plus the answer of each ``warm``
        thunk under its own id.

        Warm thunks read the store through this engine's pipeline and
        run first, in process; the graph runs after them and not at all
        when it is empty.
        """
        try:
            answers = {
                leaf: answer() for leaf, answer in (warm or {}).items()
            }
            results = (
                self._scheduler().run(graph, self._runner()) if graph
                else {}
            )
        finally:
            # Warm reads and inline stages count into this store: persist
            # once per run, even when the run fails below.
            if self.store is not None:
                self.store.flush_counters()
        # Pool workers (and the shared storeless pipeline) count into
        # their own telemetry; fold each job's delta into this run's.
        # A store-backed inline pipeline already shares self.telemetry.
        own_counts = self.pipeline.telemetry is self.telemetry
        if self.config.jobs > 1 or not own_counts:
            for result in results.values():
                value = result.value
                if isinstance(value, dict) and "telemetry" in value:
                    # Pool workers' counts never reached this process's
                    # observability recorder, so bridge them on merge;
                    # inline counts were bridged at incr time.
                    self.telemetry.merge_counts(
                        value["telemetry"], bridge=self.config.jobs > 1
                    )
        failures = [
            r for r in results.values() if r.status in ("failed", "skipped")
        ]
        if failures:
            detail = "; ".join(
                f"{r.job_id}: {r.status} ({r.error})" for r in failures[:5]
            )
            raise EngineError(
                f"{len(failures)} job(s) did not complete: {detail}"
            )
        answers.update(
            (job_id, result.value["value"])
            for job_id, result in results.items()
        )
        return answers

    # ------------------------------------------------------------------
    # graph construction

    def _add_artifact_jobs(
        self, graph: JobGraph, spec: ExperimentSpec
    ) -> tuple[str, ...]:
        """Profile/prepare jobs an experiment depends on (store mode only:
        without a shared store, artefacts cannot cross processes, so the
        experiment job computes its chain itself)."""
        if self.store is None:
            return ()
        profile_id = f"profile:{spec.workload}@{spec.scale}"
        graph.add(Job(
            job_id=profile_id, kind="profile",
            payload={"stage": "profile", "cache_dir": self._cache_dir,
                     "workload": spec.workload, "scale": spec.scale},
            timeout=self.config.job_timeout, retries=self.config.retries,
        ))
        if spec.algorithm == BASELINE:
            return (profile_id,)
        sel = "unl" if spec.select_pfus is None else spec.select_pfus
        prepare_id = (
            f"prepare:{spec.workload}@{spec.scale}:{spec.algorithm}"
            f":sel={sel}:val={int(spec.validate)}"
        )
        graph.add(Job(
            job_id=prepare_id, kind="prepare",
            payload={"stage": "prepare", "cache_dir": self._cache_dir,
                     "workload": spec.workload, "scale": spec.scale,
                     "algorithm": spec.algorithm,
                     "select_pfus": spec.select_pfus,
                     "validate": spec.validate, "materialize": True},
            deps=(profile_id,),
            timeout=self.config.job_timeout, retries=self.config.retries,
        ))
        return (prepare_id,)

    # ------------------------------------------------------------------
    # public API

    def run_batch(self, specs: list[ExperimentSpec]) -> list[ExperimentResult]:
        """Run a batch of experiments; results come back in spec order.

        An experiment whose timing and baseline timing are both in the
        store (:meth:`ArtifactPipeline.is_warm`) gets no job: it is read
        back in process.
        """
        graph = JobGraph()
        warm: dict[str, Callable[[], Any]] = {}
        leaf_ids: list[str] = []
        held: dict = {}
        for spec in specs:
            leaf_id = f"experiment:{spec.token()}"
            leaf_ids.append(leaf_id)
            if self.pipeline.is_warm(spec.workload, spec.scale,
                                     spec.selection, spec.validate,
                                     spec.machine, held):
                warm[leaf_id] = partial(self.pipeline.run, spec)
                continue
            deps = self._add_artifact_jobs(graph, spec)
            graph.add(Job(
                job_id=leaf_id, kind="experiment",
                payload=spec_payload(spec, self._cache_dir),
                deps=deps,
                timeout=self.config.job_timeout, retries=self.config.retries,
            ))
        values = self._execute(graph, warm)
        return [values[leaf] for leaf in leaf_ids]

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        return self.run_batch([spec])[0]

    def run_explore_points(
        self, requests: list[dict], warm_ids: Collection[str] = ()
    ) -> list[tuple[ExperimentResult, int]]:
        """Execute design-space points for :mod:`repro.explore`: each
        point's result and its selection's LUT area
        (:meth:`ArtifactPipeline.explore_point`).

        Each request is a dict with keys ``workload``, ``scale``,
        ``algorithm``, ``select_pfus``, ``validate``, ``machine`` (a
        :class:`~repro.sim.ooo.MachineConfig`), and ``id`` (a short
        token used for job naming).  A request whose ``id`` is in
        ``warm_ids`` (the caller found it :meth:`ArtifactPipeline.is_warm`)
        gets no job: it is read back in process, and anything evicted
        since is computed there.  Baseline denominators of the others
        are deduplicated into one explicit job per (workload, scale,
        core geometry), so parallel points never race on the same
        baseline replay; results come back in request order.
        """
        graph = JobGraph()
        warm: dict[str, Callable[[], Any]] = {}
        leaf_ids: list[str] = []
        base_ids: dict[tuple, str] = {}
        for req in requests:
            machine = req["machine"]
            workload, scale = req["workload"], req["scale"]
            algorithm = req["algorithm"]
            if req["id"] in warm_ids:
                leaf_id = f"warm:{req['id']}"
                leaf_ids.append(leaf_id)
                warm[leaf_id] = partial(
                    self.pipeline.explore_point, workload, scale,
                    requested_selection(algorithm, req["select_pfus"]),
                    req["validate"], machine,
                )
                continue
            profile_deps: tuple[str, ...] = ()
            if self.store is not None:
                profile_id = f"profile:{workload}@{scale}"
                graph.add(Job(
                    job_id=profile_id, kind="profile",
                    payload={"stage": "profile", "cache_dir": self._cache_dir,
                             "workload": workload, "scale": scale,
                             "baseline": False},
                    timeout=self.config.job_timeout,
                    retries=self.config.retries,
                ))
                profile_deps = (profile_id,)
            core = core_machine(machine)
            core_fp = machine_fingerprint(core)
            base_key = (workload, scale, core_fp)
            base_id = base_ids.get(base_key)
            if base_id is None:
                base_id = f"explore:base:{workload}@{scale}:{core_fp[:12]}"
                graph.add(Job(
                    job_id=base_id, kind="explore",
                    payload={"stage": "explore", "cache_dir": self._cache_dir,
                             "workload": workload, "scale": scale,
                             "algorithm": BASELINE, "select_pfus": None,
                             "validate": req["validate"],
                             "machine": machine_to_json(core)},
                    deps=profile_deps,
                    timeout=self.config.job_timeout,
                    retries=self.config.retries,
                ))
                base_ids[base_key] = base_id
            if algorithm == BASELINE:
                leaf_ids.append(base_id)
                continue
            deps = [base_id]
            if self.store is not None:
                sel = (
                    "unl" if req["select_pfus"] is None
                    else req["select_pfus"]
                )
                prepare_id = (
                    f"prepare:{workload}@{scale}:{algorithm}"
                    f":sel={sel}:val={int(req['validate'])}"
                )
                graph.add(Job(
                    job_id=prepare_id, kind="prepare",
                    payload={"stage": "prepare", "cache_dir": self._cache_dir,
                             "workload": workload, "scale": scale,
                             "algorithm": algorithm,
                             "select_pfus": req["select_pfus"],
                             "validate": req["validate"],
                             "materialize": True},
                    deps=profile_deps,
                    timeout=self.config.job_timeout,
                    retries=self.config.retries,
                ))
                deps.append(prepare_id)
            leaf_id = f"explore:{req['id']}"
            graph.add(Job(
                job_id=leaf_id, kind="explore",
                payload={"stage": "explore", "cache_dir": self._cache_dir,
                         "workload": workload, "scale": scale,
                         "algorithm": algorithm,
                         "select_pfus": req["select_pfus"],
                         "validate": req["validate"],
                         "machine": machine_to_json(machine)},
                deps=tuple(deps),
                timeout=self.config.job_timeout,
                retries=self.config.retries,
            ))
            leaf_ids.append(leaf_id)
        values = self._execute(graph, warm)
        return [values[leaf] for leaf in leaf_ids]

    def select_batch(
        self, requests: list[tuple[str, int, str, int | None]]
    ) -> list[Selection]:
        """Compute selections for ``(workload, scale, algorithm,
        select_pfus)`` requests, in request order."""
        graph = JobGraph()
        leaf_ids: list[str] = []
        for workload, scale, algorithm, select_pfus in requests:
            select_pfus = normalize_select_pfus(algorithm, select_pfus)
            deps: tuple[str, ...] = ()
            if self.store is not None:
                profile_id = f"profile:{workload}@{scale}"
                graph.add(Job(
                    job_id=profile_id, kind="profile",
                    payload={"stage": "profile", "cache_dir": self._cache_dir,
                             "workload": workload, "scale": scale},
                    timeout=self.config.job_timeout,
                    retries=self.config.retries,
                ))
                deps = (profile_id,)
            sel = "unl" if select_pfus is None else select_pfus
            leaf_id = f"selection:{workload}@{scale}:{algorithm}:sel={sel}"
            graph.add(Job(
                job_id=leaf_id, kind="selection",
                payload={"stage": "prepare", "cache_dir": self._cache_dir,
                         "workload": workload, "scale": scale,
                         "algorithm": algorithm, "select_pfus": select_pfus,
                         "materialize": False, "return_selection": True},
                deps=deps,
                timeout=self.config.job_timeout, retries=self.config.retries,
            ))
            leaf_ids.append(leaf_id)
        values = self._execute(graph)
        return [selection_from_payload(values[leaf]) for leaf in leaf_ids]

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
