"""The experiment pipeline: artefact stages over an optional store.

An :class:`ArtifactPipeline` materialises the T1000 experiment chain

    workload -> profile -> selection -> rewrite -> trace -> timing

with two cache levels: an in-process memo and an optional persistent
:class:`~repro.engine.store.ArtifactStore` shared between processes and
invocations.  Both are keyed by the one
:class:`~repro.engine.store.ArtifactKey` the store's per-kind key
functions build (workload, scale, program fingerprint, and — where it
matters — the selection request, ``validate`` flag, and machine
fingerprint), so artefacts can never leak between configurations.

An engine request is a *point* (:data:`Point`); :func:`answer` is what
one asks the pipeline.  :func:`execute_job` at the bottom is the pool's
worker entry point: a module-level function (picklable for
``ProcessPoolExecutor``) that runs one job against a per-process
pipeline.
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.engine.store import (
    ArtifactKey,
    ArtifactStore,
    build_source_digest,
    fingerprint_key,
    machine_fingerprint,
    profile_key,
    program_fingerprint,
    rewrite_key,
    selection_key,
    timing_key,
    trace_key,
)
from repro.engine.telemetry import Telemetry
from repro.errors import ConfigurationError
from repro.extinst import (
    BASELINE,
    Selection,
    SelectionParams,
    apply_selection,
    run_selection,
    validate_equivalence,
)
from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.extdef import ExtInstDef
from repro.extinst.extraction import ExtractionParams
from repro.extinst.registry import (
    get_selector,
    normalize_select_pfus,
    selection_cache_extras,
)
from repro.obs import get_recorder
from repro.profiling import ProgramProfile, profile_program
from repro.program.program import Program
from repro.sim.functional import ExecutionResult, FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator, SimStats
from repro.sim.trace import DynTrace
from repro.workloads import Workload, build_workload

#: The baseline machine every speedup is measured against.
BASELINE_MACHINE = MachineConfig()


@functools.lru_cache(maxsize=256)
def core_machine(machine: MachineConfig) -> MachineConfig:
    """The machine a baseline run for ``machine`` is measured on.

    Baseline programs contain no ``ext`` instructions, so every
    PFU-related field is inert; normalising them to the defaults lets a
    single baseline timing artefact serve every (PFU count x
    reconfiguration latency) point that shares the same core geometry.
    For the default core this is exactly :data:`BASELINE_MACHINE`, so
    design-space sweeps share baseline artefacts with the figure
    drivers.  Memoized by value (every warm check asks for it, and
    ``dataclasses.replace`` is not cheap).
    """
    defaults = MachineConfig()
    return replace(
        machine,
        n_pfus=defaults.n_pfus,
        reconfig_latency=defaults.reconfig_latency,
        reconfig_model=defaults.reconfig_model,
        config_bits_per_cycle=defaults.config_bits_per_cycle,
        ext_latency_model=defaults.ext_latency_model,
        lut_levels_per_cycle=defaults.lut_levels_per_cycle,
    )


def requested_selection(
    algorithm: str, select_pfus: int | None
) -> SelectionParams | None:
    """The selection a flat ``(algorithm, select_pfus)`` record (an
    experiment spec, a sweep point, a job payload) names; ``None`` for
    the baseline."""
    if algorithm == BASELINE:
        return None
    return SelectionParams(algorithm=algorithm, select_pfus=select_pfus)


#: One request the engine answers: ``(workload, scale, selection,
#: validate, machine)``.  The selection is None for the baseline, the
#: machine None for a selection alone.
Point = tuple[str, int, SelectionParams | None, bool, MachineConfig | None]


def _scoped(**labels):
    """Ambient-label scope for metrics recorded inside a stage compute.

    Stamps ``workload``/``algorithm`` onto everything the simulators and
    selection algorithms record without them knowing their experiment
    context; a no-op context when observability is disabled.
    """
    rec = get_recorder()
    return rec.scoped(**labels) if rec.enabled else nullcontext()


# ----------------------------------------------------------------------
# experiment requests and results


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully normalised T1000 experiment request.

    Build through :func:`make_spec`, which resolves the ``select_pfus``
    convention ("same" = plan for the hardware PFU count) and collapses
    parameters the algorithm ignores so equivalent requests share cache
    keys and scheduler jobs.
    """

    workload: str
    algorithm: str                  # "baseline" or any registered selector
    n_pfus: int | None
    reconfig_latency: int
    scale: int = 1
    select_pfus: int | None = None
    validate: bool = True

    @property
    def selection(self) -> SelectionParams | None:
        return requested_selection(self.algorithm, self.select_pfus)

    @property
    def machine(self) -> MachineConfig:
        """The machine the spec is timed on: its PFU count and
        reconfiguration latency on the default core."""
        if self.algorithm == BASELINE:
            return BASELINE_MACHINE
        return MachineConfig(
            n_pfus=self.n_pfus, reconfig_latency=self.reconfig_latency
        )

    @property
    def point(self) -> Point:
        return (self.workload, self.scale, self.selection, self.validate,
                self.machine)


def make_spec(
    workload: str,
    algorithm: str | SelectionParams,
    n_pfus: int | None,
    reconfig_latency: int,
    scale: int = 1,
    select_pfus: int | None | str = "same",
    validate: bool = True,
) -> ExperimentSpec:
    """Normalise an experiment request into an :class:`ExperimentSpec`.

    ``algorithm`` may be a :class:`~repro.extinst.SelectionParams`, in
    which case its ``select_pfus`` is authoritative (the ``"same"``
    convention applies only to an algorithm name).  A spec travels to
    engine jobs as algorithm and PFU budget alone, so a request with
    tuned selection parameters is refused rather than run at defaults.
    """
    if isinstance(algorithm, SelectionParams):
        params = algorithm.normalized()
        if selection_cache_extras(params):
            raise ConfigurationError(
                "experiment specs carry no selection tunables; run tuned "
                "SelectionParams through WorkloadLab or ArtifactPipeline"
            )
        algorithm = params.algorithm
        select_pfus = params.select_pfus
    if algorithm == BASELINE:
        return ExperimentSpec(
            workload=workload, algorithm=BASELINE, n_pfus=0,
            reconfig_latency=0, scale=scale, select_pfus=None,
            validate=validate,
        )
    get_selector(algorithm)     # raises naming the registered choices
    if select_pfus == "same":
        select_pfus = n_pfus
    select_pfus = normalize_select_pfus(algorithm, select_pfus)
    return ExperimentSpec(
        workload=workload, algorithm=algorithm, n_pfus=n_pfus,
        reconfig_latency=reconfig_latency, scale=scale,
        select_pfus=select_pfus, validate=validate,
    )


@dataclass
class ExperimentResult:
    """One timing experiment on one workload."""

    workload: str
    algorithm: str           # "baseline" or any registered selector
    n_pfus: int | None
    reconfig_latency: int
    stats: SimStats
    baseline_cycles: int
    n_configs: int

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.stats.cycles


# ----------------------------------------------------------------------
# the pipeline


class ArtifactPipeline:
    """Materialises experiment artefacts through memo + optional store."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.telemetry = telemetry or Telemetry()
        self.store = store
        if store is not None and store.telemetry is not self.telemetry:
            store.telemetry = self.telemetry
        self._memo: dict[Any, Any] = {}
        # traces of validation runs, keyed by rewrite key, until the
        # trace stage takes them
        self._validated: dict[ArtifactKey, DynTrace] = {}

    # ------------------------------------------------------------------
    # memo / store plumbing

    def _memoized(self, memo_key: Any, producer: Callable[[], Any]) -> Any:
        if memo_key not in self._memo:
            self._memo[memo_key] = producer()
        return self._memo[memo_key]

    def _fetch(self, key: ArtifactKey, compute: Callable[[], Any]) -> Any:
        """Store -> compute-and-publish (compute alone without a store)."""
        if self.store is None:
            return compute()
        cached = self.store.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.store.put(key, value)
        return value

    def _artifact(self, key: ArtifactKey, compute: Callable[[], Any]) -> Any:
        """Memo -> store -> compute-and-publish, in that order."""
        return self._memoized(key, lambda: self._fetch(key, compute))

    def _sim_counter(self, name: str) -> None:
        self.telemetry.incr(name)
        if self.store is not None:
            self.store.record_counter(name)

    # ------------------------------------------------------------------
    # the built program and its identity

    def workload(self, name: str, scale: int) -> Workload:
        """The built workload (memo only).

        Building is not free (``mpeg2_decode``@1 assembles in about
        6-8 ms, ``gsm_encode``@1 in 2-4 ms), so only a stage that runs
        or rewrites the program builds it: with a store, a warm sweep
        reads every key's program fingerprint (:meth:`fingerprint`) and
        builds nothing."""
        return self._memoized(
            ("workload", name, scale), lambda: build_workload(name, scale)
        )

    def program(self, name: str, scale: int) -> Program:
        return self.workload(name, scale).program

    def fingerprint(self, name: str, scale: int) -> str:
        """The program fingerprint every key of ``name`` carries: memo ->
        store -> build, like any stage.  The store keys it by
        :func:`~repro.engine.store.build_source_digest`, so editing a
        build source costs one rebuild per workload, and every other key
        moves only if the built program did.  A storeless pipeline
        builds, and never computes that digest."""

        def compute() -> str:
            return program_fingerprint(self.program(name, scale))

        def produce() -> str:
            if self.store is None:
                return compute()
            return self._fetch(
                fingerprint_key(name, scale, build_source_digest()), compute
            )

        return self._memoized(("fingerprint", name, scale), produce)

    def original_run(self, name: str, scale: int) -> ExecutionResult:
        """The original program's traced functional run (memo only).

        One run serves the baseline trace artefact and every rewrite's
        validation, so a cold pipeline runs each program once.
        """

        def compute() -> ExecutionResult:
            self._sim_counter("sim.functional")
            with _scoped(workload=name, algorithm=BASELINE):
                return FunctionalSimulator(self.program(name, scale)).run(
                    collect_trace=True
                )

        return self._memoized(("run", name, scale), compute)

    # ------------------------------------------------------------------
    # cached artefact stages

    def profile(self, name: str, scale: int) -> ProgramProfile:
        def compute() -> ProgramProfile:
            self._sim_counter("sim.functional")
            with _scoped(workload=name):
                return profile_program(self.program(name, scale))

        return self._artifact(
            profile_key(name, scale, self.fingerprint(name, scale)), compute
        )

    def selection(
        self, name: str, scale: int, params: SelectionParams
    ) -> Selection:
        """The cached selection ``params`` requests."""

        def compute() -> Selection:
            self.telemetry.incr("compute.selection")
            profile = self.profile(name, scale)
            extraction = params.normalized().extraction
            analysis = self.analysis(name, scale, extraction)
            with _scoped(workload=name, algorithm=params.algorithm):
                return run_selection(profile, params, analysis)

        return self._artifact(
            selection_key(name, scale, self.fingerprint(name, scale), params),
            compute,
        )

    def analysis(
        self, name: str, scale: int, extraction: ExtractionParams
    ) -> ProgramAnalysis:
        """The program analysis every selection of ``name`` shares (memo
        only).  It is filled inside the first selection that reads it and
        dies with this pipeline: not a store artefact, since every
        selection it feeds is one."""
        key = profile_key(name, scale, self.fingerprint(name, scale))
        return self._memoized(
            ("analysis", key, extraction),
            lambda: ProgramAnalysis(self.profile(name, scale), extraction),
        )

    def rewrite(
        self, name: str, scale: int, params: SelectionParams, validate: bool
    ) -> tuple[Program, dict[int, ExtInstDef]]:
        """The rewritten program and its definitions.

        Validation compares against :meth:`original_run` and leaves the
        rewritten program's traced run for :meth:`trace` to take.
        """
        key = rewrite_key(
            name, scale, self.fingerprint(name, scale), params, validate
        )

        def compute() -> tuple[Program, dict[int, ExtInstDef]]:
            selection = self.selection(name, scale, params)
            reference = self.original_run(name, scale) if validate else None
            with _scoped(workload=name, algorithm=params.algorithm):
                program, defs = apply_selection(
                    self.program(name, scale), selection
                )
                if validate:
                    self._sim_counter("sim.validate")
                    run = validate_equivalence(
                        self.program(name, scale), program, defs,
                        reference=reference, collect_trace=True,
                    )
                    self._validated[key] = run.trace
            return program, defs

        return self._artifact(key, compute)

    def trace(
        self, name: str, scale: int, params: SelectionParams | None = None,
        validate: bool = True,
    ) -> DynTrace:
        """Dynamic trace of the original program (``params`` None) or of
        the one ``params`` rewrote."""
        fingerprint = self.fingerprint(name, scale)

        def compute() -> DynTrace:
            if params is None:
                return self.original_run(name, scale).trace
            program, defs = self.rewrite(name, scale, params, validate)
            validated = self._validated.pop(
                rewrite_key(name, scale, fingerprint, params, validate), None
            )
            if validated is not None:
                return validated
            self._sim_counter("sim.functional")
            with _scoped(workload=name, algorithm=params.algorithm):
                result = FunctionalSimulator(program, ext_defs=defs).run(
                    collect_trace=True
                )
            assert result.trace is not None
            return result.trace

        return self._artifact(
            trace_key(name, scale, fingerprint, params, validate), compute
        )

    # ------------------------------------------------------------------
    # timing

    def baseline_timing(
        self, name: str, scale: int, machine: MachineConfig | None = None
    ) -> SimStats:
        """Timing of the original program (Figure 2/6 first bar) on
        :func:`core_machine` of ``machine``."""
        return self.timing_for(
            name, scale, None, True, machine or BASELINE_MACHINE
        )

    def timing_for(
        self,
        name: str,
        scale: int,
        params: SelectionParams | None,
        validate: bool,
        machine: MachineConfig,
    ) -> SimStats:
        """Timing of the program ``params`` rewrote on any machine.

        Experiments (:meth:`run`) and the design-space explorer
        (:mod:`repro.explore`) share it: any :class:`MachineConfig`
        field may vary, and the cache key carries the full machine
        fingerprint, so sweeps and figure drivers serve each other's
        warm artefacts.  With ``params`` None this is the baseline,
        measured on :func:`core_machine` of ``machine``.
        """
        if params is None:
            machine = core_machine(machine)

        def compute() -> SimStats:
            if params is None:
                program, defs = self.program(name, scale), None
                trace = self.trace(name, scale)
                labels: dict[str, Any] = dict(algorithm=BASELINE)
            else:
                program, defs = self.rewrite(name, scale, params, validate)
                trace = self.trace(name, scale, params, validate)
                labels = dict(algorithm=params.algorithm,
                              n_pfus=machine.n_pfus,
                              reconfig_latency=machine.reconfig_latency)
            self._sim_counter("sim.timing")
            with _scoped(workload=name, **labels):
                return OoOSimulator(
                    program, machine, ext_defs=defs
                ).simulate(trace)

        return self._artifact(
            self._timing_key(name, scale, params, validate, machine), compute
        )

    def _timing_key(
        self,
        name: str,
        scale: int,
        params: SelectionParams | None,
        validate: bool,
        machine: MachineConfig,
    ) -> ArtifactKey:
        """The key :meth:`timing_for` reads and :meth:`is_warm` checks,
        built from the same arguments by both, so the memoized
        :func:`~repro.engine.store.timing_key` hands both one instance."""
        if params is None:
            machine, validate = core_machine(machine), True
        return timing_key(name, scale, self.fingerprint(name, scale),
                          machine_fingerprint(machine), params, validate)

    # ------------------------------------------------------------------
    # whole experiments

    def is_warm(
        self,
        name: str,
        scale: int,
        params: SelectionParams | None,
        validate: bool,
        machine: MachineConfig,
        held: dict[ArtifactKey, bool] | None = None,
    ) -> bool:
        """Whether the store holds both timings :meth:`explore_point`
        answers from: the point's own and its baseline's.  Such a point
        reads those two and its selection, never a profile, rewrite or
        trace.  A storeless pipeline holds nothing warm.

        ``held`` remembers each key's answer across the calls of one
        warm check, so points that share a baseline ask the store for
        it once."""
        if self.store is None:
            return False
        held = {} if held is None else held
        keys = [self._timing_key(name, scale, None, True, machine)]
        if params is not None:
            keys.append(
                self._timing_key(name, scale, params, validate, machine)
            )
        for key in keys:
            if key not in held:
                held[key] = self.store.contains(key)
            if not held[key]:
                return False
        return True

    def explore_point(
        self,
        name: str,
        scale: int,
        params: SelectionParams | None,
        validate: bool,
        machine: MachineConfig,
    ) -> tuple[ExperimentResult, int]:
        """One design-space point and the LUT area of its selection (0
        for the baseline), answered together so a job's selection read
        counts in the process that made it."""
        result = self.experiment(name, scale, params, validate, machine)
        if params is None:
            return result, 0

        def area() -> int:
            # imported here: ``import repro.engine`` loads no hwcost
            from repro.hwcost.area import selection_area

            return selection_area(self.selection(name, scale, params))

        return result, self._memoized(("area", name, scale, params), area)

    def experiment(
        self,
        name: str,
        scale: int,
        params: SelectionParams | None,
        validate: bool,
        machine: MachineConfig,
    ) -> ExperimentResult:
        """Timing plus the matching baseline.

        The baseline is measured on :func:`core_machine` of ``machine``
        (same core geometry, PFU fields normalised), so speedups stay
        meaningful when the sweep varies RUU size, issue width, or cache
        geometry, and a whole PFU x latency sub-grid shares one baseline
        artefact.
        """
        base = self.baseline_timing(name, scale, machine)
        if params is None:
            return ExperimentResult(
                workload=name, algorithm=BASELINE, n_pfus=0,
                reconfig_latency=0, stats=base,
                baseline_cycles=base.cycles, n_configs=0,
            )
        stats = self.timing_for(name, scale, params, validate, machine)
        selection = self.selection(name, scale, params)
        return ExperimentResult(
            workload=name, algorithm=params.algorithm, n_pfus=machine.n_pfus,
            reconfig_latency=machine.reconfig_latency, stats=stats,
            baseline_cycles=base.cycles, n_configs=selection.n_configs,
        )

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run one T1000 experiment end to end (cached at every stage):
        the spec's PFU count and reconfiguration latency on the default
        core."""
        return self.experiment(*spec.point)

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush_counters()


# ----------------------------------------------------------------------
# process-wide default pipeline (shared by WorkloadLab and inline engines)

_DEFAULT_PIPELINE: ArtifactPipeline | None = None


def get_default_pipeline() -> ArtifactPipeline:
    """The process-wide storeless pipeline (benchmarks share artefacts)."""
    global _DEFAULT_PIPELINE
    if _DEFAULT_PIPELINE is None:
        _DEFAULT_PIPELINE = ArtifactPipeline()
    return _DEFAULT_PIPELINE


# ----------------------------------------------------------------------
# engine requests


def point_token(point: Point) -> str:
    """Stable human-readable identity of a point (job ids, errors)."""
    workload, scale, params, validate, machine = point
    token = f"{workload}@{scale}"
    if params is not None:
        sel = "unl" if params.select_pfus is None else params.select_pfus
        token += f":{params.algorithm}:sel={sel}:val={int(validate)}"
    if machine is not None:
        token += f":machine={machine_fingerprint(machine)[:12]}"
    return token


def answer(pipeline: ArtifactPipeline, stage: str, point: Point) -> Any:
    """What one engine request asks ``pipeline`` for ``point``: an
    ``"experiment"``'s result, an ``"explore"`` point's result and LUT
    area (:meth:`ArtifactPipeline.explore_point`), or a ``"selection"``."""
    workload, scale, params, _, _ = point
    if stage == "selection":
        return pipeline.selection(workload, scale, params)
    if stage == "explore":
        return pipeline.explore_point(*point)
    return pipeline.experiment(*point)


# ----------------------------------------------------------------------
# pool worker entry point

_WORKER_PIPELINES: dict[str, ArtifactPipeline] = {}


def _pipeline_for(cache_dir: str | None) -> ArtifactPipeline:
    key = cache_dir or ""
    if key not in _WORKER_PIPELINES:
        store = ArtifactStore(cache_dir) if cache_dir else None
        _WORKER_PIPELINES[key] = ArtifactPipeline(store=store)
    return _WORKER_PIPELINES[key]


def execute_job(payload: dict) -> dict:
    """Run one pool job against this process's pipeline for its cache dir.

    A ``"profile"`` job puts the point's profile in the store, and a
    ``"prepare"`` job its selection, rewrite and trace, for the jobs
    that depend on them; any other stage returns its :func:`answer`.
    Returns ``{"value": ..., "telemetry": {...}, "wall_time": ...}``;
    the telemetry dict is the counter delta this job produced, which the
    parent merges into the run's telemetry.  A job is a worker's only
    exit point, so its store counters are persisted here, once per job,
    whether the stage succeeds or not.
    """
    pipeline = _pipeline_for(payload["cache_dir"])
    snapshot = pipeline.telemetry.snapshot()
    started = time.perf_counter()
    stage, point = payload["stage"], payload["point"]
    workload, scale, params, validate, _ = point
    value: Any = None
    try:
        if stage == "profile":
            pipeline.profile(workload, scale)
        elif stage == "prepare":
            pipeline.trace(workload, scale, params, validate)
        else:
            value = answer(pipeline, stage, point)
    finally:
        pipeline.flush()
    return {
        "value": value,
        "telemetry": pipeline.telemetry.delta_since(snapshot),
        "wall_time": time.perf_counter() - started,
    }
