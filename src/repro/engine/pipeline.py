"""The experiment pipeline: artefact stages over an optional store.

An :class:`ArtifactPipeline` materialises the T1000 experiment chain

    workload -> profile -> selection -> rewrite -> trace -> timing

with two cache levels: an in-process memo (object identity, free) and an
optional persistent :class:`~repro.engine.store.ArtifactStore` shared
between processes and invocations.  Every stage key includes the
workload name, scale, a fingerprint of the built program, and — where it
matters — the algorithm, selection PFU budget, ``validate`` flag, and
machine-configuration fingerprint, so artefacts can never leak between
configurations.

:func:`execute_job` at the bottom is the scheduler's worker entry point:
a module-level function (picklable for ``ProcessPoolExecutor``) that
dispatches one job payload against a per-process pipeline.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

from repro.engine.store import (
    ArtifactStore,
    machine_fingerprint,
    machine_from_json,
    make_key,
    program_fingerprint,
)
from repro.engine.telemetry import Telemetry
from repro.errors import ConfigurationError
from repro.extinst import (
    BASELINE,
    Selection,
    SelectionParams,
    apply_selection,
    coerce_selection_params,
    run_selection,
    validate_equivalence,
)
from repro.extinst.extdef import ExtInstDef
from repro.extinst.registry import (
    get_selector,
    normalize_select_pfus,
    selection_cache_extras,
)
from repro.obs import get_recorder
from repro.extinst.serialize import selection_from_json, selection_to_json
from repro.profiling import ProgramProfile, profile_program
from repro.program.program import Program
from repro.sim.functional import ExecutionResult, FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator, SimStats
from repro.sim.trace import DynTrace
from repro.workloads import Workload, build_workload

#: The baseline machine every speedup is measured against.
BASELINE_MACHINE = MachineConfig()


def core_machine(machine: MachineConfig) -> MachineConfig:
    """The machine a baseline run for ``machine`` is measured on.

    Baseline programs contain no ``ext`` instructions, so every
    PFU-related field is inert; normalising them to the defaults lets a
    single baseline timing artefact serve every (PFU count x
    reconfiguration latency) point that shares the same core geometry.
    For the default core this is exactly :data:`BASELINE_MACHINE`, so
    design-space sweeps share baseline artefacts with the figure
    drivers.
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

    def token(self) -> str:
        """Stable human-readable identity (used for scheduler job ids)."""
        pfus = "unl" if self.n_pfus is None else self.n_pfus
        sel = "unl" if self.select_pfus is None else self.select_pfus
        return (
            f"{self.workload}@{self.scale}:{self.algorithm}"
            f":pfus={pfus}:sel={sel}:reconf={self.reconfig_latency}"
            f":val={int(self.validate)}"
        )


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
    convention applies only to the legacy string form).
    """
    if isinstance(algorithm, SelectionParams):
        params = algorithm.normalized()
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
        self._memo: dict[tuple, Any] = {}
        # traces of validation runs, keyed by rewrite memo key, until
        # the trace stage takes them
        self._validated: dict[tuple, DynTrace] = {}

    # ------------------------------------------------------------------
    # memo / store plumbing

    def _memoized(self, memo_key: tuple, producer: Callable[[], Any]) -> Any:
        if memo_key not in self._memo:
            self._memo[memo_key] = producer()
        return self._memo[memo_key]

    def _artifact(
        self, memo_key: tuple, key_args: dict, compute: Callable[[], Any]
    ) -> Any:
        """Memo -> store -> compute-and-publish, in that order."""

        def produce() -> Any:
            if self.store is not None:
                key = make_key(**key_args)
                cached = self.store.get(key)
                if cached is not None:
                    return cached
                value = compute()
                self.store.put(key, value)
                return value
            return compute()

        return self._memoized(memo_key, produce)

    def _sim_counter(self, name: str) -> None:
        self.telemetry.incr(name)
        if self.store is not None:
            self.store.record_counter(name)

    # ------------------------------------------------------------------
    # cheap, rebuild-per-process stages

    def workload(self, name: str, scale: int) -> Workload:
        """The built workload (memo only; assembling is cheap)."""
        return self._memoized(
            ("workload", name, scale), lambda: build_workload(name, scale)
        )

    def program(self, name: str, scale: int) -> Program:
        return self.workload(name, scale).program

    def fingerprint(self, name: str, scale: int) -> str:
        return self._memoized(
            ("fingerprint", name, scale),
            lambda: program_fingerprint(self.program(name, scale)),
        )

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
            ("profile", name, scale),
            dict(kind="profile", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale)),
            compute,
        )

    def selection(
        self, name: str, scale: int,
        algorithm: str | SelectionParams,
        select_pfus: int | None = None,
    ) -> Selection:
        """The cached selection for ``algorithm``.

        ``algorithm`` may be the legacy string (with ``select_pfus``
        alongside) or a full :class:`~repro.extinst.SelectionParams`.
        """
        params = coerce_selection_params(algorithm, select_pfus)
        algorithm, select_pfus = params.algorithm, params.select_pfus
        # Non-default tunables (as declared by the algorithm's registry
        # spec) must key the cache or they would alias with
        # default-parameter selections; defaults keep legacy keys.
        extras: dict[str, Any] = selection_cache_extras(params)

        def compute() -> Selection:
            self.telemetry.incr("compute.selection")
            profile = self.profile(name, scale)
            with _scoped(workload=name, algorithm=algorithm):
                return run_selection(profile, params)

        return self._artifact(
            ("selection", name, scale, algorithm, select_pfus,
             tuple(sorted(extras.items()))),
            dict(kind="selection", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale),
                 algorithm=algorithm, select_pfus=select_pfus, **extras),
            compute,
        )

    def rewrite(
        self, name: str, scale: int, algorithm: str,
        select_pfus: int | None, validate: bool,
    ) -> tuple[Program, dict[int, ExtInstDef]]:
        """The rewritten program and its definitions.

        Validation compares against :meth:`original_run` and leaves the
        rewritten program's traced run for :meth:`trace` to take.
        """
        select_pfus = normalize_select_pfus(algorithm, select_pfus)
        memo_key = ("rewrite", name, scale, algorithm, select_pfus, validate)

        def compute() -> tuple[Program, dict[int, ExtInstDef]]:
            selection = self.selection(name, scale, algorithm, select_pfus)
            reference = self.original_run(name, scale) if validate else None
            with _scoped(workload=name, algorithm=algorithm):
                program, defs = apply_selection(
                    self.program(name, scale), selection
                )
                if validate:
                    self._sim_counter("sim.validate")
                    run = validate_equivalence(
                        self.program(name, scale), program, defs,
                        reference=reference, collect_trace=True,
                    )
                    self._validated[memo_key] = run.trace
            return program, defs

        return self._artifact(
            memo_key,
            dict(kind="rewrite", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale),
                 algorithm=algorithm, select_pfus=select_pfus,
                 validate=validate),
            compute,
        )

    def trace(
        self, name: str, scale: int, algorithm: str = BASELINE,
        select_pfus: int | None = None, validate: bool = True,
    ) -> DynTrace:
        """Dynamic trace of the (possibly rewritten) program."""
        if algorithm == BASELINE:
            params: dict[str, Any] = dict(algorithm=BASELINE)
            memo_key = ("trace", name, scale, BASELINE)
        else:
            select_pfus = normalize_select_pfus(algorithm, select_pfus)
            params = dict(algorithm=algorithm, select_pfus=select_pfus,
                          validate=validate)
            memo_key = ("trace", name, scale, algorithm, select_pfus, validate)

        def compute() -> DynTrace:
            if algorithm == BASELINE:
                return self.original_run(name, scale).trace
            program, defs = self.rewrite(
                name, scale, algorithm, select_pfus, validate
            )
            validated = self._validated.pop(("rewrite",) + memo_key[1:], None)
            if validated is not None:
                return validated
            self._sim_counter("sim.functional")
            with _scoped(workload=name, algorithm=algorithm):
                result = FunctionalSimulator(program, ext_defs=defs).run(
                    collect_trace=True
                )
            assert result.trace is not None
            return result.trace

        return self._artifact(
            memo_key,
            dict(kind="trace", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale), **params),
            compute,
        )

    # ------------------------------------------------------------------
    # timing

    def baseline_timing(
        self, name: str, scale: int, machine: MachineConfig | None = None
    ) -> SimStats:
        """Timing of the original program (Figure 2/6 first bar)."""
        machine = machine or BASELINE_MACHINE
        mfp = machine_fingerprint(machine)

        def compute() -> SimStats:
            trace = self.trace(name, scale, BASELINE)
            self._sim_counter("sim.timing")
            with _scoped(workload=name, algorithm=BASELINE):
                return OoOSimulator(
                    self.program(name, scale), machine
                ).simulate(trace)

        return self._artifact(
            ("timing", name, scale, BASELINE, mfp),
            dict(kind="timing", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale),
                 algorithm=BASELINE, machine=mfp),
            compute,
        )

    def timing_for(
        self,
        name: str,
        scale: int,
        algorithm: str,
        select_pfus: int | None,
        validate: bool,
        machine: MachineConfig,
    ) -> SimStats:
        """Timing of the rewritten program on an arbitrary machine.

        The generalisation :meth:`timing` and the design-space explorer
        (:mod:`repro.explore`) share: any :class:`MachineConfig` field
        may vary, and the cache key carries the full machine fingerprint
        — for machines that only vary PFU count and reconfiguration
        latency the keys are identical to :meth:`timing`'s, so sweeps
        and figure drivers serve each other's warm artefacts.
        """
        if algorithm == BASELINE:
            return self.baseline_timing(name, scale, core_machine(machine))
        select_pfus = normalize_select_pfus(algorithm, select_pfus)
        mfp = machine_fingerprint(machine)

        def compute() -> SimStats:
            program, defs = self.rewrite(
                name, scale, algorithm, select_pfus, validate
            )
            trace = self.trace(name, scale, algorithm, select_pfus, validate)
            self._sim_counter("sim.timing")
            with _scoped(
                workload=name, algorithm=algorithm,
                n_pfus=machine.n_pfus,
                reconfig_latency=machine.reconfig_latency,
            ):
                return OoOSimulator(
                    program, machine, ext_defs=defs
                ).simulate(trace)

        return self._artifact(
            ("timing", name, scale, algorithm, select_pfus, validate, mfp),
            dict(kind="timing", workload=name, scale=scale,
                 fingerprint=self.fingerprint(name, scale),
                 algorithm=algorithm, select_pfus=select_pfus,
                 validate=validate, machine=mfp),
            compute,
        )

    def timing(self, spec: ExperimentSpec) -> SimStats:
        """Timing of the rewritten program on the spec's machine."""
        machine = MachineConfig(
            n_pfus=spec.n_pfus, reconfig_latency=spec.reconfig_latency
        )
        return self.timing_for(
            spec.workload, spec.scale, spec.algorithm,
            spec.select_pfus, spec.validate, machine,
        )

    # ------------------------------------------------------------------
    # whole experiments

    def explore_point(
        self,
        name: str,
        scale: int,
        algorithm: str,
        select_pfus: int | None,
        validate: bool,
        machine: MachineConfig,
    ) -> ExperimentResult:
        """One design-space point: timing plus the matching baseline.

        The baseline is measured on :func:`core_machine` of ``machine``
        (same core geometry, PFU fields normalised), so speedups stay
        meaningful when the sweep varies RUU size, issue width, or cache
        geometry, and a whole PFU x latency sub-grid shares one baseline
        artefact.
        """
        base = self.baseline_timing(name, scale, core_machine(machine))
        if algorithm == BASELINE:
            return ExperimentResult(
                workload=name, algorithm=BASELINE, n_pfus=0,
                reconfig_latency=0, stats=base,
                baseline_cycles=base.cycles, n_configs=0,
            )
        stats = self.timing_for(
            name, scale, algorithm, select_pfus, validate, machine
        )
        selection = self.selection(name, scale, algorithm, select_pfus)
        return ExperimentResult(
            workload=name, algorithm=algorithm, n_pfus=machine.n_pfus,
            reconfig_latency=machine.reconfig_latency, stats=stats,
            baseline_cycles=base.cycles, n_configs=selection.n_configs,
        )

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run one T1000 experiment end to end (cached at every stage)."""
        base = self.baseline_timing(spec.workload, spec.scale)
        if spec.algorithm == BASELINE:
            return ExperimentResult(
                workload=spec.workload, algorithm=BASELINE, n_pfus=0,
                reconfig_latency=0, stats=base,
                baseline_cycles=base.cycles, n_configs=0,
            )
        stats = self.timing(spec)
        selection = self.selection(
            spec.workload, spec.scale, spec.algorithm, spec.select_pfus
        )
        return ExperimentResult(
            workload=spec.workload, algorithm=spec.algorithm,
            n_pfus=spec.n_pfus, reconfig_latency=spec.reconfig_latency,
            stats=stats, baseline_cycles=base.cycles,
            n_configs=selection.n_configs,
        )

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
# scheduler worker entry point

_WORKER_PIPELINES: dict[str, ArtifactPipeline] = {}


def _pipeline_for(cache_dir: str | None) -> ArtifactPipeline:
    key = cache_dir or ""
    if key not in _WORKER_PIPELINES:
        store = ArtifactStore(cache_dir) if cache_dir else None
        _WORKER_PIPELINES[key] = ArtifactPipeline(store=store)
    return _WORKER_PIPELINES[key]


def run_stage(pipeline: ArtifactPipeline, payload: dict) -> dict:
    """Execute one job payload against ``pipeline``.

    Returns ``{"value": ..., "telemetry": {...}, "wall_time": ...}``;
    the telemetry dict is the counter delta this job produced, which the
    parent merges into the run's telemetry.
    """
    snapshot = pipeline.telemetry.snapshot()
    started = time.perf_counter()
    stage = payload["stage"]
    value: Any = None
    if stage == "profile":
        name, scale = payload["workload"], payload["scale"]
        pipeline.profile(name, scale)
        if payload.get("baseline", True):
            pipeline.baseline_timing(name, scale)
    elif stage == "prepare":
        name, scale = payload["workload"], payload["scale"]
        algorithm = payload["algorithm"]
        select_pfus = payload["select_pfus"]
        selection = pipeline.selection(name, scale, algorithm, select_pfus)
        if payload.get("materialize", True):
            validate = payload["validate"]
            pipeline.rewrite(name, scale, algorithm, select_pfus, validate)
            pipeline.trace(name, scale, algorithm, select_pfus, validate)
        if payload.get("return_selection", False):
            value = selection_to_json(selection)
    elif stage == "experiment":
        spec = ExperimentSpec(**payload["spec"])
        value = pipeline.run(spec)
    elif stage == "explore":
        value = pipeline.explore_point(
            payload["workload"], payload["scale"], payload["algorithm"],
            payload["select_pfus"], payload["validate"],
            machine_from_json(payload["machine"]),
        )
    else:
        raise ConfigurationError(f"unknown job stage {stage!r}")
    return {
        "value": value,
        "telemetry": pipeline.telemetry.delta_since(snapshot),
        "wall_time": time.perf_counter() - started,
    }


def execute_job(payload: dict) -> dict:
    """Worker-process job runner (resolves the pipeline by cache dir).

    A job is a worker's only exit point, so its store counters are
    persisted here, once per job, whether the stage succeeds or not."""
    pipeline = _pipeline_for(payload.get("cache_dir"))
    try:
        return run_stage(pipeline, payload)
    finally:
        pipeline.flush()


def spec_payload(spec: ExperimentSpec, cache_dir: str | None) -> dict:
    """Build the picklable job payload for an experiment spec."""
    return {"stage": "experiment", "cache_dir": cache_dir,
            "spec": asdict(spec)}


def selection_from_payload(value: dict) -> Selection:
    """Decode the selection JSON a "prepare" job returns."""
    return selection_from_json(value)
