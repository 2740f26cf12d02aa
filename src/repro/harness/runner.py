"""Per-workload experiment views over the engine's artifact pipeline.

A :class:`WorkloadLab` is a thin, workload-scoped view over an
:class:`~repro.engine.pipeline.ArtifactPipeline`: the profile, each
algorithm's selection, the rewritten programs with their dynamic traces,
and timing results all live in the pipeline's cache (an in-process memo,
plus a persistent content-addressed store when one is configured), so
the same artefact is never paid for twice — not within a process, and
with a store, not even across processes or ``t1000`` invocations.
"""

from __future__ import annotations

from functools import lru_cache

from repro.engine.pipeline import (
    ArtifactPipeline,
    ExperimentResult,
    get_default_pipeline,
    make_spec,
)
from repro.extinst import Selection, SelectionParams
from repro.extinst.extdef import ExtInstDef
from repro.profiling import ProgramProfile
from repro.program.program import Program
from repro.sim.ooo import MachineConfig, SimStats
from repro.sim.trace import DynTrace
from repro.workloads import Workload

__all__ = ["ExperimentResult", "WorkloadLab", "get_lab"]


class WorkloadLab:
    """Cached experiment artefacts for one workload."""

    def __init__(
        self,
        name: str,
        scale: int = 1,
        validate: bool = True,
        pipeline: ArtifactPipeline | None = None,
    ):
        self.pipeline = pipeline if pipeline is not None else get_default_pipeline()
        self.name = name
        self.scale = scale
        self.validate = validate
        self.workload: Workload = self.pipeline.workload(name, scale)

    # ------------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self.workload.program

    @property
    def profile(self) -> ProgramProfile:
        return self.pipeline.profile(self.name, self.scale)

    def selection(self, params: SelectionParams) -> Selection:
        """The (cached) selection ``params`` requests."""
        return self.pipeline.selection(self.name, self.scale, params)

    def rewritten(
        self, params: SelectionParams
    ) -> tuple[Program, dict[int, ExtInstDef]]:
        return self.pipeline.rewrite(
            self.name, self.scale, params, self.validate
        )

    def trace(self, params: SelectionParams | None = None) -> DynTrace:
        """The original program's trace, or the one ``params`` rewrote."""
        return self.pipeline.trace(
            self.name, self.scale, params, self.validate
        )

    # ------------------------------------------------------------------

    def baseline(self, machine: MachineConfig | None = None) -> SimStats:
        """Timing of the original program (Figure 2/6 first bar)."""
        return self.pipeline.baseline_timing(self.name, self.scale, machine)

    def timing_sweep(
        self,
        params: SelectionParams,
        machines: "list[MachineConfig] | tuple[MachineConfig, ...]",
    ) -> list[SimStats]:
        """Replay one rewritten trace under many machine configurations.

        The single-pass sweep path: the rewrite and functional trace are
        materialised once through the pipeline's caches, then every
        machine configuration replays the same trace via
        :func:`~repro.sim.ooo.simulate_many`, sharing the per-trace
        timing artefacts. Results are in ``machines`` order."""
        from repro.sim.ooo import simulate_many

        program, defs = self.rewritten(params)
        trace = self.trace(params)
        return simulate_many(program, trace, machines, ext_defs=defs)

    def run(
        self,
        algorithm: str | SelectionParams,
        n_pfus: int | None,
        reconfig_latency: int,
        select_pfus: int | None = "same",  # type: ignore[assignment]
    ) -> ExperimentResult:
        """Run one T1000 experiment.

        ``select_pfus`` is the PFU count the *selective algorithm* plans
        for; by default it equals the hardware PFU count ``n_pfus``.
        (Figure 2's thrashing case uses greedy, which ignores it.)
        """
        spec = make_spec(
            self.name, algorithm, n_pfus, reconfig_latency,
            scale=self.scale, select_pfus=select_pfus,
            validate=self.validate,
        )
        return self.pipeline.run(spec)


@lru_cache(maxsize=None)
def get_lab(name: str, scale: int = 1, validate: bool = True) -> WorkloadLab:
    """Process-wide lab cache (benchmarks share artefacts).

    The key includes ``scale`` and ``validate``, so labs for different
    scales or validation settings never alias — and the underlying
    pipeline keys carry both too, so a warm persistent cache can never
    serve artefacts computed at a different workload scale.
    """
    return WorkloadLab(name, scale, validate)
