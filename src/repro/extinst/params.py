"""One parameter object for every selection entry point.

:class:`SelectionParams` is the single request shape every layer
accepts: the engine pipeline's stages,
:class:`~repro.harness.runner.WorkloadLab`,
:func:`~repro.engine.pipeline.make_spec`, and the module functions
:func:`~repro.extinst.greedy.greedy_select` /
:func:`~repro.extinst.selective.selective_select`.
:func:`run_selection` is the algorithm-agnostic dispatcher.

Which algorithms exist — and which of these fields each one reads — is
the :mod:`repro.extinst.registry`'s business: validation, dispatch and
:meth:`SelectionParams.normalized` all consult it, so a registered
plugin participates in every entry point without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.extinst.extraction import ExtractionParams
from repro.extinst.registry import (
    DEFAULT_GAIN_THRESHOLD,
    DEFAULT_MAX_PASSES,
    DEFAULT_RECONFIG_LATENCY,
    DEFAULT_STALL_PASSES,
    get_selector,
    registered_algorithms,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.analysis import ProgramAnalysis
    from repro.extinst.selection import Selection
    from repro.profiling.profiler import ProgramProfile

#: Snapshot of the built-in algorithm names (legacy import surface).
#: Prefer :func:`repro.extinst.registry.registered_algorithms`, which
#: also sees plugins registered after import.
ALGORITHMS = registered_algorithms()


@dataclass(frozen=True)
class SelectionParams:
    """A fully specified selection request.

    ``select_pfus`` is the PFU budget the *selection* plans for (distinct
    from the hardware PFU count a later timing run models); ``None``
    means unlimited.  Each algorithm declares the tunables it reads in
    its registry :class:`~repro.extinst.registry.SelectorSpec`; fields
    outside that set are ignored by the algorithm and collapsed by
    :meth:`normalized` (greedy ignores ``select_pfus`` and
    ``gain_threshold`` by design, §4; only isegen reads the KL knobs).
    """

    algorithm: str = "selective"
    select_pfus: int | None = None
    gain_threshold: float = DEFAULT_GAIN_THRESHOLD
    extraction: ExtractionParams = field(default_factory=ExtractionParams)
    #: isegen: latency charged per cold configuration load when scoring.
    reconfig_latency: int = DEFAULT_RECONFIG_LATENCY
    #: isegen: hard cap on KL improvement passes.
    max_passes: int = DEFAULT_MAX_PASSES
    #: isegen: stop after this many consecutive non-improving passes.
    stall_passes: int = DEFAULT_STALL_PASSES

    def __post_init__(self) -> None:
        get_selector(self.algorithm)   # raises naming valid choices

    def normalized(self) -> "SelectionParams":
        """Collapse fields the algorithm ignores (stable cache identity).

        Every field the algorithm's registry spec does not declare as a
        tunable is reset to its default, and ``select_pfus`` is dropped
        for budget-blind algorithms — so two requests differing only in
        ignored knobs share cache keys and scheduler jobs.
        """
        spec = get_selector(self.algorithm)
        collapsed = replace(
            SelectionParams(algorithm=self.algorithm),
            select_pfus=self.select_pfus if spec.uses_select_pfus else None,
            **{t.name: getattr(self, t.name) for t in spec.tunables},
        )
        return self if collapsed == self else collapsed


def run_selection(
    profile: "ProgramProfile",
    params: SelectionParams,
    analysis: "ProgramAnalysis | None" = None,
) -> "Selection":
    """Dispatch ``params`` to its registered algorithm implementation,
    handing ``analysis`` (``profile``'s under ``params.extraction``, or
    None for a fresh one) to selectors that use one."""
    params = params.normalized()
    spec = get_selector(params.algorithm)
    if spec.uses_analysis:
        return spec.run(profile, params, analysis)
    return spec.run(profile, params)


__all__ = [
    "ALGORITHMS",
    "DEFAULT_GAIN_THRESHOLD",
    "SelectionParams",
    "run_selection",
]
