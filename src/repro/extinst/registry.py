"""The pluggable selection registry: algorithm name -> selector plugin.

Every layer that used to hardcode the two algorithm strings (the api
facade, the engine pipeline's cache keys, ``t1000`` CLI choices,
explore's axis validation, serve's op dispatch, the fuzz differential)
now consults this registry, so adding a selection algorithm is one
:func:`register_selector` call — in the spirit of ByoRISC's pluggable
design-space exploration tools (PAPERS.md).

A plugin is a :class:`SelectorSpec`: the algorithm name, a runner
``(profile, params) -> Selection``, and the declared :class:`Tunable`
fields of :class:`~repro.extinst.params.SelectionParams` the algorithm
actually reads.  The tunables drive three behaviours uniformly:

* ``SelectionParams.normalized()`` resets every *undeclared* field to
  its default, so requests differing only in ignored knobs share cache
  keys and scheduler jobs;
* :func:`selection_cache_extras` turns *non-default* declared tunables
  into extra store-key params — defaults add nothing, which is what
  keeps pre-registry greedy/selective keys byte-identical (warm stores
  keep hitting across the refactor);
* ``t1000 algorithms`` lists them, so the CLI help is sourced from the
  registry rather than a literal table.

Other modules refer to the built-in algorithms through the exported
name constants (:data:`GREEDY`, :data:`SELECTIVE`, :data:`ISEGEN`,
:data:`BASELINE`) rather than string literals, so a grep for quoted
algorithm names outside ``repro.extinst`` stays empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError
from repro.extinst.extraction import ExtractionParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.params import SelectionParams
    from repro.extinst.selection import Selection

#: The built-in algorithm names. Import these instead of spelling the
#: strings: every quoted algorithm literal outside ``repro.extinst`` is
#: a regression (grep-enforced by ``tests/test_registry.py``).
GREEDY = "greedy"
SELECTIVE = "selective"
ISEGEN = "isegen"
#: Not a selector — the unmodified program — but the sentinel shares the
#: constant treatment so axis/spec code never spells it inline either.
BASELINE = "baseline"

#: §5.1 default: keep sequences worth >= 0.5% of application time.
DEFAULT_GAIN_THRESHOLD = 0.005
#: Planning-time reconfiguration latency isegen optimises under.
DEFAULT_RECONFIG_LATENCY = 10
#: KL pass limits: hard cap, and consecutive no-improvement passes.
DEFAULT_MAX_PASSES = 8
DEFAULT_STALL_PASSES = 2

_SCALARS = (int, float, str, bool)


@dataclass(frozen=True)
class Tunable:
    """One :class:`SelectionParams` field an algorithm actually reads."""

    name: str
    default: Any
    doc: str

    def cache_value(self, value: Any) -> Any:
        """The store-key representation (JSON scalars pass through)."""
        if value is None or isinstance(value, _SCALARS):
            return value
        return repr(value)


@dataclass(frozen=True)
class SelectorSpec:
    """A registered selection algorithm.

    ``run`` takes ``(profile, params)`` with ``params`` a fully resolved
    :class:`~repro.extinst.params.SelectionParams` and returns a
    :class:`~repro.extinst.selection.Selection`.  ``uses_select_pfus``
    is False for algorithms that ignore the PFU budget (greedy);
    ``latency_aware`` marks algorithms whose *selection* depends on the
    reconfiguration latency (isegen), which the figures harness uses to
    re-select per latency point.  ``uses_analysis`` marks runners that
    take a third argument, the
    :class:`~repro.extinst.analysis.ProgramAnalysis` shared by every
    selection of the program (or ``None``: build one).
    """

    name: str
    run: Callable[..., "Selection"]
    description: str
    uses_select_pfus: bool = True
    latency_aware: bool = False
    tunables: tuple[Tunable, ...] = ()
    uses_analysis: bool = False


_REGISTRY: dict[str, SelectorSpec] = {}


def register_selector(spec: SelectorSpec) -> SelectorSpec:
    """Add ``spec`` to the registry; duplicate names are configuration
    errors (a plugin overriding a built-in silently would corrupt cache
    identity)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"selection algorithm {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_selector(name: str) -> None:
    """Remove a selector (test hygiene for plugin round-trips)."""
    _REGISTRY.pop(name, None)


def get_selector(name: str) -> SelectorSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown selection algorithm {name!r} "
            f"(expected one of {registered_algorithms()})"
        )
    return spec


def registered_algorithms() -> tuple[str, ...]:
    """Registered algorithm names, in registration order."""
    return tuple(_REGISTRY)


def selector_specs() -> tuple[SelectorSpec, ...]:
    return tuple(_REGISTRY.values())


def selection_cache_extras(params: "SelectionParams") -> dict[str, Any]:
    """Non-default declared tunables as extra store-key params.

    Defaults contribute nothing, so default-parameter selections keep
    the legacy ``(algorithm, select_pfus)``-only keys — byte-identical
    to the pre-registry pipeline — while any tuned knob splits the key.
    """
    spec = get_selector(params.algorithm)
    extras: dict[str, Any] = {}
    for tunable in spec.tunables:
        value = getattr(params, tunable.name)
        if value != tunable.default:
            extras[tunable.name] = tunable.cache_value(value)
    return extras


def normalize_select_pfus(
    algorithm: str, select_pfus: int | None
) -> int | None:
    """Collapse the PFU budget for algorithms that ignore it."""
    return select_pfus if get_selector(algorithm).uses_select_pfus else None


# ----------------------------------------------------------------------
# built-in selectors (runners import lazily: plugins stay cheap to list)


def _run_greedy(profile, params, analysis):
    from repro.extinst.greedy import greedy_select

    return greedy_select(profile, params, analysis=analysis)


def _run_selective(profile, params, analysis):
    from repro.extinst.selective import selective_select

    return selective_select(
        profile, params.select_pfus, params, analysis=analysis
    )


def _run_isegen(profile, params, analysis):
    from repro.extinst.isegen import isegen_select

    return isegen_select(profile, params.select_pfus, params, analysis=analysis)


_EXTRACTION = Tunable(
    "extraction", ExtractionParams(),
    "candidate-sequence extraction limits (§4 width/depth/input caps)",
)
_GAIN_THRESHOLD = Tunable(
    "gain_threshold", DEFAULT_GAIN_THRESHOLD,
    "keep sequences worth at least this fraction of total time (§5.1)",
)

register_selector(SelectorSpec(
    name=GREEDY,
    run=_run_greedy,
    description="fold every maximal sequence (§4); ignores the PFU budget",
    uses_select_pfus=False,
    tunables=(_EXTRACTION,),
    uses_analysis=True,
))

register_selector(SelectorSpec(
    name=SELECTIVE,
    run=_run_selective,
    description=("gain threshold + per-loop PFU budgeting via the "
                 "containment matrix (§5)"),
    tunables=(_GAIN_THRESHOLD, _EXTRACTION),
    uses_analysis=True,
))

register_selector(SelectorSpec(
    name=ISEGEN,
    run=_run_isegen,
    description=("Kernighan-Lin iterative improvement over the selective "
                 "seed, latency-aware (ISEGEN, PAPERS.md)"),
    latency_aware=True,
    tunables=(
        _GAIN_THRESHOLD,
        _EXTRACTION,
        Tunable("reconfig_latency", DEFAULT_RECONFIG_LATENCY,
                "reconfiguration latency the objective charges per "
                "cold configuration load"),
        Tunable("max_passes", DEFAULT_MAX_PASSES,
                "hard cap on KL improvement passes"),
        Tunable("stall_passes", DEFAULT_STALL_PASSES,
                "stop after this many consecutive passes without "
                "improvement"),
    ),
    uses_analysis=True,
))


__all__ = [
    "BASELINE",
    "DEFAULT_GAIN_THRESHOLD",
    "DEFAULT_MAX_PASSES",
    "DEFAULT_RECONFIG_LATENCY",
    "DEFAULT_STALL_PASSES",
    "GREEDY",
    "ISEGEN",
    "SELECTIVE",
    "SelectorSpec",
    "Tunable",
    "get_selector",
    "normalize_select_pfus",
    "register_selector",
    "registered_algorithms",
    "selection_cache_extras",
    "selector_specs",
    "unregister_selector",
]
