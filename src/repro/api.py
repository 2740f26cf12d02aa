"""The stable public facade: five functions, keyword-only, one import.

The paper's toolflow is compile → profile → select → rewrite → simulate;
this module exposes exactly that, hiding which internal module each step
lives in::

    from repro import api

    program = api.compile(source=SRC)              # or workload="gsm_encode"
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, ext_defs = api.rewrite(program=program, selection=selection)
    stats = api.simulate(program=rewritten, ext_defs=ext_defs,
                         machine=api.MachineConfig(n_pfus=2,
                                                   reconfig_latency=10))

Every function takes keyword-only arguments and returns the existing
dataclasses (:class:`~repro.program.program.Program`,
:class:`~repro.profiling.ProgramProfile`,
:class:`~repro.extinst.Selection`, :class:`~repro.sim.ooo.SimStats`), so
code written against the facade interoperates with the deeper layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.extinst import (
    SELECTIVE,
    Selection,
    SelectionParams,
    apply_selection,
    run_selection,
    validate_equivalence,
)
from repro.obs import Recorder, enable, get_recorder, observed
from repro.profiling import ProgramProfile, profile_program
from repro.program.program import Program
from repro.sim.ooo import MachineConfig, OoOSimulator, SimStats, simulate_many

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.extdef import ExtInstDef

__all__ = [
    "MachineConfig",
    "SelectionParams",
    "compile",
    "connect",
    "profile",
    "rewrite",
    "select",
    "simulate",
]

_DEFAULT_MAX_STEPS = 50_000_000


def compile(
    *,
    source: str | None = None,
    workload: str | None = None,
    scale: int = 1,
    lang: str | None = None,
    name: str | None = None,
) -> Program:
    """Build a :class:`Program` from source text or a named workload.

    Exactly one of ``source``/``workload`` must be given.  ``lang``
    selects the frontend for ``source``: ``"asm"`` (the T1000 assembler)
    or ``"minic"`` (the bundled C-subset compiler); by default it is
    inferred — sources containing an assembler section directive
    (``.text``/``.data``) assemble, anything else compiles as minic.
    ``scale`` applies to workloads only.
    """
    if (source is None) == (workload is None):
        raise ConfigurationError(
            "pass exactly one of source= or workload= to api.compile"
        )
    if workload is not None:
        if lang is not None:
            raise ConfigurationError("lang= only applies to source=")
        from repro.workloads import build_workload

        return build_workload(workload, scale).program
    if lang is None:
        lang = "asm" if (".text" in source or ".data" in source) else "minic"
    if lang == "asm":
        from repro.asm import assemble

        return assemble(source, name=name or "program")
    if lang == "minic":
        from repro.cc import compile_source

        return compile_source(source, name=name or "minic")
    raise ConfigurationError(
        f"unknown lang {lang!r} (expected 'asm' or 'minic')"
    )


def profile(
    *, program: Program, max_steps: int = _DEFAULT_MAX_STEPS
) -> ProgramProfile:
    """Functionally execute ``program`` and collect the §4 profile
    (execution counts and operand bitwidths)."""
    return profile_program(program, max_steps=max_steps)


#: Distinguishes "pfus not given" from an explicit ``pfus=None``
#: (unlimited budget) in :func:`select`.
_UNSET = object()


def select(
    *,
    profile: ProgramProfile,
    algorithm: str | None = None,
    pfus: "int | None" = _UNSET,  # type: ignore[assignment]
    params: SelectionParams | None = None,
) -> Selection:
    """Choose extended instructions from a profile.

    ``algorithm`` names any selector registered in
    :mod:`repro.extinst.registry` — ``"greedy"`` (§4), ``"selective"``
    (§5, the default), ``"isegen"`` (iterative improvement), or a
    plugin; ``pfus`` is the PFU budget the selection plans for
    (``None`` = unlimited).  Pass ``params`` (a full
    :class:`~repro.extinst.SelectionParams`) to control the algorithm's
    tunables; ``params`` may itself name any registered algorithm.
    Explicit ``algorithm=``/``pfus=`` combine with ``params=`` as
    overrides: a redundant-but-consistent combination is accepted, and
    ``pfus=`` fills in a budget ``params`` left unlimited — but a
    combination that *contradicts* ``params`` raises
    :class:`~repro.errors.ConfigurationError` naming both values.
    """
    from dataclasses import replace as _replace

    if params is None:
        request = SelectionParams(
            algorithm=algorithm if algorithm is not None else SELECTIVE,
            select_pfus=None if pfus is _UNSET else pfus,
        )
    else:
        request = params
        if algorithm is not None and algorithm != params.algorithm:
            raise ConfigurationError(
                f"algorithm={algorithm!r} contradicts "
                f"params.algorithm={params.algorithm!r}"
            )
        if pfus is not _UNSET and pfus != params.select_pfus:
            if params.select_pfus is not None:
                raise ConfigurationError(
                    f"pfus={pfus!r} contradicts "
                    f"params.select_pfus={params.select_pfus!r}"
                )
            request = _replace(params, select_pfus=pfus)
    return run_selection(profile, request)


def rewrite(
    *,
    program: Program,
    selection: Selection,
    validate: bool = True,
) -> tuple[Program, dict[int, "ExtInstDef"]]:
    """Apply ``selection`` to ``program``.

    Returns the rewritten program and its ``conf -> ExtInstDef`` table
    (what both simulators consume).  ``validate=True`` (default) proves
    semantic equivalence against the original before returning.
    """
    rewritten, ext_defs = apply_selection(program, selection)
    if validate:
        validate_equivalence(program, rewritten, ext_defs)
    return rewritten, ext_defs


def simulate(
    *,
    program: Program,
    machine: "MachineConfig | Iterable[MachineConfig] | None" = None,
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    observe: bool | Recorder = False,
    max_steps: int = _DEFAULT_MAX_STEPS,
) -> "SimStats | list[SimStats]":
    """Functionally execute ``program`` then replay it through the
    out-of-order timing model.

    ``machine`` defaults to the baseline superscalar
    (:class:`~repro.sim.ooo.MachineConfig` defaults); rewritten programs
    need their ``ext_defs``.  Pass any iterable of machine
    configurations — list, tuple, or a lazy generator streaming a large
    design grid — to sweep them over a single functional execution (one
    trace pass shared across all configurations via
    :func:`~repro.sim.ooo.simulate_many`; a lazy source is drawn exactly
    once); the return value is then a list of
    :class:`~repro.sim.ooo.SimStats` in configuration order.
    ``observe`` controls observability (:mod:`repro.obs`): pass a
    :class:`~repro.obs.Recorder` to install it for the duration of this
    call, or ``True`` to record into the process-wide recorder, enabling
    a fresh one first if none is active (retrieve it afterwards with
    ``repro.obs.get_recorder()``).
    """
    from repro.sim.functional import FunctionalSimulator

    def run() -> "SimStats | list[SimStats]":
        result = FunctionalSimulator(program, ext_defs=ext_defs).run(
            max_steps=max_steps, collect_trace=True
        )
        if machine is not None and not isinstance(machine, MachineConfig):
            return simulate_many(
                program, result.trace, machine, ext_defs=ext_defs
            )
        sim = OoOSimulator(program, config=machine, ext_defs=ext_defs)
        return sim.simulate(result.trace)

    if isinstance(observe, Recorder):
        with observed(observe):
            return run()
    if observe and not get_recorder().enabled:
        enable()
    return run()


def connect(address: "str | tuple[str, int]", **kwargs):
    """Connect to a ``t1000 serve`` toolflow service.

    Returns a :class:`~repro.serve.client.ServeClient` whose five
    toolflow methods mirror this module's functions (same keyword
    arguments, same return types), so a script moves from in-process to
    served by swapping ``repro.api`` for ``repro.api.connect(addr)``.
    ``kwargs`` are forwarded (``timeout``, ``retries``, ...).
    """
    from repro.serve.client import connect as _connect

    return _connect(address, **kwargs)
