"""Selection results: which configurations exist and where they apply."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.extinst.extdef import ExtInstDef
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.profiler import ProgramProfile


@dataclass(frozen=True)
class RewriteSite:
    """One program location to fold: ``nodes`` (ascending instruction
    indices inside block ``bid``) collapse into ``ext rd, rs, rt, conf``
    placed at the root (last node)."""

    bid: int
    nodes: tuple[int, ...]
    conf: int
    input_regs: tuple[int, ...]
    output_reg: int

    @property
    def root(self) -> int:
        return self.nodes[-1]


@dataclass
class Selection:
    """Output of a selection algorithm."""

    ext_defs: dict[int, ExtInstDef]    # conf id -> configuration
    sites: list[RewriteSite]
    algorithm: str
    meta: dict = field(default_factory=dict)

    @property
    def n_configs(self) -> int:
        return len(self.ext_defs)

    def configs_in_sites(self) -> set[int]:
        return {site.conf for site in self.sites}

    def describe(self) -> str:
        lines = [
            f"{self.algorithm} selection: {self.n_configs} configuration(s), "
            f"{len(self.sites)} rewrite site(s)"
        ]
        for conf, extdef in sorted(self.ext_defs.items()):
            uses = sum(1 for s in self.sites if s.conf == conf)
            lines.append(f"  conf {conf}: {len(extdef)} ops, {uses} site(s)")
        return "\n".join(lines)


class ConfAllocator:
    """Assigns stable conf ids to canonical configuration keys."""

    def __init__(self) -> None:
        self._by_key: dict[tuple, int] = {}
        self.defs: dict[int, ExtInstDef] = {}

    def conf_for(self, extdef: ExtInstDef) -> int:
        conf = self._by_key.get(extdef.key)
        if conf is None:
            conf = len(self._by_key)
            self._by_key[extdef.key] = conf
            self.defs[conf] = extdef
        return conf


def fold_selection(folds, algorithm: str, meta: dict) -> Selection:
    """Fold each ``(bid, nodes, build)`` in order, one configuration per
    key (``build``: a sequence build, or a maximal sequence folded whole)."""
    allocator = ConfAllocator()
    sites = [
        RewriteSite(
            bid=bid,
            nodes=nodes,
            conf=allocator.conf_for(build.extdef),
            input_regs=build.input_regs,
            output_reg=build.output_reg,
        )
        for bid, nodes, build in folds
    ]
    return Selection(
        ext_defs=allocator.defs, sites=sites, algorithm=algorithm, meta=meta
    )


def record_selection(
    profile: "ProgramProfile",
    selection: Selection,
    considered: int,
    rejected: dict[str, int] | None = None,
    **done,
) -> None:
    """Count a finished selection's candidates (considered, accepted and
    rejected by reason) and emit its ``selection.done`` event."""
    rec = get_recorder()
    if not rec.enabled:
        return
    labels = {"algorithm": selection.algorithm,
              "program": profile.program.name}
    rec.counter("selection.candidates.considered", **labels).inc(considered)
    rec.counter("selection.candidates.accepted", **labels).inc(
        len(selection.sites))
    for reason, count in (rejected or {}).items():
        if count:
            rec.counter("selection.candidates.rejected", reason=reason,
                        **labels).inc(count)
    rec.event("selection.done", **labels, configs=selection.n_configs,
              sites=len(selection.sites), **done)
