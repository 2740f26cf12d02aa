"""Declarative sweep specifications for design-space exploration.

A :class:`SweepSpec` states *which question to ask* — a set of workloads
crossed with axes over machine parameters (PFU count, reconfiguration
latency, RUU size, issue width, cache geometry, ...) and selection
parameters (algorithm, PFU budget) — without saying anything about how
the points get simulated.  ``expand()`` turns it into an ordered,
deduplicated list of :class:`SweepPoint` objects, each addressed by the
same store key function the engine pipeline uses, so a sweep and the
figure drivers serve each other's warm artefacts.

Spec files are JSON::

    {
      "name": "pfu-vs-latency",
      "workloads": ["gsm_encode", "epic"],
      "scale": 1,
      "mode": "grid",
      "axes": {
        "algorithm": ["selective"],
        "n_pfus": [1, 2, 4, null],
        "reconfig_latency": [0, 10, 100, 500]
      },
      "prune": true
    }

Axis names may be any scalar :class:`~repro.sim.ooo.MachineConfig` field
(``n_pfus``, ``reconfig_latency``, ``ruu_size``, ``issue_width``, ...),
a dotted cache-geometry field (``dl1.nsets``, ``ul2.assoc``,
``mem_latency``), or a selection axis (``algorithm``, ``select_pfus``).
``select_pfus`` defaults to ``"same"`` — tied to the hardware PFU count,
matching :func:`repro.engine.make_spec`; the greedy algorithm always
ignores it.  ``mode`` is ``"grid"`` (cartesian product, the default) or
``"zip"`` (axes advance in lockstep and must share a length).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator

from repro.engine.pipeline import core_machine, requested_selection
from repro.engine.store import machine_fingerprint, machine_to_json
from repro.errors import ConfigurationError
from repro.extinst import SelectionParams
from repro.extinst.registry import (
    BASELINE,
    SELECTIVE,
    normalize_select_pfus,
    registered_algorithms,
)
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.sim.ooo import MachineConfig

#: Selection-side axes (everything else must be a machine field).
SELECTION_AXES = ("algorithm", "select_pfus")

#: Scalar MachineConfig fields that may be swept directly.
MACHINE_AXES = tuple(
    f.name
    for f in fields(MachineConfig)
    if f.name not in ("hierarchy", "sim_fast_path")
)

#: Dotted cache-geometry axes: ``<level>.<field>`` plus ``mem_latency``.
_HIERARCHY_LEVELS = ("il1", "dl1", "ul2", "itlb", "dtlb")


def _valid_algorithms() -> tuple[str, ...]:
    """Axis values: the baseline anchor plus every registered selector."""
    return (BASELINE,) + registered_algorithms()


def _is_hierarchy_axis(name: str) -> bool:
    if name == "mem_latency":
        return True
    level, _, field_name = name.partition(".")
    return bool(field_name) and level in _HIERARCHY_LEVELS


def valid_axis(name: str) -> bool:
    return (
        name in SELECTION_AXES
        or name in MACHINE_AXES
        or _is_hierarchy_axis(name)
    )


# ----------------------------------------------------------------------
# points


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved design point of a sweep.

    ``axes`` records the raw axis assignment that produced the point
    (for reports and CSV columns); identity and cache addressing come
    from the normalised fields plus the machine fingerprint.
    """

    workload: str
    scale: int
    algorithm: str              # "baseline" or any registered selector
    select_pfus: int | None
    validate: bool
    machine: MachineConfig
    axes: tuple[tuple[str, Any], ...] = ()

    @property
    def machine_fp(self) -> str:
        return machine_fingerprint(self.machine)

    @functools.cached_property
    def point_id(self) -> str:
        """Short content digest: the timing key's inputs minus the
        program fingerprint (which is a pure function of workload and
        scale), so ids are computable from the spec alone.  Cached: a
        sweep reads it several times per point."""
        blob = json.dumps(
            [self.workload, self.scale, self.algorithm, self.select_pfus,
             self.validate, self.machine_fp],
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def label(self) -> str:
        if self.algorithm == BASELINE:
            return f"{self.workload}@{self.scale}:{BASELINE}"
        pfus = "unl" if self.machine.n_pfus is None else self.machine.n_pfus
        extra = "".join(
            f":{name}={value}"
            for name, value in self.axes
            if name not in ("algorithm", "n_pfus", "reconfig_latency")
        )
        return (
            f"{self.workload}@{self.scale}:{self.algorithm}:pfus={pfus}"
            f":reconf={self.machine.reconfig_latency}{extra}"
        )

    @property
    def selection(self) -> SelectionParams | None:
        """The point's selection request; ``None`` for a baseline."""
        return requested_selection(self.algorithm, self.select_pfus)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "algorithm": self.algorithm,
            "select_pfus": self.select_pfus,
            "validate": self.validate,
            "machine": machine_to_json(self.machine),
            "axes": [[name, value] for name, value in self.axes],
        }


# ----------------------------------------------------------------------
# machine construction from axis assignments


def _build_machine(assignment: dict[str, Any]) -> MachineConfig:
    """A MachineConfig from the machine-axis slice of an assignment."""
    direct: dict[str, Any] = {}
    hier_fields: dict[str, dict[str, Any]] = {}
    mem_latency: int | None = None
    for name, value in assignment.items():
        if name in SELECTION_AXES:
            continue
        if name in MACHINE_AXES:
            direct[name] = value
        elif name == "mem_latency":
            mem_latency = value
        elif _is_hierarchy_axis(name):
            level, _, field_name = name.partition(".")
            hier_fields.setdefault(level, {})[field_name] = value
        else:
            raise ConfigurationError(f"unknown sweep axis {name!r}")
    if hier_fields or mem_latency is not None:
        hierarchy = HierarchyConfig()
        updates: dict[str, Any] = {}
        for level, level_fields in hier_fields.items():
            updates[level] = replace(getattr(hierarchy, level), **level_fields)
        if mem_latency is not None:
            updates["mem_latency"] = mem_latency
        direct["hierarchy"] = replace(hierarchy, **updates)
    return MachineConfig(**direct)


# ----------------------------------------------------------------------
# the spec


@dataclass(frozen=True)
class SweepSpec:
    """A declarative design-space sweep (see module docstring)."""

    name: str
    workloads: tuple[str, ...]
    axes: tuple[tuple[str, tuple], ...]
    mode: str = "grid"                  # "grid" | "zip"
    scale: int = 1
    include_baseline: bool = True
    prune: bool = True
    validate: bool = True

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigurationError("sweep spec needs at least one workload")
        if self.mode not in ("grid", "zip"):
            raise ConfigurationError(
                f"unknown sweep mode {self.mode!r} (expected 'grid' or 'zip')"
            )
        seen = set()
        for axis_name, values in self.axes:
            if not valid_axis(axis_name):
                raise ConfigurationError(
                    f"unknown sweep axis {axis_name!r}"
                )
            if axis_name in seen:
                raise ConfigurationError(f"duplicate sweep axis {axis_name!r}")
            seen.add(axis_name)
            if not values:
                raise ConfigurationError(f"axis {axis_name!r} has no values")
        if self.mode == "zip" and self.axes:
            lengths = {len(values) for _, values in self.axes}
            if len(lengths) > 1:
                raise ConfigurationError(
                    "zip-mode axes must all have the same length, got "
                    + ", ".join(
                        f"{name}={len(values)}" for name, values in self.axes
                    )
                )

    # ------------------------------------------------------------------
    # (de)serialisation

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "scale": self.scale,
            "mode": self.mode,
            "axes": {name: list(values) for name, values in self.axes},
            "include_baseline": self.include_baseline,
            "prune": self.prune,
            "validate": self.validate,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ConfigurationError("sweep spec must be a JSON object")
        unknown = set(data) - {
            "name", "workloads", "scale", "mode", "axes",
            "include_baseline", "prune", "validate",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec field(s): {sorted(unknown)}"
            )
        axes = data.get("axes") or {}
        if not isinstance(axes, dict):
            raise ConfigurationError("'axes' must be an object of lists")
        return cls(
            name=str(data.get("name") or "sweep"),
            workloads=tuple(data.get("workloads") or ()),
            scale=int(data.get("scale", 1)),
            mode=str(data.get("mode", "grid")),
            axes=tuple(
                (str(name), tuple(values)) for name, values in axes.items()
            ),
            include_baseline=bool(data.get("include_baseline", True)),
            prune=bool(data.get("prune", True)),
            validate=bool(data.get("validate", True)),
        )

    @classmethod
    def load(cls, path: str) -> "SweepSpec":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read sweep spec {path}: {exc.strerror or exc}"
            )
        except ValueError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}")
        return cls.from_json(data)

    @property
    def digest(self) -> str:
        """Content digest of everything that determines the point set.

        ``name`` and ``prune`` are excluded: renaming a sweep or toggling
        pruning must keep addressing the same state (a pruned and an
        unpruned run of one spec share their warm artefacts and their
        state file).
        """
        blob = json.dumps(
            {
                "workloads": list(self.workloads),
                "scale": self.scale,
                "mode": self.mode,
                "axes": {name: list(values) for name, values in self.axes},
                "include_baseline": self.include_baseline,
                "validate": self.validate,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    # expansion

    def _assignments(self) -> Iterator[dict[str, Any]]:
        if not self.axes:
            yield {}
            return
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        combos = (
            itertools.product(*value_lists)
            if self.mode == "grid"
            else zip(*value_lists)
        )
        for combo in combos:
            yield dict(zip(names, combo))

    def expand(self) -> list[SweepPoint]:
        """The ordered, deduplicated point list (workloads outermost).

        ``include_baseline`` adds one baseline anchor point per distinct
        (workload, core geometry) — the (speedup 1.0, area 0) corner of
        every Pareto frontier, and the denominator every other point
        needs anyway.
        """
        points: dict[tuple, SweepPoint] = {}

        def add(point: SweepPoint) -> None:
            identity = (
                point.workload, point.scale, point.algorithm,
                point.select_pfus, point.validate, point.machine_fp,
            )
            points.setdefault(identity, point)

        for workload in self.workloads:
            for assignment in self._assignments():
                machine = _build_machine(assignment)
                algorithm = assignment.get("algorithm", SELECTIVE)
                if algorithm not in _valid_algorithms():
                    raise ConfigurationError(
                        f"unknown algorithm {algorithm!r} in sweep axis "
                        f"(expected one of {_valid_algorithms()})"
                    )
                axes = tuple(sorted(assignment.items(), key=lambda kv: kv[0]))
                if algorithm == BASELINE:
                    add(SweepPoint(
                        workload=workload, scale=self.scale,
                        algorithm=BASELINE, select_pfus=None,
                        validate=self.validate,
                        machine=core_machine(machine), axes=axes,
                    ))
                    continue
                select_pfus = assignment.get("select_pfus", "same")
                if select_pfus == "same":
                    select_pfus = machine.n_pfus
                select_pfus = normalize_select_pfus(algorithm, select_pfus)
                if select_pfus is not None and not isinstance(
                    select_pfus, int
                ):
                    raise ConfigurationError(
                        f"select_pfus axis values must be integers, null, "
                        f"or 'same', got {select_pfus!r}"
                    )
                if self.include_baseline:
                    add(SweepPoint(
                        workload=workload, scale=self.scale,
                        algorithm=BASELINE, select_pfus=None,
                        validate=self.validate,
                        machine=core_machine(machine),
                        axes=(("algorithm", BASELINE),),
                    ))
                add(SweepPoint(
                    workload=workload, scale=self.scale,
                    algorithm=algorithm, select_pfus=select_pfus,
                    validate=self.validate, machine=machine, axes=axes,
                ))
        return list(points.values())
