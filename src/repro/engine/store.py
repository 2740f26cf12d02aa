"""Content-addressed on-disk artifact store.

Every expensive artefact of the experiment pipeline — profiles,
selections, rewritten programs, dynamic traces, and timing results — is
cached under a digest of everything that determines its value:

    digest = sha256(schema version, kind, workload, scale,
                    program fingerprint, sorted parameters)

The parameters carry the algorithm, selection PFU budget, the
``validate`` flag, and (for timing artefacts) a fingerprint of the full
:class:`~repro.sim.ooo.MachineConfig`, so a warm cache can never serve
an artefact computed at a different workload scale or machine
configuration.  Bumping :data:`SCHEMA_VERSION` invalidates every old
entry at once (old digests simply never match again).

Layout under the store root::

    schema                  # the schema version this store was created at
    objects/ab/abcdef...    # one artefact per file, sharded by digest prefix
    counters/<token>.json   # cumulative hit/miss/put counters per process

Artefacts are JSON where a faithful text codec exists (selections via
:mod:`repro.extinst.serialize`, timing stats via :func:`stats_to_json`)
and pickle otherwise (profiles, rewritten programs, traces).  Writes are
atomic (temp file + ``os.replace``); unreadable or truncated entries are
treated as misses and deleted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import uuid
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.engine.telemetry import Telemetry
from repro.errors import ConfigurationError
from repro.extinst.serialize import selection_from_json, selection_to_json
from repro.program.program import Program
from repro.sim.cache.cache import CacheConfig
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.sim.cache.tlb import TLBConfig
from repro.sim.ooo import MachineConfig, SimStats

#: Version of the cache-key schema *and* the on-disk artefact envelope.
#: Bump whenever either the key composition or a codec changes shape.
SCHEMA_VERSION = 1

#: Artefact kinds and their serialisation format.
KIND_FORMATS = {
    "profile": "pickle",
    "selection": "json",
    "rewrite": "pickle",
    "trace": "pickle",
    "timing": "json",
}


# ----------------------------------------------------------------------
# fingerprints


def program_fingerprint(program: Program) -> str:
    """Stable digest of a program's text, data, and symbol table."""
    h = hashlib.sha256()
    h.update(program.render().encode())
    h.update(b"\0")
    h.update(program.data)
    h.update(json.dumps(sorted(program.symbols.items())).encode())
    h.update(program.name.encode())
    return h.hexdigest()[:16]


def machine_to_json(machine: MachineConfig) -> dict:
    """JSON-serialisable form of a full :class:`MachineConfig` (hierarchy
    included).  Inverse of :func:`machine_from_json`; used to ship swept
    machine configurations to scheduler workers and into sweep-state
    files without pickling."""
    return asdict(machine)


def machine_from_json(data: dict) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`machine_to_json`."""
    fields = dict(data)
    hier = fields.pop("hierarchy", None)
    if hier is not None:
        fields["hierarchy"] = HierarchyConfig(
            il1=CacheConfig(**hier["il1"]),
            dl1=CacheConfig(**hier["dl1"]),
            ul2=CacheConfig(**hier["ul2"]),
            itlb=TLBConfig(**hier["itlb"]),
            dtlb=TLBConfig(**hier["dtlb"]),
            mem_latency=int(hier["mem_latency"]),
        )
    return MachineConfig(**fields)


def machine_fingerprint(machine: MachineConfig) -> str:
    """Stable digest of every semantic MachineConfig field (hierarchy
    included). Execution-strategy fields that cannot change results
    (``sim_fast_path``; the fast/reference paths are verified
    bit-identical) are excluded so cached artifacts stay valid either
    way."""
    fields = asdict(machine)
    fields.pop("sim_fast_path", None)
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# sweep-state helpers (small JSON sidecar files next to the store)


def write_json_atomic(path: str | os.PathLike, payload: Any) -> None:
    """Atomically write ``payload`` as sorted JSON to ``path``.

    Used for sweep-state sidecars (:mod:`repro.explore`): a crash mid-
    write leaves the previous state intact, never a truncated file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json(path: str | os.PathLike) -> Any | None:
    """Read a JSON sidecar; unreadable or corrupt files are ``None``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# keys


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one cached artefact.

    ``params`` is a sorted tuple of ``(name, value)`` pairs; values must
    be JSON scalars so the digest is stable across processes.
    """

    kind: str
    workload: str
    scale: int
    fingerprint: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KIND_FORMATS:
            raise ConfigurationError(f"unknown artifact kind {self.kind!r}")

    @property
    def digest(self) -> str:
        blob = json.dumps(
            [
                SCHEMA_VERSION,
                self.kind,
                self.workload,
                self.scale,
                self.fingerprint,
                [[name, value] for name, value in self.params],
            ],
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({self.workload}@{self.scale}, {params})"


def make_key(
    kind: str, workload: str, scale: int, fingerprint: str, **params: Any
) -> ArtifactKey:
    """Build an :class:`ArtifactKey` with normalised, sorted parameters."""
    for name, value in params.items():
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise ConfigurationError(
                f"cache-key parameter {name}={value!r} is not a JSON scalar"
            )
    return ArtifactKey(
        kind=kind,
        workload=workload,
        scale=int(scale),
        fingerprint=fingerprint,
        params=tuple(sorted(params.items())),
    )


# ----------------------------------------------------------------------
# SimStats codec (timing artefacts are JSON, like selections)


def stats_to_json(stats: SimStats) -> dict:
    """JSON-serialisable form of a :class:`SimStats` (full fidelity)."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ext_instructions": stats.ext_instructions,
        "pfu_hits": stats.pfu_hits,
        "pfu_misses": stats.pfu_misses,
        "reconfig_cycles": stats.reconfig_cycles,
        "bpred_lookups": stats.bpred_lookups,
        "bpred_mispredictions": stats.bpred_mispredictions,
        "class_counts": dict(stats.class_counts),
        "cache": {name: dict(inner) for name, inner in stats.cache.items()},
        "stall_cycles": dict(stats.stall_cycles),
        "timeline": [list(entry) for entry in stats.timeline],
    }


def stats_from_json(data: dict) -> SimStats:
    """Inverse of :func:`stats_to_json`."""
    return SimStats(
        cycles=int(data["cycles"]),
        instructions=int(data["instructions"]),
        ext_instructions=int(data["ext_instructions"]),
        pfu_hits=int(data["pfu_hits"]),
        pfu_misses=int(data["pfu_misses"]),
        reconfig_cycles=int(data["reconfig_cycles"]),
        bpred_lookups=int(data["bpred_lookups"]),
        bpred_mispredictions=int(data["bpred_mispredictions"]),
        class_counts={str(k): int(v) for k, v in data["class_counts"].items()},
        cache={
            str(name): {str(k): int(v) for k, v in inner.items()}
            for name, inner in data["cache"].items()
        },
        stall_cycles={
            str(k): int(v) for k, v in data.get("stall_cycles", {}).items()
        },
        timeline=[tuple(entry) for entry in data["timeline"]],
    )


#: kind -> (encode to JSON payload, decode). Pickle kinds store raw objects.
_JSON_CODECS: dict[str, tuple[Callable, Callable]] = {
    "selection": (selection_to_json, selection_from_json),
    "timing": (stats_to_json, stats_from_json),
}


# ----------------------------------------------------------------------
# stats view


@dataclass
class StoreStats:
    """Aggregate view returned by :meth:`ArtifactStore.stats`."""

    root: str
    schema_version: int
    artifacts: int = 0
    total_bytes: int = 0
    artifacts_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return sum(v for k, v in self.counters.items()
                   if k.startswith("cache.hit"))

    @property
    def misses(self) -> int:
        return sum(v for k, v in self.counters.items()
                   if k.startswith("cache.miss"))

    @property
    def puts(self) -> int:
        return sum(v for k, v in self.counters.items()
                   if k.startswith("store.put"))

    def render(self) -> str:
        lines = [
            f"cache dir: {self.root}",
            f"schema version: {self.schema_version}",
            f"artifacts: {self.artifacts} ({self.total_bytes} bytes)",
        ]
        for kind in sorted(self.artifacts_by_kind):
            lines.append(
                f"  {kind:<10} {self.artifacts_by_kind[kind]:>5} "
                f"({self.bytes_by_kind.get(kind, 0)} bytes)"
            )
        lines.append(
            f"hits: {self.hits}  misses: {self.misses}  puts: {self.puts}"
        )
        # a validation run is a functional run too
        functional = (self.counters.get("sim.functional", 0)
                      + self.counters.get("sim.validate", 0))
        lines.append(
            f"simulations: functional={functional} "
            f"timing={self.counters.get('sim.timing', 0)}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the store


class ArtifactStore:
    """A content-addressed artefact cache rooted at ``root``.

    Thread-unsafe but multi-process-safe: writes are atomic renames and
    every process appends its own counter file, so concurrent workers
    sharing one cache directory never corrupt each other.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        telemetry: Telemetry | None = None,
        max_bytes: int | None = None,
        create: bool = True,
    ):
        self.root = Path(root)
        if not create and not self.root.is_dir():
            raise ConfigurationError(
                f"cache directory {self.root} does not exist"
            )
        self.telemetry = telemetry or Telemetry()
        self.max_bytes = max_bytes
        self._objects = self.root / "objects"
        self._counters_dir = self.root / "counters"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._counters_dir.mkdir(parents=True, exist_ok=True)
        self._session: Counter = Counter()
        self._token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        schema_file = self.root / "schema"
        if not schema_file.exists():
            self._atomic_write(schema_file, str(SCHEMA_VERSION).encode())

    # ------------------------------------------------------------------
    # paths

    def path_for(self, key: ArtifactKey) -> Path:
        digest = key.digest
        ext = "json" if KIND_FORMATS[key.kind] == "json" else "pkl"
        return self._objects / digest[:2] / f"{key.kind}-{digest}.{ext}"

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # get / put

    def get(self, key: ArtifactKey) -> Any | None:
        """The cached artefact for ``key``, or None on a miss.

        Corrupt entries (truncated files, bad JSON/pickle, digest or kind
        mismatches) count as misses and are deleted.
        """
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except (FileNotFoundError, OSError):
            self._count(f"cache.miss.{key.kind}")
            return None
        try:
            value = self._decode(key, payload)
        except Exception:
            self._count(f"cache.corrupt.{key.kind}")
            self._count(f"cache.miss.{key.kind}")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count(f"cache.hit.{key.kind}")
        try:
            os.utime(path)  # refresh LRU clock for gc
        except OSError:
            pass
        return value

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic; last writer wins)."""
        path = self.path_for(key)
        self._atomic_write(path, self._encode(key, value))
        self._count(f"store.put.{key.kind}")
        if self.max_bytes is not None:
            self.gc(max_bytes=self.max_bytes)

    def contains(self, key: ArtifactKey) -> bool:
        return self.path_for(key).exists()

    def _encode(self, key: ArtifactKey, value: Any) -> bytes:
        envelope = {
            "schema": SCHEMA_VERSION,
            "kind": key.kind,
            "digest": key.digest,
            "described": key.describe(),
        }
        if KIND_FORMATS[key.kind] == "json":
            encode, _ = _JSON_CODECS[key.kind]
            envelope["payload"] = encode(value)
            return json.dumps(envelope, sort_keys=True).encode()
        envelope["payload"] = value
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode(self, key: ArtifactKey, payload: bytes) -> Any:
        if KIND_FORMATS[key.kind] == "json":
            envelope = json.loads(payload.decode())
        else:
            envelope = pickle.loads(payload)
        if (
            envelope.get("schema") != SCHEMA_VERSION
            or envelope.get("kind") != key.kind
            or envelope.get("digest") != key.digest
        ):
            raise ValueError("artifact envelope mismatch")
        if KIND_FORMATS[key.kind] == "json":
            _, decode = _JSON_CODECS[key.kind]
            return decode(envelope["payload"])
        return envelope["payload"]

    # ------------------------------------------------------------------
    # counters

    def _count(self, name: str, n: int = 1) -> None:
        self._session[name] += n
        self.telemetry.incr(name, n)

    def record_counter(self, name: str, n: int = 1) -> None:
        """Persist an engine-level counter (e.g. ``sim.timing``)."""
        self._session[name] += n

    def flush_counters(self) -> None:
        """Write this process's cumulative counters to its delta file."""
        if not self._session:
            return
        path = self._counters_dir / f"{self._token}.json"
        self._atomic_write(
            path, json.dumps(dict(self._session), sort_keys=True).encode()
        )

    def _read_counter_files(self) -> Counter:
        total: Counter = Counter()
        for path in self._counters_dir.glob("*.json"):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            for name, value in data.items():
                total[name] += int(value)
        return total

    # ------------------------------------------------------------------
    # maintenance

    def _object_files(self) -> list[Path]:
        return [p for p in self._objects.glob("*/*") if p.is_file()]

    def stats(self) -> StoreStats:
        """Aggregate artefact counts, sizes, and cumulative counters."""
        stats = StoreStats(root=str(self.root), schema_version=SCHEMA_VERSION)
        for path in self._object_files():
            kind = path.name.split("-", 1)[0]
            size = path.stat().st_size
            stats.artifacts += 1
            stats.total_bytes += size
            stats.artifacts_by_kind[kind] = (
                stats.artifacts_by_kind.get(kind, 0) + 1
            )
            stats.bytes_by_kind[kind] = stats.bytes_by_kind.get(kind, 0) + size
        persisted = self._read_counter_files()
        unflushed = self._session - self._read_own_delta()
        stats.counters = dict(persisted + unflushed)
        return stats

    def _read_own_delta(self) -> Counter:
        path = self._counters_dir / f"{self._token}.json"
        try:
            return Counter(
                {k: int(v) for k, v in json.loads(path.read_text()).items()}
            )
        except (OSError, ValueError):
            return Counter()

    def clear(self) -> int:
        """Delete every artefact and counter file; returns files removed."""
        removed = 0
        for path in self._object_files():
            path.unlink(missing_ok=True)
            removed += 1
        for path in self._counters_dir.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._session.clear()
        return removed

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> dict[str, int]:
        """Evict artefacts by age and least-recently-used size budget.

        Entries older than ``max_age_days`` (by last access; hits refresh
        the clock) are removed first; then, oldest-first, entries are
        evicted until the store fits in ``max_bytes``.  Counter files are
        compacted into a single file as a side effect.
        """
        files = []
        for path in self._object_files():
            try:
                st = path.stat()
            except OSError:
                continue
            files.append((st.st_mtime, st.st_size, path))
        files.sort()  # oldest first

        removed, freed = 0, 0
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            survivors = []
            for mtime, size, path in files:
                if mtime < cutoff:
                    path.unlink(missing_ok=True)
                    removed += 1
                    freed += size
                else:
                    survivors.append((mtime, size, path))
            files = survivors
        if max_bytes is not None:
            total = sum(size for _, size, _ in files)
            for _, size, path in files:
                if total <= max_bytes:
                    break
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
                total -= size

        # Compact counter deltas so the directory does not accumulate one
        # file per historical process.
        self.flush_counters()
        merged = self._read_counter_files()
        for path in self._counters_dir.glob("*.json"):
            path.unlink(missing_ok=True)
        if merged:
            self._atomic_write(
                self._counters_dir / f"agg-{uuid.uuid4().hex[:8]}.json",
                json.dumps(dict(merged), sort_keys=True).encode(),
            )
        self._session.clear()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(self._object_files()),
        }
