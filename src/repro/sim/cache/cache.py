"""Set-associative cache with true-LRU replacement.

Timing-only: no data is stored, just tags. Write policy is write-back /
write-allocate; dirty evictions are counted but modelled as overlapped
with execution (no added latency), matching the level of detail the
paper's evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.fields import require_exact_ints


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    nsets: int
    assoc: int
    line_size: int  # bytes
    hit_latency: int

    def __post_init__(self) -> None:
        require_exact_ints(self)
        for label, value in (
            ("nsets", self.nsets),
            ("assoc", self.assoc),
            ("line_size", self.line_size),
        ):
            if not _is_pow2(value):
                raise ConfigurationError(
                    f"{self.name}: {label} must be a power of two, got {value}"
                )
        if self.hit_latency < 1:
            raise ConfigurationError(f"{self.name}: hit_latency must be >= 1")

    @property
    def size_bytes(self) -> int:
        return self.nsets * self.assoc * self.line_size


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level. ``access`` returns True on hit."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._offset_bits = config.line_size.bit_length() - 1
        self._index_mask = config.nsets - 1
        # per set: tag -> (lru stamp, dirty)
        self._sets: list[dict[int, list]] = [dict() for _ in range(config.nsets)]
        self._clock = 0

    def _locate(self, addr: int) -> tuple[dict[int, list], int]:
        line = addr >> self._offset_bits
        return self._sets[line & self._index_mask], line >> (
            self._index_mask.bit_length()
        )

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; allocate on miss. Returns hit/miss."""
        self._clock += 1
        entries, tag = self._locate(addr)
        self.stats.accesses += 1
        entry = entries.get(tag)
        if entry is not None:
            self.stats.hits += 1
            entry[0] = self._clock
            entry[1] = entry[1] or is_write
            return True
        self.stats.misses += 1
        if len(entries) >= self.config.assoc:
            victim = min(entries, key=lambda t: entries[t][0])
            if entries[victim][1]:
                self.stats.writebacks += 1
            del entries[victim]
            self.stats.evictions += 1
        entries[tag] = [self._clock, is_write]
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without touching LRU state or stats."""
        entries, tag = self._locate(addr)
        return tag in entries

    def flush(self) -> None:
        """Invalidate all lines (dirty lines counted as writebacks)."""
        for entries in self._sets:
            for entry in entries.values():
                if entry[1]:
                    self.stats.writebacks += 1
            entries.clear()
