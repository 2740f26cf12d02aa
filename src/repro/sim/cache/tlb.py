"""TLB model: a set-associative tag store over page numbers.

A TLB miss charges a fixed refill penalty (software-managed refill on the
order of SimpleScalar's default 30 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.cache.cache import Cache, CacheConfig, CacheStats
from repro.utils.fields import require_exact_ints


@dataclass(frozen=True)
class TLBConfig:
    name: str
    entries: int
    assoc: int
    page_size: int = 4096
    miss_penalty: int = 30

    def __post_init__(self) -> None:
        require_exact_ints(self)
        if self.entries % self.assoc:
            raise ConfigurationError(
                f"{self.name}: entries {self.entries} not divisible by assoc"
            )


class TLB:
    """Maps a virtual address to a translation latency (0 on hit)."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        # Reuse the cache machinery: one "line" per page, sets x assoc tags.
        self._store = Cache(
            CacheConfig(
                name=config.name,
                nsets=config.entries // config.assoc,
                assoc=config.assoc,
                line_size=config.page_size,
                hit_latency=1,
            )
        )

    @property
    def stats(self) -> CacheStats:
        return self._store.stats

    def translate(self, addr: int) -> int:
        """Extra cycles incurred by translating ``addr``."""
        if self._store.access(addr):
            return 0
        return self.config.miss_penalty
