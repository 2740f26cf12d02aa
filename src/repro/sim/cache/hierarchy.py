"""The three-level memory hierarchy: L1I + L1D, unified L2, main memory,
plus instruction and data TLBs.

Defaults mirror SimpleScalar ``sim-outorder``: 16 KiB direct-mapped L1I
(256x1x64... see below), 16 KiB 4-way L1D, 256 KiB 4-way unified L2,
1-cycle L1 hits, 6-cycle L2 hits, 18-cycle memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.cache.cache import Cache, CacheConfig
from repro.sim.cache.tlb import TLB, TLBConfig
from repro.utils.fields import require_exact_ints


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the full memory hierarchy."""

    il1: CacheConfig = CacheConfig("il1", nsets=256, assoc=1, line_size=32, hit_latency=1)
    dl1: CacheConfig = CacheConfig("dl1", nsets=128, assoc=4, line_size=32, hit_latency=1)
    ul2: CacheConfig = CacheConfig("ul2", nsets=1024, assoc=4, line_size=64, hit_latency=6)
    itlb: TLBConfig = TLBConfig("itlb", entries=64, assoc=4)
    dtlb: TLBConfig = TLBConfig("dtlb", entries=128, assoc=4)
    mem_latency: int = 18

    def __post_init__(self) -> None:
        require_exact_ints(self)


class MemoryHierarchy:
    """Latency oracle for instruction fetches, loads, and stores."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.il1 = Cache(self.config.il1)
        self.dl1 = Cache(self.config.dl1)
        self.ul2 = Cache(self.config.ul2)
        self.itlb = TLB(self.config.itlb)
        self.dtlb = TLB(self.config.dtlb)

    def _access(self, l1: Cache, addr: int, is_write: bool) -> int:
        latency = l1.config.hit_latency
        if not l1.access(addr, is_write):
            latency += self.ul2.config.hit_latency
            if not self.ul2.access(addr, is_write):
                latency += self.config.mem_latency
        return latency

    def ifetch(self, addr: int) -> int:
        """Cycles to fetch the instruction cache line containing ``addr``."""
        return self.itlb.translate(addr) + self._access(self.il1, addr, False)

    def dload(self, addr: int) -> int:
        """Cycles for a data load at ``addr``."""
        return self.dtlb.translate(addr) + self._access(self.dl1, addr, False)

    def dstore(self, addr: int) -> int:
        """Cycles for a data store at ``addr`` (latency is charged to the
        cache-state update; the pipeline hides it behind the store buffer)."""
        return self.dtlb.translate(addr) + self._access(self.dl1, addr, True)
