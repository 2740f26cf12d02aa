"""Dynamic-trace representation.

The timing model is trace-driven (perfect branch prediction, as in the
paper): the functional simulator records which static instruction executed
at each dynamic step plus its effective memory address, and the timing
model replays that stream. Static per-instruction properties (sources,
destination, latency class) are looked up from the program, so the trace
itself stays compact: two parallel integer arrays.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class DynTrace:
    """A dynamic execution trace.

    ``indices[k]`` is the static text index of the k-th executed
    instruction; ``addrs[k]`` is its effective byte address for loads and
    stores, or -1.
    """

    indices: array = field(default_factory=lambda: array("i"))
    addrs: array = field(default_factory=lambda: array("q"))

    def __len__(self) -> int:
        return len(self.indices)

    def __getstate__(self):
        """Pickle only the two trace arrays: the timing model caches
        derived per-trace artefacts on the instance (underscore
        attributes keyed by ``id()``, meaningless in another process);
        they are recomputed on first replay after unpickling."""
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }

    def append(self, static_index: int, addr: int = -1) -> None:
        self.indices.append(static_index)
        self.addrs.append(addr)

    def extend(self, indices: Iterable[int], addrs: Iterable[int]) -> None:
        """Bulk-append parallel index/address runs (what the block-compiled
        interpreter emits: one call per basic block instead of one per
        dynamic instruction)."""
        before = len(self.indices)
        self.indices.extend(indices)
        try:
            self.addrs.extend(addrs)
            if len(self.indices) != len(self.addrs):
                raise ValueError(
                    "extend: indices and addrs runs have different lengths"
                )
        except Exception:
            # Roll back so a mismatched call cannot corrupt the trace.
            del self.indices[before:]
            del self.addrs[before:]
            raise

    def static_counts(self, n_static: int) -> list[int]:
        """Execution count per static instruction index.

        Cached on the instance (and invalidated when the trace grows):
        profiling and selection call this repeatedly on multi-million-entry
        traces.  The underscore attribute is excluded from pickling by
        ``__getstate__``."""
        key = (len(self.indices), n_static)
        cached = getattr(self, "_static_counts_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        counts = [0] * n_static
        for idx, count in Counter(self.indices).items():
            counts[idx] = count
        self._static_counts_cache = (key, counts)
        return counts
