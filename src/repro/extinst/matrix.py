"""Subsequence enumeration and the §5.1 containment matrix.

For each maximal candidate sequence, every *valid* subsequence (a subset
of its nodes that is itself a legal extended instruction) is a potential
PFU configuration — "our approach begins by extracting all valid
subsequences and adding them to the candidate extended instruction list".

The candidate list is organised as a k x k matrix: entry ``[I, J]`` counts
appearances of pattern I within occurrences of maximal sequence J,
weighted by J's execution count (the paper's Figure 4 uses static counts
inside one loop; weighting by frequency generalises this across blocks
with different trip counts while reducing to the same ranking in the
paper's example). The diagonal counts maximal (stand-alone) appearances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from repro.extinst.extdef import ExtInstDef
from repro.extinst.extraction import (
    CandidateSequence,
    ExtractionParams,
    SequenceBuild,
    build_sequence,
)
from repro.program.dfg import DataflowGraph
from repro.program.program import Program


@dataclass(frozen=True)
class SubOccurrence:
    """One embedding of a pattern inside a maximal sequence occurrence
    (``key`` and per-execution ``gain`` are computed once)."""

    nodes: tuple[int, ...]
    build: SequenceBuild

    @cached_property
    def key(self) -> tuple:
        return self.build.extdef.key

    @cached_property
    def gain(self) -> int:
        return self.build.extdef.gain_per_execution


def enumerate_subsequences(
    program: Program,
    dfg: DataflowGraph,
    seq: CandidateSequence,
    params: ExtractionParams,
) -> dict[tuple, list[SubOccurrence]]:
    """All valid subsequences of ``seq``, grouped by canonical key.

    Includes the full sequence itself. Maximal sequences hold at most
    ``params.max_nodes`` (8) nodes, so exhaustive subset enumeration is
    at most 255 validations per sequence.
    """
    out: dict[tuple, list[SubOccurrence]] = {}
    node_list = list(seq.nodes)
    for size in range(params.min_nodes, len(node_list) + 1):
        for subset in combinations(node_list, size):
            build = build_sequence(program, dfg, set(subset), params.max_inputs)
            if build is None or build.extdef.depth > params.max_depth:
                continue
            occ = SubOccurrence(nodes=subset, build=build)
            out.setdefault(occ.key, []).append(occ)
    return out


def claim_disjoint(occurrences, taken: set[int]) -> int:
    """Claim, in the given order, each embedding that overlaps nothing
    already in ``taken``; return how many were claimed."""
    count = 0
    for occ in occurrences:
        if taken.isdisjoint(occ.nodes):
            taken.update(occ.nodes)
            count += 1
    return count


def disjoint_count(occurrences: list[SubOccurrence]) -> int:
    """Maximum number of non-overlapping embeddings (greedy by position).

    Used so that a pattern appearing in two overlapping ways inside one
    maximal sequence is not double-counted in the gain estimate.
    """
    return claim_disjoint(sorted(occurrences, key=lambda o: o.nodes), set())


@dataclass
class ContainmentMatrix:
    """The k x k candidate matrix for one loop (§5.1, Figure 4)."""

    keys: list[tuple]                         # row/column order
    counts: list[list[int]]                   # counts[i][j] = I within J
    gains: dict[tuple, int]                   # per-execution gain of pattern I
    defs: dict[tuple, ExtInstDef]             # representative ExtInstDef per key

    def score(self, key: tuple) -> int:
        """Total potential gain of selecting pattern ``key``: appearances
        across all maximal sequences times its per-execution saving."""
        i = self.keys.index(key)
        return sum(self.counts[i]) * self.gains[key]

    def ranked_keys(self) -> list[tuple]:
        """Pattern keys by descending total gain (ties: larger pattern first)."""
        return sorted(
            self.keys,
            key=lambda k: (-self.score(k), -len(self.defs[k].nodes)),
        )


def build_containment_matrix(
    maximal_seqs: list[CandidateSequence],
    subs: list[dict[tuple, list[SubOccurrence]]],
) -> ContainmentMatrix:
    """Build the matrix over a group of maximal sequences (one loop)
    from their :func:`enumerate_subsequences` dicts ``subs``.

    Column ``J`` corresponds to the J-th distinct *maximal* key; multiple
    occurrences of the same maximal pattern accumulate into one column
    (the paper's Figure 4: the two identical sequences share row/column J).
    """
    maximal_keys: list[tuple] = []
    col_of: dict[tuple, int] = {}
    for seq in maximal_seqs:
        if seq.key not in col_of:
            col_of[seq.key] = len(maximal_keys)
            maximal_keys.append(seq.key)

    # pattern key -> column -> weighted count
    cells: dict[tuple, dict[int, int]] = {}
    gains: dict[tuple, int] = {}
    defs: dict[tuple, ExtInstDef] = {}
    for seq, seq_subs in zip(maximal_seqs, subs):
        col = col_of[seq.key]
        for key, occs in seq_subs.items():
            n = disjoint_count(occs)
            if n == 0:
                continue
            cells.setdefault(key, {})
            cells[key][col] = cells[key].get(col, 0) + n * max(1, seq.exec_count)
            gains.setdefault(key, occs[0].gain)
            defs.setdefault(key, occs[0].build.extdef)

    keys = list(cells)
    counts = [
        [cells[key].get(col, 0) for col in range(len(maximal_keys))] for key in keys
    ]
    return ContainmentMatrix(keys=keys, counts=counts, gains=gains, defs=defs)
