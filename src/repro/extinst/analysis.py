"""One program analysis shared by every selection of a program.

Liveness, the block DFGs, the maximal candidate sequences (§4) and each
sequence's valid subsequences (§5.1) depend only on the profile and the
:class:`~repro.extinst.extraction.ExtractionParams` — not on the
algorithm, the PFU budget or the reconfiguration latency.  A
:class:`ProgramAnalysis` derives each on first use and never changes it
after; callers must not mutate what it returns.  It lives as long as
its owner (one selector call, or one engine pipeline) and is no store
artefact: every selection it feeds already is one.
"""

from __future__ import annotations

from functools import cached_property

from repro.extinst.extraction import (
    CandidateSequence,
    ExtractionParams,
    extract_candidate_sequences,
)
from repro.extinst.matrix import SubOccurrence, enumerate_subsequences
from repro.profiling.profiler import ProgramProfile
from repro.program.dfg import DataflowGraph, build_all_dfgs
from repro.program.liveness import LivenessInfo, compute_liveness


class ProgramAnalysis:
    """Selection facts of one (profile, extraction params) pair."""

    def __init__(
        self, profile: ProgramProfile, params: ExtractionParams | None = None
    ):
        self.profile = profile
        self.params = params or ExtractionParams()
        # by maximal sequence root, filled on first request
        self._subs: dict[int, dict[tuple, list[SubOccurrence]]] = {}
        self._embeddings: dict[int, tuple[SubOccurrence, ...]] = {}

    @cached_property
    def liveness(self) -> LivenessInfo:
        return compute_liveness(self.profile.cfg)

    @cached_property
    def dfgs(self) -> dict[int, DataflowGraph]:
        return build_all_dfgs(self.profile.cfg, self.liveness)

    @cached_property
    def sequences(self) -> tuple[CandidateSequence, ...]:
        """The maximal candidate sequences, in program order."""
        return tuple(
            extract_candidate_sequences(self.profile, self.params, self.dfgs)
        )

    def subsequences(
        self, seq: CandidateSequence
    ) -> dict[tuple, list[SubOccurrence]]:
        """``seq``'s valid subsequences by configuration key, enumerated
        once; each key's occurrences ascend by node tuple."""
        if seq.root not in self._subs:
            self._subs[seq.root] = enumerate_subsequences(
                self.profile.program, self.dfgs[seq.bid], seq, self.params
            )
        return self._subs[seq.root]

    def embeddings(self, seq: CandidateSequence) -> tuple[SubOccurrence, ...]:
        """Every occurrence in :meth:`subsequences`, largest first, then
        by position: the order the rewrite fold claims nodes in."""
        if seq.root not in self._embeddings:
            self._embeddings[seq.root] = tuple(sorted(
                (occ for occs in self.subsequences(seq).values()
                 for occ in occs),
                key=lambda o: (-len(o.nodes), o.nodes),
            ))
        return self._embeddings[seq.root]

    def fold(self, seq: CandidateSequence, chosen) -> list[SubOccurrence]:
        """The embeddings of the ``chosen`` keys a rewrite of ``seq``
        folds: non-overlapping, largest saving first."""
        taken: set[int] = set()
        folded = []
        for occ in self.embeddings(seq):
            if occ.key in chosen and taken.isdisjoint(occ.nodes):
                taken.update(occ.nodes)
                folded.append(occ)
        return folded


__all__ = ["ProgramAnalysis"]
