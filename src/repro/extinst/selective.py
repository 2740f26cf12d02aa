"""The selective algorithm (§5) — the paper's main contribution.

Steps (Figure 5):

1. Profile the program; extract maximal candidate sequences.
2. Compute potential gains. Keep only sequences responsible for at least
   a ``gain_threshold`` fraction (0.5%) of total application time — this
   focuses on high-payoff sequences and bounds the number of distinct
   configurations.
3. If the number of distinct configurations fits the PFU count, select
   them all and exit.
4. Otherwise consider loop bodies one at a time (innermost first). For a
   loop with more distinct sequences than PFUs, build the subsequence
   containment matrix and select the ``#PFU`` patterns with the highest
   total gain — possibly a short common subsequence shared by several
   maximal sequences instead of each maximal sequence separately
   (Figure 3/4's example).

The per-loop cap is what prevents PFU thrashing: within any one loop the
rewritten code uses at most ``n_pfus`` distinct configurations, so steady
state pays no reconfigurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.extraction import CandidateSequence, ExtractionParams
from repro.extinst.matrix import (
    SubOccurrence,
    build_containment_matrix,
    claim_disjoint,
)
from repro.extinst.selection import Selection, fold_selection, record_selection
from repro.profiling.profiler import ProgramProfile


@dataclass(frozen=True)
class SelectiveParams:
    """Tunables of the selective algorithm (paper defaults)."""

    gain_threshold: float = 0.005   # §5.1: 0.5% of total application time
    extraction: ExtractionParams = field(default_factory=ExtractionParams)


def selective_select(
    profile: ProgramProfile,
    n_pfus: int | None,
    params: "SelectiveParams | SelectionParams | None" = None,
    *,
    analysis: ProgramAnalysis | None = None,
) -> Selection:
    """Run the selective algorithm for a machine with ``n_pfus`` PFUs.

    ``n_pfus=None`` (unlimited) degenerates to "select everything that
    passes the gain threshold" — the Figure 6 fourth bar.

    ``params`` may be the historical :class:`SelectiveParams` or a full
    :class:`~repro.extinst.params.SelectionParams` (its threshold and
    extraction tunables are used; ``n_pfus`` here stays authoritative).
    ``analysis``: ``profile``'s, under that extraction (default: fresh).
    """
    params = params or SelectiveParams()
    analysis = analysis or ProgramAnalysis(profile, params.extraction)
    sequences = analysis.sequences
    total_time = max(1, profile.base_cycles_estimate)

    kept = [
        seq
        for seq in sequences
        if seq.exec_count * len(seq.nodes) / total_time >= params.gain_threshold
    ]
    distinct_keys = {seq.key for seq in kept}
    meta = {
        "n_maximal_sequences": len(sequences),
        "n_after_threshold": len(kept),
        "n_distinct_after_threshold": len(distinct_keys),
        "gain_threshold": params.gain_threshold,
        "n_pfus": n_pfus,
    }

    if n_pfus is None or len(distinct_keys) <= n_pfus:
        meta["per_loop_phase"] = False
        selection = fold_selection(
            ((seq.bid, seq.nodes, seq) for seq in kept), "selective", meta
        )
    else:
        meta["per_loop_phase"] = True
        selection = _select_per_loop(analysis, kept, n_pfus, meta)

    record_selection(
        profile, selection, considered=len(sequences),
        rejected={"gain_threshold": len(sequences) - len(kept),
                  "pfu_budget": meta.get("n_budget_rejected", 0)},
        per_loop=meta["per_loop_phase"],
    )
    return selection


def _marginal_gain(
    key: tuple,
    seqs_g: list[CandidateSequence],
    subs_by_seq: list[dict[tuple, list[SubOccurrence]]],
    taken_by_seq: list[set[int]],
    gain_per_exec: int,
) -> int:
    """Gain pattern ``key`` would add, given nodes already claimed by
    previously chosen patterns. Prevents spending a PFU on a pattern whose
    embeddings are fully covered (e.g. a subchain of an already-chosen
    maximal chain). A key's occurrences already ascend by position."""
    return gain_per_exec * sum(
        claim_disjoint(subs[key], set(taken)) * max(1, seq.exec_count)
        for seq, subs, taken in zip(seqs_g, subs_by_seq, taken_by_seq)
        if key in subs
    )


def _claim_nodes(
    key: tuple,
    subs_by_seq: list[dict[tuple, list[SubOccurrence]]],
    taken_by_seq: list[set[int]],
) -> None:
    """Mark the nodes pattern ``key``'s (greedy, disjoint) embeddings cover."""
    for subs, taken in zip(subs_by_seq, taken_by_seq):
        claim_disjoint(subs.get(key, ()), taken)


def _select_per_loop(
    analysis: ProgramAnalysis,
    kept: list[CandidateSequence],
    n_pfus: int,
    meta: dict,
) -> Selection:
    # Group kept sequences by their *top-level* containing loop. Budgeting
    # the outermost loop automatically satisfies the per-loop cap for every
    # nested loop (their configurations are a subset of the <= n_pfus
    # chosen for the nest), which is what keeps steady-state execution
    # reconfiguration-free — the property behind the paper's "speedups
    # retained with 500-cycle reconfiguration" claim (§5.2). Sequences
    # outside any loop form their own group, also subject to the budget.
    groups: dict[int | None, list[CandidateSequence]] = {}
    for seq in kept:
        groups.setdefault(seq.outer_loop_header, []).append(seq)

    # Hotter groups first: they get first pick of globally shared configs.
    ordered_groups = sorted(
        groups, key=lambda h: sum(s.total_gain for s in groups[h]),
        reverse=True,
    )

    chosen_defs: dict[tuple, object] = {}        # key -> ExtInstDef
    chosen_for_group: dict[int | None, set[tuple]] = {}
    budget_rejected = 0

    for header in ordered_groups:
        seqs_g = groups[header]
        subs_by_seq = [analysis.subsequences(seq) for seq in seqs_g]
        matrix = build_containment_matrix(seqs_g, subs_by_seq)
        taken_by_seq: list[set[int]] = [set() for _ in seqs_g]

        # Configurations already chosen for other loops apply here for free
        # (same PFU contents); they claim their embeddings first.
        present_chosen = {k for k in matrix.keys if k in chosen_defs}
        for key in present_chosen:
            _claim_nodes(key, subs_by_seq, taken_by_seq)

        # Fill the remaining PFU budget by marginal gain: each round picks
        # the pattern adding the most cycles *not already covered*, so two
        # fully-overlapping patterns never both consume a PFU.
        budget = max(0, n_pfus - len(present_chosen))
        new_keys: list[tuple] = []
        for _ in range(budget):
            best_key, best_gain = None, 0
            for key in matrix.keys:
                if key in chosen_defs or key in new_keys:
                    continue
                gain = _marginal_gain(
                    key, seqs_g, subs_by_seq, taken_by_seq, matrix.gains[key]
                )
                if gain > best_gain or (
                    gain == best_gain
                    and best_key is not None
                    and gain > 0
                    and len(matrix.defs[key].nodes)
                    > len(matrix.defs[best_key].nodes)
                ):
                    best_key, best_gain = key, gain
            if best_key is None or best_gain == 0:
                break
            new_keys.append(best_key)
            _claim_nodes(best_key, subs_by_seq, taken_by_seq)
        chosen_defs.update((key, matrix.defs[key]) for key in new_keys)
        chosen_for_group[header] = present_chosen | set(new_keys)
        budget_rejected += len(matrix.keys) - len(chosen_for_group[header])

    meta["n_chosen_configs"] = len(chosen_defs)
    meta["n_budget_rejected"] = budget_rejected
    meta["groups"] = {
        str(header): sorted(len(chosen_defs[k].nodes) for k in keys)
        for header, keys in chosen_for_group.items()
    }

    # Rewrite phase: inside each group, fold non-overlapping embeddings of
    # that group's chosen patterns, largest saving first.
    return fold_groups(analysis, groups, chosen_for_group, "selective", meta)


def fold_groups(
    analysis: ProgramAnalysis,
    groups: dict[int | None, list[CandidateSequence]],
    chosen_for_group: dict[int | None, set[tuple]],
    algorithm: str,
    meta: dict,
) -> Selection:
    """The rewrite fold selective and isegen share: inside each group
    (in insertion order), fold non-overlapping embeddings of the group's
    chosen patterns, largest saving first."""
    return fold_selection(
        (
            (seq.bid, occ.nodes, occ.build)
            for header, seqs_g in groups.items()
            for seq in seqs_g
            for occ in analysis.fold(seq, chosen_for_group.get(header, ()))
        ),
        algorithm, meta,
    )
