"""ISEGEN-style iterative improvement selection (third algorithm).

Greedy (§4) and selective (§5) are both single-pass: once a pattern is
chosen it is never reconsidered.  This module implements the
Kernighan-Lin-flavoured selector of "ISEGEN: Generation of High-Quality
Instruction Set Extensions by Iterative Improvement" (PAPERS.md),
adapted to the paper's configurable-PFU cost model:

1. **Seed** from the selective result — already per-loop budgeted, so
   every intermediate state respects the PFU constraint.
2. **Toggle moves**: add or drop one candidate pattern in one top-level
   loop group (a swap is a drop followed by an add later in the same
   pass).  Each move is scored by the change in *estimated cycles
   saved* under the configured reconfiguration latency — fold gain
   minus ``reconfig_latency`` per distinct configuration the group's
   rewritten code actually uses (the same ruler
   :func:`~repro.extinst.estimate.estimate_cycles_saved` applies to
   every selector).
3. **Kernighan-Lin pass structure**: within a pass, repeatedly apply
   the best-scoring unlocked move *even when its delta is negative*
   (uphill moves let the search escape the single-pass local optimum),
   lock the toggled pattern for the rest of the pass, then commit the
   best strictly-improving prefix of the move sequence — or revert the
   whole pass.  Terminate after ``stall_passes`` consecutive passes
   without improvement or ``max_passes`` total.

Every ordering in the search (group iteration, candidate ranking, move
tie-breaks) is total and derived from the extraction output, so results
are deterministic and safe to cache by
``(algorithm, select_pfus, tunables)`` alone.

Because commits are strictly improving, the final state never scores
below the seed *state*; the final selection is additionally compared
against the untouched selective seed selection under the shared
estimator and the better of the two is returned, so "isegen ties or
beats selective" holds by construction on every input.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.estimate import estimate_cycles_saved
from repro.extinst.extraction import CandidateSequence
from repro.extinst.matrix import claim_disjoint
from repro.extinst.registry import ISEGEN
from repro.extinst.selection import Selection, record_selection
from repro.extinst.selective import fold_groups, selective_select
from repro.profiling.profiler import ProgramProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.params import SelectionParams

#: Candidate patterns considered per group, by potential-gain rank (seed
#: patterns always join regardless).  Bounds each pass at a few dozen
#: move evaluations per group.
MAX_POOL_KEYS = 24

#: A pass also ends after this many consecutive moves that fail to set a
#: new best prefix — bounded downhill exploration instead of walking
#: every locked candidate to the bottom.
MAX_DOWNHILL_MOVES = 8


def isegen_select(
    profile: ProgramProfile,
    n_pfus: int | None,
    params: "SelectionParams | None" = None,
    *,
    analysis: ProgramAnalysis | None = None,
) -> Selection:
    """Run ISEGEN iterative improvement for an ``n_pfus``-PFU machine.

    ``params`` carries the shared extraction/threshold tunables plus the
    isegen knobs (``reconfig_latency``, ``max_passes``,
    ``stall_passes``); defaults apply when omitted.  ``analysis``:
    ``profile``'s, under that extraction (default: fresh), shared with
    the selective seed.
    """
    from repro.extinst.params import SelectionParams

    if params is None:
        params = SelectionParams(algorithm=ISEGEN, select_pfus=n_pfus)
    latency = max(0, params.reconfig_latency)
    analysis = analysis or ProgramAnalysis(profile, params.extraction)

    # ------------------------------------------------------------------
    # candidate space: every maximal sequence (no gain threshold — the
    # search itself decides what pays), grouped by top-level loop.
    sequences = analysis.sequences
    groups: dict[int | None, list[CandidateSequence]] = {}
    for seq in sequences:
        groups.setdefault(seq.outer_loop_header, []).append(seq)
    headers = list(groups)

    # ------------------------------------------------------------------
    # seed from selective (its per-group budgets make every seed group a
    # legal state); the seed keys are the configurations its sites use.
    seed_selection = selective_select(
        profile, n_pfus, params, analysis=analysis
    )
    state: dict[int | None, set[tuple]] = {header: set() for header in headers}
    for site in seed_selection.sites:
        loop = profile.outermost_loop_of(site.root)
        header = loop.header if loop else None
        if header in state:
            state[header].add(seed_selection.ext_defs[site.conf].key)

    pool = _candidate_pools(analysis, groups, state)

    # ------------------------------------------------------------------
    # group scoring: fold gain minus a cold reconfiguration per distinct
    # configuration the folds use, memoised by (group, chosen-set).
    @cache
    def eval_group(
        header: int | None, chosen: frozenset
    ) -> tuple[int, frozenset]:
        """(fold gain, used keys) of folding ``header`` with ``chosen``."""
        total = 0
        used: set[tuple] = set()
        for seq in groups[header]:
            execs = max(1, seq.exec_count)
            for occ in analysis.fold(seq, chosen):
                total += execs * occ.gain
                used.add(occ.key)
        return total, frozenset(used)

    def group_score(header: int | None, chosen: frozenset) -> int:
        gain, used = eval_group(header, chosen)
        return gain - latency * len(used)

    def objective(current: dict[int | None, set[tuple]]) -> int:
        return sum(group_score(h, frozenset(current[h])) for h in headers)

    def prune(current: dict[int | None, set[tuple]]) -> None:
        """Drop chosen keys the folds never use (cost-free, frees budget)."""
        for h in headers:
            _, used = eval_group(h, frozenset(current[h]))
            current[h] = set(used)

    prune(state)
    seed_objective = objective(state)

    # ------------------------------------------------------------------
    # Kernighan-Lin passes
    passes = stalls = total_moves = 0
    while passes < params.max_passes and stalls < params.stall_passes:
        passes += 1
        gain, prefix = _run_pass(
            state, headers, pool, n_pfus, group_score
        )
        if gain > 0:
            for header, key, kind in prefix:
                if kind == "add":
                    state[header].add(key)
                else:
                    state[header].discard(key)
            total_moves += len(prefix)
            prune(state)
            stalls = 0
        else:
            stalls += 1

    final_objective = objective(state)

    # ------------------------------------------------------------------
    # materialise, then keep whichever of {improved, seed} the shared
    # estimator prefers (folding *all* sequences can differ from the
    # seed's thresholded folds, so the guarantee is enforced, not
    # assumed; ties go to the improved state).
    meta = {
        "n_maximal_sequences": len(sequences),
        "n_groups": len(headers),
        "n_pfus": n_pfus,
        "reconfig_latency": latency,
        "passes": passes,
        "moves_committed": total_moves,
        "seed_objective": seed_objective,
        "final_objective": final_objective,
    }
    selection = fold_groups(analysis, groups, state, ISEGEN, meta)
    improved = estimate_cycles_saved(profile, selection, n_pfus, latency)
    seed_est = estimate_cycles_saved(
        profile, seed_selection, n_pfus, latency
    )
    if seed_est.saved > improved.saved:
        meta["fell_back_to_seed"] = True
        meta["estimated_cycles_saved"] = seed_est.saved
        selection = Selection(
            ext_defs=seed_selection.ext_defs, sites=seed_selection.sites,
            algorithm=ISEGEN, meta=meta,
        )
    else:
        meta["estimated_cycles_saved"] = improved.saved

    record_selection(
        profile, selection, considered=sum(len(pool[h]) for h in headers),
        passes=passes, moves=total_moves,
        objective=meta["estimated_cycles_saved"],
    )
    return selection


def _candidate_pools(
    analysis: ProgramAnalysis,
    groups: dict[int | None, list[CandidateSequence]],
    state: dict[int | None, set[tuple]],
) -> dict[int | None, list[tuple]]:
    """Ranked toggle candidates per group.

    Keys are ranked by an upper bound on their payoff (disjoint
    embeddings x execution count x per-execution gain), larger patterns
    first on ties, then a total ``repr`` order so the ranking — and with
    it every move tie-break — is deterministic.  The pool is capped at
    :data:`MAX_POOL_KEYS`; seed keys always join so every drop move
    stays available.
    """
    pools: dict[int | None, list[tuple]] = {}
    for header, seqs_g in groups.items():
        weight: dict[tuple, int] = {}
        size: dict[tuple, int] = {}
        for seq in seqs_g:
            execs = max(1, seq.exec_count)
            for key, occs in analysis.subsequences(seq).items():
                payoff = claim_disjoint(occs, set()) * execs * occs[0].gain
                weight[key] = weight.get(key, 0) + payoff
                size[key] = len(occs[0].build.extdef.nodes)
        ranked = sorted(
            weight, key=lambda k: (-weight[k], -size[k], repr(k))
        )
        pool = ranked[:MAX_POOL_KEYS]
        seen = set(pool)
        for key in sorted(state[header] - seen, key=repr):
            pool.append(key)
        pools[header] = pool
    return pools


def _run_pass(
    state: dict[int | None, set[tuple]],
    headers: list[int | None],
    pool: dict[int | None, list[tuple]],
    n_pfus: int | None,
    group_score,
) -> tuple[int, list[tuple]]:
    """One KL pass: chain best moves with locking, return the best
    strictly-improving prefix and its cumulative gain.

    Works on a scratch copy of ``state``; the caller commits the prefix.
    Move legality: a chosen key may be dropped, an unchosen key may be
    added while the group is under its PFU budget — so when a group is
    full, the only way in is a drop first (the KL swap).  Ties on delta
    resolve to the earliest move in the fixed (group, rank) iteration
    order.
    """
    work = {h: set(state[h]) for h in headers}
    locked: set[tuple] = set()
    trail: list[tuple] = []
    cum = best_cum = 0
    best_len = 0

    while True:
        best_delta = None
        best_move = None
        for header in headers:
            chosen = frozenset(work[header])
            score_now = group_score(header, chosen)
            under_budget = n_pfus is None or len(chosen) < n_pfus
            for key in pool[header]:
                if (header, key) in locked:
                    continue
                if key in chosen:
                    kind, changed = "drop", chosen - {key}
                elif under_budget:
                    kind, changed = "add", chosen | {key}
                else:
                    continue
                delta = group_score(header, changed) - score_now
                if best_delta is None or delta > best_delta:
                    best_delta, best_move = delta, (header, key, kind)
        if best_move is None:
            break
        header, key, kind = best_move
        if kind == "add":
            work[header].add(key)
        else:
            work[header].discard(key)
        locked.add((header, key))
        cum += best_delta
        trail.append(best_move)
        if cum > best_cum:
            best_cum, best_len = cum, len(trail)
        elif len(trail) - best_len >= MAX_DOWNHILL_MOVES:
            break
    return best_cum, trail[:best_len]


__all__ = ["isegen_select", "MAX_POOL_KEYS"]
