"""Sharded parallel trace replay with exact stat stitching.

The timing model's replay of a :class:`~repro.sim.trace.DynTrace` is a
serial scan, so a single long trace bounds every downstream workflow
(engine sweeps, served simulate batches, selection tuning) to one core.
This module time-slices a trace into K windows and replays the windows
concurrently across processes, reusing the engine scheduler's
process-pool plumbing, while keeping the paper contract intact:
**merged statistics are byte-identical to the serial replay, or the run
falls back to serial**.

How it works
------------

1. **Boundary pass (serial, cheap).** With perfect branch prediction the
   memory system and the fetch schedule have no feedback from the
   out-of-order core, so one pass over the index/address stream — the
   same pre-pass (:mod:`repro.sim.ooo.prepass`) the fast path caches
   on the trace — yields every instruction's absolute fetch cycle and
   load latency, the fetch-stall total, and the final cache/TLB
   statistics.  The PFU bank's *contents* (which configurations are
   loaded where, and their LRU order) are likewise a pure function of
   the ``conf`` sequence, so the pass also snapshots the bank at each
   slice's warmup start.  No OoO machinery runs here.

2. **Parallel slice replay.** Each slice replays
   ``[warmup_start, end)`` with the shard variant of the compiled fast
   loop: absolute fetch cycles and load latencies are handed in, the
   PFU bank is seeded with the boundary-pass contents, and the core
   state (RUU commit ring, register/store readiness, dispatch/commit
   bookkeeping) starts cold and converges over the warmup window, whose
   stats are discarded.  Slice 0 has no warmup — it starts from the
   true initial state, so its replay *is* the serial replay's prefix.

3. **Exactness check + stitch.** Every slice returns a *normalized*
   core-state snapshot at both its kept-region entry (post-warmup) and
   its exit.  Normalization clamps values that can no longer influence
   the future (e.g. register-ready cycles at or below the dispatch
   front) and projects the stamped resource rings onto live
   ``{cycle: count}`` maps, making snapshots horizon-independent.  By
   induction, if slice p's exit snapshot equals slice p+1's post-warmup
   snapshot at every boundary, each kept region evolved exactly as the
   serial replay would have — so the stitched stats (final slice's
   absolute commit cycle, summed kept-region PFU/stall deltas, the
   boundary pass's cache totals) are byte-identical to serial.

4. **Checkpoint-seeded repair.** Warmup convergence needs the dispatch
   front to re-anchor to the (absolute) fetch schedule somewhere inside
   the warmup window.  A machine that runs RUU-gated above the fetch
   schedule for long stretches — e.g. a reconfiguration-heavy run whose
   config stalls accumulate a permanent backlog — never re-anchors, and
   its boundaries mismatch.  Each such slice is re-run seeded with the
   *exact* exit checkpoint of its verified-exact predecessor (full core
   state, live resource-ring maps, PFU bank timing), which is exact by
   construction; repairs walk the chain left to right so every seed is
   itself verified.  Converged boundaries keep their parallel results,
   so only the misbehaving stretch of the trace pays serial cost.  An
   ineligible configuration (bimodal predictor, fast path disabled) or
   a horizon overflow at the cap still triggers the plain serial
   fallback; either way the caller never sees a non-serial result.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.obs import WALL, get_recorder
from repro.program.program import Program
from repro.sim.ooo.config import MachineConfig
from repro.sim.ooo.pfu import PFUBank
from repro.sim.ooo.pipeline import (
    _C_EXT,
    _C_LOAD,
    _C_MUL,
    _C_DIV,
    _C_STORE,
    _CLASS_NAMES,
    _MAX_HORIZON,
    OoOSimulator,
    _fast_loop,
)
from repro.sim.ooo.prepass import Prepass
from repro.sim.ooo.stats import SimStats
from repro.sim.trace import ColumnView, DynTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.extdef import ExtInstDef

__all__ = ["ShardPlan", "plan_slices", "simulate_sharded",
           "simulate_many_sharded"]

#: Warmup-overlap window (dynamic instructions) replayed before each
#: slice's kept region and discarded. Far above the RUU window plus any
#: reconfiguration latency, so the cold-started core state converges to
#: the serial state well before the kept region begins (verified, not
#: assumed: the boundary snapshots must match exactly).
DEFAULT_WARMUP = 4096

#: Minimum kept-region length per slice when the slice count is derived
#: from ``jobs``: below this, warmup overhead and process fan-out cost
#: more than the parallelism wins, so the plan degrades to fewer slices
#: (ultimately serial). Explicit ``slices=`` overrides (tests, fuzz).
MIN_KEPT = 16384

# per-trace caches (underscore attributes, excluded from pickling by
# DynTrace.__getstate__, keyed so a different program/config recomputes)
_FCYC_ATTR = "_shard_fcyc_cache"
_EXT_ATTR = "_shard_ext_cache"
_BANK_ATTR = "_shard_bank_cache"
_COUNT_ATTR = "_shard_class_counts"

_STALL_NAMES = (
    "fetch.icache", "dispatch.ruu_full", "dispatch.width",
    "issue.operands", "issue.store_dep", "issue.pfu_config",
    "issue.div_busy", "issue.structural", "commit.width",
)


@dataclass(frozen=True)
class ShardPlan:
    """Slice layout: ``boundaries[p] .. boundaries[p+1]`` is slice p's
    kept region; every slice but the first replays ``warmup`` extra
    instructions before its kept region and discards their stats."""

    boundaries: tuple[int, ...]
    warmup: int

    @property
    def n_slices(self) -> int:
        return len(self.boundaries) - 1

    def warm_start(self, p: int) -> int:
        if p == 0:
            return 0
        return max(0, self.boundaries[p] - self.warmup)

    @property
    def warmup_instructions(self) -> int:
        return sum(
            self.boundaries[p] - self.warm_start(p)
            for p in range(1, self.n_slices)
        )


def plan_slices(
    n: int,
    jobs: int,
    slices: int | None = None,
    warmup: int | None = None,
    min_kept: int = MIN_KEPT,
) -> ShardPlan | None:
    """Slice layout for an ``n``-instruction trace, or None when sharding
    cannot pay off (short trace, single job).

    ``slices`` defaults to ``jobs``, shrunk until every kept region has
    at least ``min_kept`` instructions; passing ``slices`` explicitly
    bypasses the minimum (test/fuzz hook). ``warmup`` defaults to
    :data:`DEFAULT_WARMUP`.
    """
    if warmup is None:
        warmup = DEFAULT_WARMUP
    if warmup < 0:
        warmup = 0
    if slices is None:
        slices = max(1, jobs)
        while slices > 1 and n // slices < min_kept:
            slices -= 1
    if slices <= 1 or n < slices:
        return None
    boundaries = tuple((p * n) // slices for p in range(slices + 1))
    if any(boundaries[p + 1] <= boundaries[p] for p in range(slices)):
        return None
    return ShardPlan(boundaries=boundaries, warmup=warmup)


# ----------------------------------------------------------------------
# boundary pass: per-slice seed state from the index/address stream


def _fcyc_array(trace: DynTrace, pre: Prepass):
    """The pre-pass's absolute fetch cycles as a sliceable array (cached
    on the trace next to the pre-pass it was converted from)."""
    cached = getattr(trace, _FCYC_ATTR, None)
    if cached is not None and cached[0] is pre:
        return cached[1]
    fcyc = array("q", pre.fcyc)
    setattr(trace, _FCYC_ATTR, (pre, fcyc))
    return fcyc


def _ext_sequence(sim: OoOSimulator, trace: DynTrace):
    """(dynamic index, conf) of every ext instruction, in order."""
    indices = trace.indices
    key = (id(indices), len(indices), id(sim.program.text))
    cached = getattr(trace, _EXT_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    cls_tab, conf_tab = sim._cls, sim._conf
    seq = [
        (k, conf_tab[si])
        for k, si in enumerate(indices)
        if cls_tab[si] == _C_EXT
    ]
    setattr(trace, _EXT_ATTR, (key, seq))
    return seq


def _bank_snapshot(bank: PFUBank):
    if bank.n_pfus is None:
        return ("u", tuple(sorted(bank._ready_by_conf)))
    return (
        "l",
        tuple(slot.tag for slot in bank._slots),
        tuple(bank._lru.keys()),
    )


def _bank_seeds(sim: OoOSimulator, trace: DynTrace, plan: ShardPlan):
    """PFU-bank contents at each slice's warmup start.

    Which configurations are resident (and their slot placement and LRU
    order) is a pure function of the ``conf`` sequence — eviction picks
    the first empty slot, else the LRU victim — so a zero-cycle walk
    over the ext instructions reconstructs the exact contents without
    any timing state. Slice 0 needs no seed (it starts cold, exactly
    like serial)."""
    if _C_EXT not in sim._present:
        return None
    cfg = sim.config
    indices = trace.indices
    key = (
        id(indices), len(indices), id(sim.program.text),
        cfg.n_pfus, plan.boundaries, plan.warmup,
    )
    cached = getattr(trace, _BANK_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    seq = _ext_sequence(sim, trace)
    bank = PFUBank(cfg.n_pfus, 0)
    seeds: list = [None]
    pos = 0
    for p in range(1, plan.n_slices):
        w0 = plan.warm_start(p)
        while pos < len(seq) and seq[pos][0] < w0:
            bank.acquire(seq[pos][1], 0)
            pos += 1
        seeds.append(_bank_snapshot(bank))
    setattr(trace, _BANK_ATTR, (key, seeds))
    return seeds


def _class_counts(sim: OoOSimulator, trace: DynTrace) -> list[int]:
    indices = trace.indices
    key = (id(indices), len(indices), id(sim.program.text))
    cached = getattr(trace, _COUNT_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    counts = [0] * len(_CLASS_NAMES)
    cls_tab = sim._cls
    for si, cnt in Counter(indices).items():
        counts[cls_tab[si]] += cnt
    setattr(trace, _COUNT_ATTR, (key, counts))
    return counts


def _prepare(sim: OoOSimulator, trace: DynTrace, plan: ShardPlan,
             obs_live: bool):
    """Boundary pass: slice payloads (picklable) plus the parent-side
    data the stitch step needs."""
    pre = sim._prepass(trace, get_recorder() if obs_live else None)
    fcyc = _fcyc_array(trace, pre)
    seeds = _bank_seeds(sim, trace, plan)
    counts = _class_counts(sim, trace)
    payloads = []
    ext_defs = sim.ext_defs or None
    # Zero-copy slicing: every slice's four columns are ColumnView
    # windows over the shared buffers — a million-instruction trace is
    # no longer copied once per slice.  Views materialise as plain
    # arrays only when pickled to a pool worker.
    fcyc_view = ColumnView(fcyc)
    mlat_view = ColumnView(pre.mlat)
    for p in range(plan.n_slices):
        b0, b1 = plan.boundaries[p], plan.boundaries[p + 1]
        w0 = plan.warm_start(p)
        idx_view, addr_view = trace.column_views(w0, b1)
        payloads.append({
            "program": sim.program,
            "config": sim.config,
            "ext_defs": ext_defs,
            "obs": obs_live,
            "k_stats": b0 - w0,
            "indices": idx_view,
            "addrs": addr_view,
            "fcyc": fcyc_view[w0:b1],
            "mlat": mlat_view[w0:b1],
            "bank_seed": seeds[p] if seeds else None,
        })
    aux = {
        "cache": pre.cache,
        "fetch_stall": pre.fetch_stall,
        "class_counts": counts,
    }
    return payloads, aux


# ----------------------------------------------------------------------
# slice replay (runs in worker processes; must stay module-level)


def _seed_bank(sim: OoOSimulator, seed) -> PFUBank:
    cfg = sim.config
    bank = PFUBank(
        cfg.n_pfus, cfg.reconfig_latency,
        latency_by_conf=sim._reconfig_by_conf or None,
    )
    if seed is None:
        return bank
    if seed[0] == "u":
        # unlimited mode: residency is all that matters; the original
        # load completed long before this slice's kept region
        bank._ready_by_conf = {conf: 0 for conf in seed[1]}
        return bank
    _, tags, lru_order = seed
    for idx, tag in enumerate(tags):
        if tag is not None:
            bank._slots[idx].tag = tag
            bank._slot_of[tag] = idx
    for tag in lru_order:
        bank._lru.touch(tag)
    return bank


def _bank_norm(bank: PFUBank, disp_cycle: int):
    """Bank state with timing fields clamped to their liveness bounds
    (a config-ready or last-issue cycle at or below the dispatch front
    can never influence a future acquire/issue)."""
    live = disp_cycle + 1
    if bank.n_pfus is None:
        return ("u", tuple(sorted(
            (conf, ready if ready > live else 0)
            for conf, ready in bank._ready_by_conf.items()
        )))
    slots = tuple(
        (
            slot.tag,
            slot.config_ready if slot.config_ready > live else 0,
            slot.last_issue if slot.last_issue >= disp_cycle else -1,
        )
        for slot in bank._slots
    )
    return ("l", slots, tuple(bank._lru.keys()))


def _normalize(state, ring_pairs, pfu_rings, bank: PFUBank,
               ruu: int, last_k: int):
    """Project core state at a slice boundary onto its future-observable
    part, so the post-warmup snapshot of slice p+1 can be compared
    against the exit snapshot of slice p.

    Every future probe happens at or after the dispatch front: dispatch
    cycles are non-decreasing and issue probes start one cycle later, so
    commit-ring entries below ``disp_cycle``, readiness cycles at or
    below ``disp_cycle + 1``, and resource-ring stamps at or below
    ``disp_cycle`` are dead and clamp to a canonical value. The stamped
    rings export as sorted live ``(cycle, count)`` maps, which also
    makes the snapshot independent of the ring horizon (slices may
    retry overflow with larger rings locally). The commit ring exports
    in age order — ``last_k`` is the local index of the last replayed
    instruction — so slices with different local offsets compare the
    same ``ruu`` most recent commit cycles."""
    (disp_cycle, disp_n, ring, reg_ready, store_ready,
     div_free, commit_cycle, commit_n) = state
    live = disp_cycle + 1
    ages = tuple(
        v if v >= disp_cycle else 0
        for v in (ring[(last_k - i) % ruu] for i in range(ruu))
    )
    regs = tuple(v if v > live else 0 for v in reg_ready)
    stores = (
        tuple(sorted(
            (addr, v) for addr, v in store_ready.items() if v > live
        ))
        if store_ready else ()
    )
    res = tuple(
        None if stamps is None else tuple(sorted(
            (st, ct) for st, ct in zip(stamps, counts)
            if ct and st > disp_cycle
        ))
        for stamps, counts in ring_pairs
    )
    pfu = tuple(
        tuple(sorted(st for st in ps if st > disp_cycle))
        for ps in pfu_rings
    )
    return (
        disp_cycle, disp_n, commit_cycle, commit_n, ages, regs, stores,
        div_free if div_free > live else 0, res, pfu,
        _bank_norm(bank, disp_cycle),
    )


def _export_exact(state, ring_pairs, pfu_rings, bank: PFUBank,
                  ruu: int, last_k: int, horizon: int):
    """Exact exit checkpoint: the full core state plus the live part of
    every stamped ring, sufficient to seed a successor slice with no
    warmup at all.  Dead ring slots (stamp at or below the dispatch
    front) are dropped — they are unreachable by any future probe — so
    the checkpoint stays horizon-independent and small."""
    (disp_cycle, disp_n, ring, reg_ready, store_ready,
     div_free, commit_cycle, commit_n) = state
    live = disp_cycle + 1
    return {
        # commit ring in age order (newest first), unclamped
        "core": (
            disp_cycle, disp_n,
            [ring[(last_k - i) % ruu] for i in range(ruu)],
            list(reg_ready),
            {a: v for a, v in store_ready.items() if v > live},
            div_free, commit_cycle, commit_n,
        ),
        "rings": tuple(
            None if stamps is None else {
                st: ct for st, ct in zip(stamps, counts)
                if ct and st > disp_cycle
            }
            for stamps, counts in ring_pairs
        ),
        "pfu_rings": tuple(
            [st for st in ps if st > disp_cycle] for ps in pfu_rings
        ),
        "bank": (
            ("u", tuple(bank._ready_by_conf.items()))
            if bank.n_pfus is None else
            ("l",
             tuple((s.tag, s.config_ready, s.last_issue)
                   for s in bank._slots),
             tuple(bank._lru.keys()))
        ),
        "horizon": horizon,
    }


def _seed_bank_exact(sim: OoOSimulator, snap) -> PFUBank:
    cfg = sim.config
    bank = PFUBank(
        cfg.n_pfus, cfg.reconfig_latency,
        latency_by_conf=sim._reconfig_by_conf or None,
    )
    if snap[0] == "u":
        bank._ready_by_conf = dict(snap[1])
        return bank
    _, slots, lru_order = snap
    for idx, (tag, config_ready, last_issue) in enumerate(slots):
        slot = bank._slots[idx]
        slot.config_ready = config_ready
        slot.last_issue = last_issue
        if tag is not None:
            slot.tag = tag
            bank._slot_of[tag] = idx
    for tag in lru_order:
        bank._lru.touch(tag)
    return bank


def _attempt_slice(sim: OoOSimulator, loop, per_k, indices, addrs, fcyc,
                   mlat, k_stats, bank_seed, horizon, obs_live,
                   has_mul, has_div, has_mem, has_ext, multi,
                   exact_seed=None):
    """One horizon attempt. Normally: warmup segment then kept segment,
    with state continuity between them. With ``exact_seed`` (a repair
    re-run): the warmup segment is skipped and everything — core state,
    resource rings, PFU bank timing — is restored from the predecessor
    slice's exit checkpoint. Returns None on horizon overflow."""
    cfg = sim.config
    ruu = cfg.ruu_size
    mask = horizon - 1
    if exact_seed is None:
        bank = _seed_bank(sim, bank_seed)
    else:
        bank = _seed_bank_exact(sim, exact_seed["bank"])
    iss_s = [0] * horizon
    iss_c = [0] * horizon
    alu_s = alu_c = mul_s = mul_c = mem_s = mem_c = None
    if multi:
        alu_s = [0] * horizon
        alu_c = [0] * horizon
    if has_mul or has_div:
        mul_s = [0] * horizon
        mul_c = [0] * horizon
    if has_mem:
        mem_s = [0] * horizon
        mem_c = [0] * horizon
    pfu_s = (
        [[0] * horizon for _ in range(cfg.n_pfus)]
        if has_ext and cfg.n_pfus else None
    )
    tail = (
        sim._conf, cfg.decode_width, cfg.issue_width, cfg.commit_width,
        cfg.ruu_size, cfg.n_ialu, cfg.n_imult, cfg.n_memports,
        horizon, bank, iss_s, iss_c, alu_s, alu_c, mul_s, mul_c,
        mem_s, mem_c, pfu_s, 0, -1, None,
    )
    ring_pairs = ((iss_s, iss_c), (alu_s, alu_c),
                  (mul_s, mul_c), (mem_s, mem_c))
    pfu_rings = pfu_s or ()

    def seg(lo, hi, st):
        return loop(per_k[lo:hi], indices[lo:hi], addrs[lo:hi],
                    fcyc[lo:hi], mlat[lo:hi], *tail, st)

    w = k_stats
    if exact_seed is not None:
        # restore the live ring entries; the checkpoint's horizon bounds
        # the live span, so with horizon >= checkpoint horizon no two
        # live stamps collide in the same slot
        for snap, pair in zip(exact_seed["rings"], ring_pairs):
            if snap:
                stamps, counts = pair
                for st, ct in snap.items():
                    i = st & mask
                    stamps[i] = st
                    counts[i] = ct
        for snap, ps in zip(exact_seed["pfu_rings"], pfu_rings):
            for st in snap:
                ps[st & mask] = st
        core = exact_seed["core"]
        ages = core[2]
        # local slot j is read by local instruction j, which needs the
        # commit cycle of the instruction ruu back: global b_p + j - ruu
        # = the (ruu - 1 - j)-th newest committed instruction
        ring_b = [ages[ruu - 1 - j] for j in range(ruu)]
        seed_b = (core[0], core[1], ring_b, list(core[3]),
                  dict(core[4]), core[5], core[6], core[7])
        warm_commit = core[6]
        warm_snap = None
    else:
        seed = (1, 0, [0] * ruu, [0] * 32, {}, 0, 1, 0)
        warm_commit = 1
        if w:
            out_a = seg(0, w, seed)
            if out_a is None:
                return None
            warm_commit = out_a[0]
            state_a = out_a[4]
        else:
            state_a = seed
        warm_snap = _normalize(state_a, ring_pairs, pfu_rings, bank,
                               ruu, w - 1)
        # The kept segment indexes the commit ring by its own local k;
        # its slot j must hold the commit cycle of the instruction ruu
        # entries back, which the warmup stored at slot (j + w) % ruu.
        ring_a = state_a[2]
        if w % ruu:
            ring_b = [ring_a[(j + w) % ruu] for j in range(ruu)]
        else:
            ring_b = ring_a
        seed_b = (state_a[0], state_a[1], ring_b, state_a[3], state_a[4],
                  state_a[5], state_a[6], state_a[7])
    mid = (bank.hits, bank.misses, bank.reconfig_cycles)
    out_b = seg(w, len(per_k), seed_b)
    if out_b is None:
        return None
    commit_cycle, stalls, widths, reconfigs, state_b = out_b
    kept = len(per_k) - w
    exit_snap = _normalize(state_b, ring_pairs, pfu_rings, bank, ruu,
                           kept - 1)
    return {
        "warm_snap": warm_snap,
        "exit_snap": exit_snap,
        "exit_exact": _export_exact(state_b, ring_pairs, pfu_rings, bank,
                                    ruu, kept - 1, horizon),
        "warm_commit": warm_commit,
        "commit_cycle": commit_cycle,
        "stalls": stalls,
        "pfu": (bank.hits - mid[0], bank.misses - mid[1],
                bank.reconfig_cycles - mid[2]),
        "issue_widths": list(widths) if widths else [],
        "residual_widths": [ct for ct in iss_c if ct] if obs_live else [],
        "reconfigs": list(reconfigs) if reconfigs else [],
        "horizon": horizon,
    }


def _column_data(column):
    """The raw sliceable buffer behind a payload column: the
    ``memoryview`` inside a :class:`ColumnView` (inline replay — index
    access and re-slicing at C speed, still zero-copy) or the plain
    array a pool worker unpickled."""
    return column.raw if isinstance(column, ColumnView) else column


def _replay_slice(payload: dict) -> dict:
    """Module-level slice runner (picklable for the process pool)."""
    sim = OoOSimulator(
        payload["program"], payload["config"],
        ext_defs=payload["ext_defs"],
    )
    indices = _column_data(payload["indices"])
    per_k = list(map(sim._static_tab.__getitem__, indices))
    present = sim._present
    has_mul = _C_MUL in present
    has_div = _C_DIV in present
    has_mem = _C_LOAD in present or _C_STORE in present
    has_ext = _C_EXT in present
    multi = has_mul or has_div or has_mem or has_ext
    obs_live = payload["obs"]
    exact_seed = payload.get("exact_seed")
    loop = _fast_loop(has_mul, has_div, has_mem, has_ext,
                      obs_live, False, shard=True)
    horizon = sim._initial_horizon()
    if exact_seed is not None:
        horizon = max(horizon, exact_seed["horizon"])
    while horizon <= _MAX_HORIZON:
        out = _attempt_slice(
            sim, loop, per_k, indices,
            _column_data(payload["addrs"]), _column_data(payload["fcyc"]),
            _column_data(payload["mlat"]),
            payload["k_stats"], payload["bank_seed"],
            horizon, obs_live, has_mul, has_div, has_mem, has_ext, multi,
            exact_seed=exact_seed,
        )
        if out is not None:
            return out
        horizon *= 8
    return {"fallback": "horizon_overflow"}


# ----------------------------------------------------------------------
# stitch + drivers


def _verify_and_repair(sim: OoOSimulator, payloads: list[dict],
                       outs: list[dict]) -> int | None:
    """Walk the boundary chain left to right; every slice whose
    post-warmup snapshot mismatches its (verified-exact) predecessor's
    exit snapshot is re-run in place, seeded with the predecessor's
    exact exit checkpoint — exact by construction, so the walk's
    invariant (every slice up to p is exact) is restored and the chain
    continues. Returns the number of repaired slices, or None if a
    repair itself failed (horizon overflow at the cap)."""
    repaired = 0
    for p in range(len(outs) - 1):
        if outs[p]["exit_snap"] == outs[p + 1]["warm_snap"]:
            continue
        redo = _replay_slice({
            **payloads[p + 1], "exact_seed": outs[p]["exit_exact"],
        })
        if "fallback" in redo:
            return None
        outs[p + 1] = redo
        repaired += 1
    return repaired


def _stitch(sim: OoOSimulator, n: int, outs: list[dict], aux: dict,
            obs) -> SimStats:
    """Merge the verified per-slice results into one ``SimStats``."""
    counts = aux["class_counts"]
    stats = SimStats()
    stats.cycles = outs[-1]["commit_cycle"]
    stats.instructions = n
    stats.ext_instructions = counts[_C_EXT]
    stats.pfu_hits = sum(o["pfu"][0] for o in outs)
    stats.pfu_misses = sum(o["pfu"][1] for o in outs)
    stats.reconfig_cycles = sum(o["pfu"][2] for o in outs)
    stats.class_counts = {
        name: counts[i] for i, name in enumerate(_CLASS_NAMES)
    }
    stats.cache = {
        level: st.copy() for level, st in aux["cache"].items()
    }
    if obs is not None:
        totals = [sum(o["stalls"][j] for o in outs) for j in range(8)]
        stats.stall_cycles = {
            reason: cycles
            for reason, cycles in zip(
                _STALL_NAMES, (aux["fetch_stall"], *totals)
            )
            if cycles
        }
    return stats


def _publish_shard(sim: OoOSimulator, obs, plan: ShardPlan, n: int,
                   outs: list[dict], stats: SimStats,
                   stitch_seconds: float, wall_start: float,
                   repaired: int) -> None:
    """Shard-run observability: the standard simulation metrics plus
    shard-specific counters, stitch-overhead/warmup histograms, and one
    simulated-cycles span per slice's kept region."""
    if obs is None:
        return
    prog = sim.program.name
    widths: list[int] = []
    reconfigs: list = []
    for o in outs:
        widths.extend(o["issue_widths"])
        reconfigs.extend(o["reconfigs"])
    # serial runs flush the residual in-flight issue-width ring once at
    # the end; the last slice's residual is the closest equivalent
    widths.extend(outs[-1]["residual_widths"])
    sim._publish(obs, stats, widths, reconfigs)
    obs.counter("sim.shard.runs", program=prog).inc()
    obs.counter("sim.shard.slices", program=prog).inc(plan.n_slices)
    if repaired:
        obs.counter("sim.shard.repairs", program=prog).inc(repaired)
    obs.histogram("sim.shard.stitch.ms", program=prog).observe(
        stitch_seconds * 1000.0
    )
    if n:
        obs.histogram("sim.shard.warmup.frac", program=prog).observe(
            plan.warmup_instructions / n
        )
    for p, o in enumerate(outs):
        obs.add_span(
            "sim.shard.slice", o["warm_commit"], o["commit_cycle"],
            track="shard", slice=p, program=prog,
        )
    obs.add_span(
        "sim.timing", wall_start - obs.epoch,
        time.perf_counter() - obs.epoch, clock=WALL, track="main",
        program=prog, instructions=stats.instructions,
        cycles=stats.cycles, sharded=True, slices=plan.n_slices,
    )


def _plan_for(sim: OoOSimulator, n: int, jobs: int,
              slices: int | None, warmup: int | None) -> ShardPlan | None:
    """Sharding eligibility mirrors the fast path's: perfect prediction
    and the fast loop enabled (the boundary pre-pass needs both), and
    a plan whose parallelism can pay off (or explicit ``slices``)."""
    if not sim._fast_eligible():
        return None
    if slices is None and jobs <= 1:
        return None
    return plan_slices(n, jobs, slices=slices, warmup=warmup)


def simulate_many_sharded(
    program: Program,
    trace: DynTrace,
    configs,
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    *,
    jobs: int = 1,
    slices: int | None = None,
    warmup: int | None = None,
) -> list[SimStats]:
    """Replay one trace under many configurations, fanning every
    (configuration, slice) pair into a single scheduler run.

    Results are byte-identical to serial :func:`simulate_many` —
    ineligible configurations, too-short traces, and any slice whose
    boundary check fails run serially instead (per configuration).
    """
    from repro.engine.scheduler import Job, JobGraph, Scheduler

    rec = get_recorder()
    obs = rec if rec.enabled else None
    sims = [
        OoOSimulator(program, cfg, ext_defs=ext_defs) for cfg in configs
    ]
    n = len(trace)
    graph = JobGraph()
    prepared: dict[int, tuple] = {}
    wall_start = time.perf_counter()
    for ci, sim in enumerate(sims):
        plan = _plan_for(sim, n, jobs, slices, warmup)
        if plan is None:
            continue
        t0 = time.perf_counter()
        payloads, aux = _prepare(sim, trace, plan, obs is not None)
        prepared[ci] = (plan, payloads, aux, time.perf_counter() - t0)
        for p, payload in enumerate(payloads):
            graph.add(Job(
                job_id=f"shard:{ci}:{p}", kind="sim.shard",
                payload=payload,
            ))

    results_by_job: dict = {}
    if len(graph):
        scheduler = Scheduler(jobs=max(1, jobs))
        results_by_job = scheduler.run(graph, _replay_slice)

    out: list[SimStats] = []
    for ci, sim in enumerate(sims):
        entry = prepared.get(ci)
        if entry is not None:
            plan, payloads, aux, prep_seconds = entry
            slice_outs: list[dict] = []
            reason = None
            for p in range(len(payloads)):
                result = results_by_job.get(f"shard:{ci}:{p}")
                if result is None or not result.ok:
                    reason = "job_failed"
                    break
                if "fallback" in result.value:
                    reason = result.value["fallback"]
                    break
                slice_outs.append(result.value)
            stats = None
            repaired = 0
            if reason is None:
                t0 = time.perf_counter()
                repaired = _verify_and_repair(sim, payloads, slice_outs)
                if repaired is None:
                    reason = "repair_overflow"
                else:
                    stats = _stitch(sim, n, slice_outs, aux, obs)
                stitch_seconds = prep_seconds + time.perf_counter() - t0
            if stats is not None:
                _publish_shard(sim, obs, plan, n, slice_outs, stats,
                               stitch_seconds, wall_start, repaired)
                out.append(stats)
                continue
            if obs is not None:
                obs.counter(
                    "sim.shard.fallback",
                    program=sim.program.name, reason=reason,
                ).inc()
        out.append(sim.simulate(trace))
    return out


def simulate_sharded(
    program: Program,
    trace: DynTrace,
    config: MachineConfig | None = None,
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    *,
    jobs: int = 1,
    slices: int | None = None,
    warmup: int | None = None,
    record_window: tuple[int, int] | None = None,
) -> SimStats:
    """Sharded replay of one trace under one configuration.

    Byte-identical to ``OoOSimulator(...).simulate(trace)``; serial
    execution is used whenever sharding is ineligible (timeline
    recording, bimodal prediction, fast path disabled, short trace) or
    the exactness check fails.
    """
    if record_window is not None:
        return OoOSimulator(program, config, ext_defs=ext_defs).simulate(
            trace, record_window
        )
    return simulate_many_sharded(
        program, trace, [config], ext_defs=ext_defs,
        jobs=jobs, slices=slices, warmup=warmup,
    )[0]
