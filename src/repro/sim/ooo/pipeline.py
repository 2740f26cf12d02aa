"""The trace-driven out-of-order pipeline model.

For each dynamic instruction the model computes fetch, dispatch, issue,
completion and commit cycles subject to:

- **fetch**: ``fetch_width`` per cycle, stalling on I-cache misses, and
  breaking the fetch group after a taken control transfer (perfect branch
  prediction: no misfetch penalty, but no same-cycle fetch across a taken
  branch);
- **dispatch**: in-order, ``decode_width`` per cycle, requires a free RUU
  entry (entries are freed at commit, window = ``ruu_size``); ``ext``
  instructions perform the PFU tag check here (§2.2) and trigger
  reconfiguration on a miss;
- **issue**: out-of-order wake-up when all source operands are ready,
  bounded by ``issue_width`` and functional-unit availability (ALUs,
  pipelined multiplier, unpipelined divider, memory ports, PFUs — one op
  per PFU per cycle); loads also wait for older stores to the same word
  (perfect memory disambiguation with store-to-load forwarding);
- **complete**: issue + latency (loads consult the cache hierarchy);
  dependents wake via full bypassing;
- **commit**: in-order, ``commit_width`` per cycle.

The simulated time is the commit cycle of the last instruction.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from contextlib import nullcontext
from math import ceil
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import SimulationError
from repro.isa.encoding import TEXT_BASE
from repro.obs import get_recorder
from repro.isa.opcodes import OpClass, Opcode
from repro.program.program import Program
from repro.sim.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.sim.ooo.branchpred import BimodalPredictor, is_conditional
from repro.sim.ooo import native, parallel
from repro.sim.ooo.config import MachineConfig
from repro.sim.ooo.pfu import PFUBank
from repro.sim.ooo.prepass import (
    EV_CTRL, EV_LOAD, EV_NONE, EV_STORE, LEVELS, Prepass,
)
from repro.sim.ooo.stats import SimStats
from repro.sim.trace import DynTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.extdef import ExtInstDef

# internal instruction classes
_C_ALU = 0
_C_MUL = 1
_C_DIV = 2
_C_LOAD = 3
_C_STORE = 4
_C_CTRL = 5
_C_NOP = 6
_C_EXT = 7

_CLASS_OF = {
    OpClass.ALU: _C_ALU,
    OpClass.MUL: _C_MUL,
    OpClass.DIV: _C_DIV,
    OpClass.LOAD: _C_LOAD,
    OpClass.STORE: _C_STORE,
    OpClass.BRANCH: _C_CTRL,
    OpClass.JUMP: _C_CTRL,
    OpClass.NOP: _C_NOP,
    OpClass.HALT: _C_NOP,
    OpClass.EXT: _C_EXT,
}

_CLASS_NAMES = ["alu", "mul", "div", "load", "store", "ctrl", "nop", "ext"]

#: Ring-buffer horizon cap for the replay kernel (slots, power of two).
#: A run whose issue cycle ever drifts this far past dispatch falls back
#: to the reference loop rather than growing the rings further.
_MAX_HORIZON = 1 << 20

#: Pre-pass event kind of each instruction class.
_EVENT_OF = {_C_LOAD: EV_LOAD, _C_STORE: EV_STORE, _C_CTRL: EV_CTRL}

#: Attribute under which the fetch/cache pre-pass is cached on the
#: DynTrace instance (one slot, keyed by :func:`_prepass_key`).
_PREPASS_ATTR = "_prepass_cache"

#: Attribute caching the native replay kernel's static table on the
#: DynTrace (keyed by the program text and the ext latencies).
_NATIVE_TAB_ATTR = "_native_tab_cache"

#: Stall reasons, in the order both replay paths report them.
_STALL_REASONS = (
    "fetch.icache", "dispatch.ruu_full", "dispatch.width", "issue.operands",
    "issue.store_dep", "issue.pfu_config", "issue.div_busy",
    "issue.structural", "commit.width",
)


#: Attribute caching :func:`_decode`'s tables on the Program instance
#: (process-local: ``Program.__getstate__`` drops underscore attributes).
_DECODE_ATTR = "_ooo_decode_cache"


def _decode(program: Program) -> tuple:
    """Per static instruction: class, non-zero sources, destination
    (0 for none), latency (ext: 0, set per simulator), configuration id
    (-1 for none) and control kind (0 none, 1 conditional, 2 call,
    3 return). Decoding costs ~8 us per instruction, which a machine
    grid would otherwise pay once per configuration, so the tables are
    cached on the program, valid while its text is the same list."""
    text = program.text
    cached = program.__dict__.get(_DECODE_ATTR)
    if cached is not None and cached[0] is text:
        return cached[1]
    cls_tab, srcs, dst, lat, conf, ctrl = [], [], [], [], [], []
    for instr in text:
        cls = _CLASS_OF[instr.op_class]
        cls_tab.append(cls)
        srcs.append(tuple(r for r in instr.uses() if r != 0))
        defs = instr.defs()
        dst.append(defs[0] if defs and defs[0] != 0 else 0)
        lat.append(0 if cls == _C_EXT else instr.info.latency)
        conf.append(instr.conf if instr.conf is not None else -1)
        if is_conditional(instr.op):
            ctrl.append(1)
        elif instr.op in (Opcode.JAL, Opcode.JALR):
            ctrl.append(2)
        elif instr.op is Opcode.JR:
            ctrl.append(3)
        else:
            ctrl.append(0)
    tables = (cls_tab, srcs, dst, lat, conf, ctrl)
    program.__dict__[_DECODE_ATTR] = (text, tables)
    return tables


def _takes_kernels(cfg: MachineConfig,
                   record_window: tuple[int, int] | None) -> bool:
    """True when a replay on ``cfg`` may run through the native kernels:
    they are loaded, the replay records no timeline (only the reference
    loop records one), and neither ``sim_fast_path=False`` nor
    ``REPRO_SIM_REFERENCE`` forces the reference loop. The kernels also
    require the paper's perfect branch prediction: with a bimodal
    predictor, fetch redirects change the I-cache access sequence, so
    cache latencies cannot be precomputed from the trace alone. The
    pre-pass keeps load latencies in an int32 column, so a hierarchy
    with a load latency past int32 replays on the reference loop."""
    if record_window is not None or not cfg.sim_fast_path:
        return False
    if cfg.branch_predictor != "perfect":
        return False
    if not _load_latencies_fit(cfg.hierarchy):
        return False
    if os.environ.get("REPRO_SIM_REFERENCE", "") in ("1", "true"):
        return False
    return native.available()


def _load_latencies_fit(h: HierarchyConfig) -> bool:
    """Every latency a load can see (a dtlb hit or miss, then dl1, ul2
    or memory) fits the pre-pass's int32 ``mlat`` column."""
    for tlb in (0, h.dtlb.miss_penalty):
        latency = tlb + h.dl1.hit_latency
        for extra in (0, h.ul2.hit_latency, h.mem_latency):
            latency += extra
            if not -2**31 <= latency < 2**31:
                return False
    return True


class OoOSimulator:
    """Timing simulator for one program (reusable across traces only by
    constructing a new instance — cache and PFU state are per-run)."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig | None = None,
        ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    ) -> None:
        self.program = program
        self.config = config or MachineConfig()
        self.ext_defs = dict(ext_defs or {})
        # Static per-instruction properties (decoded once per program).
        self._cls, self._srcs, self._dst, base_lat, self._conf, \
            self._ctrl_kind = _decode(program)
        ext_latency = self._ext_latencies()
        self._lat = [
            ext_latency.get(conf, 1) if cls == _C_EXT else lat
            for cls, lat, conf in zip(self._cls, base_lat, self._conf)
        ]
        self._reconfig_by_conf = self._reconfig_latencies()
        self._ext_lat_sig = tuple(sorted(ext_latency.items()))
        self._events = [_EVENT_OF.get(c, EV_NONE) for c in self._cls]

    def _ext_latencies(self) -> dict[int, int]:
        """Per-configuration execution latency (§3.1 latency models)."""
        out: dict[int, int] = {}
        if self.config.ext_latency_model == "mapped" and self.ext_defs:
            from repro.hwcost import estimate_cost

            for conf, extdef in self.ext_defs.items():
                levels = estimate_cost(extdef).levels
                out[conf] = max(1, ceil(levels / self.config.lut_levels_per_cycle))
        else:
            for conf, extdef in self.ext_defs.items():
                out[conf] = getattr(extdef, "latency", 1)
        return out

    def _reconfig_latencies(self) -> dict[int, int]:
        """Per-configuration load latency (§6 bitstream model)."""
        if self.config.reconfig_model != "bitstream" or not self.ext_defs:
            return {}
        from repro.hwcost import config_bits, estimate_cost

        out: dict[int, int] = {}
        for conf, extdef in self.ext_defs.items():
            bits = config_bits(estimate_cost(extdef).luts)
            out[conf] = max(1, ceil(bits / self.config.config_bits_per_cycle))
        return out

    # ------------------------------------------------------------------

    def simulate(
        self,
        trace: DynTrace,
        record_window: tuple[int, int] | None = None,
    ) -> SimStats:
        """Replay ``trace`` through the pipeline; returns statistics.

        ``record_window=(start, end)`` additionally records the pipeline
        timeline — (static index, fetch, dispatch, issue, complete,
        commit) per dynamic instruction in ``[start, end)`` — into
        ``stats.timeline`` for visualisation (see
        :mod:`repro.sim.ooo.timeline`).

        When the process-wide observability recorder is enabled
        (:mod:`repro.obs`), the run additionally records per-stage stall
        cycles, PFU reconfiguration spans (in simulated cycles), an
        issue-width histogram, and cache traffic; disabled, the hooks
        cost one hoisted boolean check.
        """
        if len(trace) == 0:
            raise SimulationError("empty trace")
        rec = get_recorder()
        obs = rec if rec.enabled else None
        with (
            rec.span("sim.timing", program=self.program.name)
            if obs is not None else nullcontext()
        ) as obs_span:
            stats = self._simulate(trace, record_window, obs)
        if obs is not None:
            obs_span["instructions"] = stats.instructions
            obs_span["cycles"] = stats.cycles
        return stats

    def _simulate(
        self,
        trace: DynTrace,
        record_window: tuple[int, int] | None,
        obs,
    ) -> SimStats:
        """The native kernels (pre-pass, then replay) when the run may
        take them (:func:`_takes_kernels`), else the reference loop.
        Both produce identical :class:`SimStats` (verified by
        differential tests). Every kernel refusal goes to the reference
        loop too; a replay whose rings overflow is retried with larger
        ones up to :data:`_MAX_HORIZON`."""
        if _takes_kernels(self.config, record_window):
            pre = self._prepass(trace, obs)
            horizon = self._initial_horizon()
            while pre is not None and horizon <= _MAX_HORIZON:
                stats = self._simulate_native(trace, pre, obs, horizon)
                if stats is None:
                    break
                if stats is not native.OVERFLOW:
                    return stats
                horizon *= 8
        return self._simulate_reference(trace, record_window, obs)

    def _initial_horizon(self) -> int:
        """Ring-buffer size: a power of two safely above the largest
        plausible issue-past-dispatch drift (RUU window worth of memory
        stalls, plus one reconfiguration). Exceeding it is detected and
        retried with larger rings, so this is a fast-start heuristic,
        not a correctness bound."""
        cfg = self.config
        h = cfg.hierarchy
        mem_worst = (
            h.dtlb.miss_penalty + h.dl1.hit_latency
            + h.ul2.hit_latency + h.mem_latency
        )
        ifetch_worst = (
            h.itlb.miss_penalty + h.il1.hit_latency
            + h.ul2.hit_latency + h.mem_latency
        )
        lat_worst = max(self._lat, default=1)
        reconfig_worst = cfg.reconfig_latency
        if self._reconfig_by_conf:
            reconfig_worst = max(
                reconfig_worst, *self._reconfig_by_conf.values()
            )
        span = (
            cfg.ruu_size * max(mem_worst, lat_worst, 2)
            + reconfig_worst + ifetch_worst + 64
        )
        horizon = 1024
        while horizon < span:
            horizon *= 2
        return min(horizon, _MAX_HORIZON)

    def _prepass(self, trace: DynTrace, obs) -> Prepass | None:
        """The trace's fetch schedule, load latencies and cache statistics
        (:mod:`repro.sim.ooo.prepass`) as the native pre-pass kernel
        builds them, cached on the trace instance; None, and nothing
        cached, when the kernel refuses the inputs.

        The walk reads the trace columns, the program's instruction
        classes, the memory hierarchy and ``fetch_width`` and nothing
        else, so config sweeps that vary only core parameters (PFU
        count, reconfiguration latency, RUU size, other widths) replay
        the same trace without walking it again.
        """
        cfg = self.config
        key = _prepass_key(trace, self.program, cfg)
        cached = getattr(trace, _PREPASS_ATTR, None)
        if cached is not None and cached[0] == key:
            return cached[1]
        args = (self._events, trace.indices, trace.addrs, cfg.hierarchy,
                cfg.fetch_width)
        if obs is None:
            pre = native.prepass(*args)
        else:
            with obs.span("sim.timing.prepass") as span:
                pre = native.prepass(*args)
            span["instructions"] = len(trace)
            if pre is not None:
                for level in LEVELS:
                    span[f"{level}_misses"] = pre.cache[level]["misses"]
        if pre is None:
            return None
        # the entry holds the program text so its id in the key cannot
        # be reused by another program while the entry is cached
        setattr(trace, _PREPASS_ATTR, (key, pre, self.program.text))
        return pre

    def _native_tab(self, trace: DynTrace) -> tuple:
        """The native kernel's static table — six ``int32`` per static
        instruction: class, first and second non-zero source,
        destination, latency and dense configuration index (-1 unless
        ``ext``) — and the configuration id of each dense index. Cached
        on the trace; the entry holds the program text so its id in the
        key cannot be reused."""
        text = self.program.text
        key = (id(text), self._ext_lat_sig)
        cached = getattr(trace, _NATIVE_TAB_ATTR, None)
        if cached is not None and cached[0] == key:
            return cached[1]
        confs = sorted({conf for conf, cls in zip(self._conf, self._cls)
                        if cls == _C_EXT})
        dense = {conf: i for i, conf in enumerate(confs)}
        tab = array("i")
        for i, cls in enumerate(self._cls):
            nz = self._srcs[i]
            tab.extend((
                cls, nz[0] if nz else 0, nz[1] if len(nz) > 1 else 0,
                self._dst[i], self._lat[i],
                dense[self._conf[i]] if cls == _C_EXT else -1,
            ))
        data = (tab, confs)
        setattr(trace, _NATIVE_TAB_ATTR, (key, data, text))
        return data

    def _simulate_native(self, trace: DynTrace, pre: Prepass, obs,
                         horizon: int) -> SimStats | str | None:
        """One replay through the native kernel (:mod:`.native`) on
        ``horizon``-slot rings: its stats, :data:`native.OVERFLOW` when
        an instruction's issue cycle drifted ``horizon`` or more cycles
        past its dispatch cycle, or None when the kernel is unavailable
        or refuses the inputs."""
        cfg = self.config
        tab, confs = self._native_tab(trace)
        params = array("q", (
            cfg.issue_width, cfg.decode_width, cfg.commit_width,
            cfg.ruu_size, cfg.n_ialu, cfg.n_imult, cfg.n_memports,
            -1 if cfg.n_pfus is None else cfg.n_pfus, len(confs), horizon,
        ))
        conf_lat = array("q", (
            self._reconfig_by_conf.get(conf, cfg.reconfig_latency)
            for conf in confs
        ))
        got = native.replay(trace.indices, trace.addrs, pre.fcyc, pre.mlat,
                            tab, params, conf_lat, obs is not None)
        if got is None or got is native.OVERFLOW:
            return got
        stats = SimStats()
        stats.cycles = got.cycles
        stats.instructions = len(trace.indices)
        stats.ext_instructions = got.class_counts[_C_EXT]
        stats.pfu_hits = got.pfu_hits
        stats.pfu_misses = got.pfu_misses
        stats.reconfig_cycles = got.reconfig_cycles
        stats.class_counts = dict(zip(_CLASS_NAMES, got.class_counts))
        stats.cache = {level: st.copy() for level, st in pre.cache.items()}
        if obs is not None:
            stats.stall_cycles = {
                reason: cycles
                for reason, cycles in zip(_STALL_REASONS,
                                          (pre.fetch_stall, *got.stalls))
                if cycles
            }
            widths = [(w, count) for w, count in enumerate(got.widths)
                      if count]
            reconfigs = [(confs[cf], None if slot < 0 else slot, start, end)
                         for cf, slot, start, end in got.reconfigs]
            self._publish(obs, stats, widths, reconfigs)
        return stats

    def _simulate_reference(
        self,
        trace: DynTrace,
        record_window: tuple[int, int] | None,
        obs,
    ) -> SimStats:
        cfg = self.config
        hier = MemoryHierarchy(cfg.hierarchy)
        bank = PFUBank(
            cfg.n_pfus, cfg.reconfig_latency,
            latency_by_conf=self._reconfig_by_conf or None,
        )
        predictor = (
            BimodalPredictor(cfg.bpred_entries)
            if cfg.branch_predictor == "bimodal"
            else None
        )
        ctrl_kind = self._ctrl_kind
        redirect_at = 0

        cls_tab, srcs_tab, dst_tab = self._cls, self._srcs, self._dst
        lat_tab, conf_tab = self._lat, self._conf
        indices, addrs = trace.indices, trace.addrs
        n = len(indices)

        fetch_width = cfg.fetch_width
        decode_width = cfg.decode_width
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        ruu_size = cfg.ruu_size
        n_ialu, n_imult, n_memports = cfg.n_ialu, cfg.n_imult, cfg.n_memports
        line_bits = cfg.hierarchy.il1.line_size.bit_length() - 1

        # fetch state
        fetch_cycle = 1
        fetched = 0
        cur_line = -1
        # dispatch state
        disp_cycle = 1
        disp_n = 0
        commit_ring = [0] * ruu_size
        # issue resources (per-cycle counters, sparse)
        issued: dict[int, int] = {}
        alu_used: dict[int, int] = {}
        mul_used: dict[int, int] = {}
        mem_used: dict[int, int] = {}
        pfu_used: dict[tuple[int, int], int] = {}
        div_free = 0
        # dataflow
        reg_ready = [0] * 32
        store_ready: dict[int, int] = {}
        # commit state
        commit_cycle = 1
        commit_n = 0

        stats = SimStats()
        class_counts = [0] * len(_CLASS_NAMES)
        timeline: list[tuple[int, int, int, int, int, int]] = []
        rec_lo, rec_hi = record_window if record_window else (0, -1)

        # observability accumulators (touched only when ``obs`` is live)
        st_fetch_icache = st_disp_ruu = st_disp_width = 0
        st_issue_operands = st_issue_store_dep = 0
        st_issue_pfu = st_issue_div = st_issue_struct = 0
        st_commit_width = 0
        t_pre = 0
        reconfigs: list[tuple[int, int | None, int, int]] = []

        for k in range(n):
            si = indices[k]
            cls = cls_tab[si]
            class_counts[cls] += 1

            # ---------------- fetch ----------------
            pc_addr = TEXT_BASE + 4 * si
            line = pc_addr >> line_bits
            if redirect_at:
                # fetch restarts when the mispredicted branch resolved
                if redirect_at > fetch_cycle:
                    fetch_cycle = redirect_at
                fetched = 0
                cur_line = -1
                redirect_at = 0
            if fetched >= fetch_width:
                fetch_cycle += 1
                fetched = 0
            if line != cur_line:
                extra = hier.ifetch(pc_addr) - 1
                if extra > 0:
                    fetch_cycle += extra
                    fetched = 0
                    if obs is not None:
                        st_fetch_icache += extra
                cur_line = line
            f = fetch_cycle
            fetched += 1
            # taken control transfer ends the fetch group
            if cls == _C_CTRL and k + 1 < n and indices[k + 1] != si + 1:
                fetch_cycle += 1
                fetched = 0
                cur_line = -1

            # ---------------- dispatch ----------------
            d = f + 1
            if d < disp_cycle:
                d = disp_cycle
            if k >= ruu_size:
                freed = commit_ring[k % ruu_size] + 1
                if freed > d:
                    if obs is not None:
                        st_disp_ruu += freed - d
                    d = freed
            if d == disp_cycle and disp_n >= decode_width:
                d += 1
                if obs is not None:
                    st_disp_width += 1
            if d > disp_cycle:
                disp_cycle = d
                disp_n = 0
            disp_n += 1

            # PFU tag check at dispatch (§2.2)
            config_ready = 0
            pfu_slot: int | None = None
            if cls == _C_EXT:
                if obs is None:
                    config_ready, pfu_slot = bank.acquire(conf_tab[si], d)
                else:
                    misses_before = bank.misses
                    config_ready, pfu_slot = bank.acquire(conf_tab[si], d)
                    if bank.misses != misses_before:
                        lat = bank.latency_for(conf_tab[si])
                        reconfigs.append(
                            (conf_tab[si], pfu_slot,
                             config_ready - lat, config_ready)
                        )

            # ---------------- issue ----------------
            t = d + 1
            for r in srcs_tab[si]:
                rr = reg_ready[r]
                if rr > t:
                    t = rr
            if obs is not None and t > d + 1:
                st_issue_operands += t - (d + 1)
            addr = addrs[k]
            if cls == _C_LOAD:
                dep = store_ready.get(addr >> 2, 0)
                if dep > t:
                    if obs is not None:
                        st_issue_store_dep += dep - t
                    t = dep
            elif cls == _C_EXT and config_ready > t:
                if obs is not None:
                    st_issue_pfu += config_ready - t
                t = config_ready
            elif cls == _C_DIV and div_free > t:
                if obs is not None:
                    st_issue_div += div_free - t
                t = div_free

            if obs is not None:
                t_pre = t
            while True:
                if issued.get(t, 0) >= issue_width:
                    t += 1
                    continue
                if cls in (_C_ALU, _C_CTRL, _C_NOP):
                    if alu_used.get(t, 0) >= n_ialu:
                        t += 1
                        continue
                    alu_used[t] = alu_used.get(t, 0) + 1
                elif cls == _C_MUL:
                    if mul_used.get(t, 0) >= n_imult:
                        t += 1
                        continue
                    mul_used[t] = mul_used.get(t, 0) + 1
                elif cls == _C_DIV:
                    if t < div_free:
                        t = div_free
                        continue
                    if mul_used.get(t, 0) >= n_imult:  # divider shares the unit
                        t += 1
                        continue
                    mul_used[t] = mul_used.get(t, 0) + 1
                    div_free = t + lat_tab[si]
                elif cls in (_C_LOAD, _C_STORE):
                    if mem_used.get(t, 0) >= n_memports:
                        t += 1
                        continue
                    mem_used[t] = mem_used.get(t, 0) + 1
                elif cls == _C_EXT and pfu_slot is not None:
                    key = (pfu_slot, t)
                    if pfu_used.get(key, 0) >= 1:
                        t += 1
                        continue
                    pfu_used[key] = 1
                issued[t] = issued.get(t, 0) + 1
                break
            if obs is not None and t > t_pre:
                st_issue_struct += t - t_pre

            if cls == _C_EXT:
                bank.note_issue(pfu_slot, t)

            # ---------------- execute/complete ----------------
            if cls == _C_LOAD:
                complete = t + hier.dload(addr)
            elif cls == _C_STORE:
                hier.dstore(addr)
                complete = t + 1
                store_ready[addr >> 2] = complete
            else:
                complete = t + lat_tab[si]

            dst = dst_tab[si]
            if dst:
                # program-order processing makes this the newest definition
                reg_ready[dst] = complete

            # -------- branch prediction (extension; perfect by default) --
            if predictor is not None and cls == _C_CTRL:
                kind = ctrl_kind[si]
                correct = True
                if kind == 1:      # conditional branch
                    taken = k + 1 < n and indices[k + 1] != si + 1
                    correct = predictor.predict_conditional(pc_addr, taken)
                elif kind == 2:    # call
                    predictor.note_call(TEXT_BASE + 4 * (si + 1))
                elif kind == 3:    # return
                    target = (
                        TEXT_BASE + 4 * indices[k + 1] if k + 1 < n else -1
                    )
                    correct = predictor.predict_return(target)
                if not correct and complete > redirect_at:
                    redirect_at = complete

            # ---------------- commit ----------------
            c = complete + 1
            if c < commit_cycle:
                c = commit_cycle
            if c == commit_cycle and commit_n >= commit_width:
                c += 1
                if obs is not None:
                    st_commit_width += 1
            if c > commit_cycle:
                commit_cycle = c
                commit_n = 0
            commit_n += 1
            commit_ring[k % ruu_size] = c

            if rec_lo <= k < rec_hi:
                timeline.append((si, f, d, t, complete, c))

        stats.cycles = commit_cycle
        stats.instructions = n
        stats.ext_instructions = class_counts[_C_EXT]
        stats.pfu_hits = bank.hits
        stats.pfu_misses = bank.misses
        stats.reconfig_cycles = bank.reconfig_cycles
        stats.class_counts = {
            name: class_counts[i] for i, name in enumerate(_CLASS_NAMES)
        }
        if predictor is not None:
            stats.bpred_lookups = predictor.lookups
            stats.bpred_mispredictions = predictor.mispredictions
        if record_window:
            stats.timeline = timeline
        stats.cache = {
            level: vars(getattr(hier, level).stats).copy() for level in LEVELS
        }
        if obs is not None:
            stats.stall_cycles = {
                reason: cycles
                for reason, cycles in zip(_STALL_REASONS, (
                    st_fetch_icache, st_disp_ruu, st_disp_width,
                    st_issue_operands, st_issue_store_dep, st_issue_pfu,
                    st_issue_div, st_issue_struct, st_commit_width,
                ))
                if cycles
            }
            self._publish(obs, stats, Counter(issued.values()).items(),
                          reconfigs)
        return stats

    def _publish(
        self,
        obs,
        stats: SimStats,
        issue_widths: Iterable[tuple[int, int]],
        reconfigs: list[tuple[int, int | None, int, int]],
    ) -> None:
        """Publish one run's metrics/spans to a live recorder;
        ``issue_widths`` holds (ops issued in a cycle, such cycles)."""
        prog = self.program.name
        for reason, cycles in stats.stall_cycles.items():
            obs.counter(f"sim.stall.{reason}", program=prog).inc(cycles)
        if stats.pfu_hits:
            obs.counter("sim.pfu.hit", program=prog).inc(stats.pfu_hits)
        if stats.pfu_misses:
            obs.counter("sim.pfu.reconfig", program=prog).inc(stats.pfu_misses)
        if stats.reconfig_cycles:
            obs.counter("sim.pfu.reconfig_cycles", program=prog).inc(
                stats.reconfig_cycles
            )
        hist = obs.histogram("sim.issue.width", program=prog)
        for width, cycles in issue_widths:
            hist.observe(width, cycles)
        for name, count in stats.class_counts.items():
            if count:
                obs.counter(f"sim.class.{name}", program=prog).inc(count)
        for level, cstats in stats.cache.items():
            for fld, value in cstats.items():
                if value:
                    obs.counter(
                        f"sim.cache.{level}.{fld}", program=prog
                    ).inc(value)
        for conf, slot, start, end in reconfigs:
            track = f"pfu{slot}" if slot is not None else f"conf{conf}"
            obs.add_span(
                "pfu.reconfig", start, end, track=track,
                conf=conf, program=prog,
            )


def _prepass_key(trace: DynTrace, program: Program,
                 config: MachineConfig) -> tuple:
    """Every input of the fetch/cache pre-pass: the trace columns, the
    program (its instruction classes), the hierarchy and fetch width."""
    return (
        id(trace.indices), id(trace.addrs), len(trace.indices),
        id(program.text), config.hierarchy, config.fetch_width,
    )


def _prepass_groups(
    program: Program, trace: DynTrace, configs: "list[MachineConfig]"
) -> dict[tuple, list[int]]:
    """Indices of ``configs`` grouped by pre-pass key in first-appearance
    order, so the trace's one-slot pre-pass cache builds each distinct
    pre-pass once."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_prepass_key(trace, program, cfg), []).append(i)
    return groups


def _grid_costs(
    configs: Sequence[MachineConfig], record_window: tuple[int, int] | None
) -> parallel.GridCosts:
    """The split weights of the replay path a grid takes. A grid with
    any configuration on the reference loop is weighed as reference:
    those replays dominate it."""
    if all(_takes_kernels(cfg, record_window) for cfg in configs):
        return parallel.NATIVE
    return parallel.REFERENCE


def simulate_many(
    program: Program,
    trace: DynTrace,
    configs: "Iterable[MachineConfig]",
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    record_window: tuple[int, int] | None = None,
    jobs: int | None = None,
) -> list[SimStats]:
    """Replay one dynamic trace under many machine configurations.

    The single-pass sweep entry point: the per-trace replay artefacts —
    the fetch/cache pre-pass and the kernel's static table — are cached
    on ``trace`` the first time a configuration needs them and shared by
    every later configuration that can legally reuse them (same memory
    hierarchy and fetch width, and same extended-instruction latency
    model, respectively). Configurations run grouped by
    pre-pass key, so an interleaved grid still builds each distinct
    pre-pass once. A reconfiguration-latency or PFU-count sweep
    therefore pays the per-dynamic-instruction cache/fetch/decode work
    once, not once per configuration.

    Several configurations are split across forked processes
    (:mod:`repro.sim.ooo.parallel`): contiguous slices of that grouping,
    balanced by replays and pre-pass builds as weighed on the replay path
    the grid takes (:class:`~repro.sim.ooo.parallel.GridCosts`), one per
    usable core. ``jobs=None`` forks only when the work clears that
    path's floor; ``jobs=N`` caps the
    processes at N (``jobs=1`` is serial). Forking never happens off the
    main thread, with other threads alive, inside a ``multiprocessing``
    child, or with a live :mod:`repro.obs` recorder. Results are
    returned in configuration order and are bit-identical to running
    each configuration on its own simulator; an error is the one serial
    replay raises.
    """
    # Accept any iterable (the explorer streams large grids); a lazy
    # source is drawn exactly once, here.
    if not isinstance(configs, (list, tuple)):
        configs = list(configs)
    groups = list(_prepass_groups(program, trace, configs).items())
    order = [i for _, group in groups for i in group]

    def run(indices: list[int]) -> list[SimStats]:
        return [
            OoOSimulator(program, configs[i], ext_defs=ext_defs).simulate(
                trace, record_window)
            for i in indices
        ]

    labels = [g for g, (_, group) in enumerate(groups) for _ in group]
    # the key alone: holding the cached entry would keep its arrays
    # alive after the parent's shard replaces it
    cached_key = getattr(trace, _PREPASS_ATTR, (None,))[0]
    free = next((g for g, (key, _) in enumerate(groups)
                 if key == cached_key), None)
    costs = _grid_costs(configs, record_window)
    procs = parallel.worker_count(
        jobs, len(configs),
        len(trace) * parallel.grid_cost(labels, free, costs) if configs
        else 0, costs.floor)
    if procs == 1:
        stats = run(order)
    else:
        slices = parallel.split_grid(labels, free, procs, costs)
        # the parent replays the slice that starts on the cached
        # pre-pass (run_forked runs the first shard here), so that
        # pre-pass is still cached for the next call on this trace
        slices.sort(key=lambda ab: labels[ab[0]] != free)
        shards = [order[a:b] for a, b in slices]
        order = [i for shard in shards for i in shard]
        # children inherit the loaded kernel and the replay tables
        # copy-on-write
        if costs is parallel.NATIVE:
            OoOSimulator(program, configs[order[0]],
                         ext_defs=ext_defs)._native_tab(trace)
        stats = [s for part in parallel.run_forked(shards, run) for s in part]
    out: list = [None] * len(configs)
    for i, s in zip(order, stats):
        out[i] = s
    return out
