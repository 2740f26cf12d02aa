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
from contextlib import nullcontext
from functools import lru_cache
from math import ceil
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from repro.errors import SimulationError
from repro.isa.encoding import TEXT_BASE
from repro.obs import get_recorder
from repro.isa.opcodes import OpClass, Opcode
from repro.program.program import Program
from repro.sim.cache.hierarchy import MemoryHierarchy
from repro.sim.ooo.branchpred import BimodalPredictor, is_conditional
from repro.sim.ooo import parallel
from repro.sim.ooo.config import MachineConfig
from repro.sim.ooo.pfu import PFUBank
from repro.sim.ooo.prepass import (
    EV_CTRL, EV_LOAD, EV_NONE, EV_STORE, LEVELS, Prepass, build_prepass,
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

#: Issue-resource groups for the fast path: which per-cycle counter an
#: instruction class contends on. ALU ops, control transfers, and NOPs
#: share the integer ALUs; the divider shares the multiplier; loads and
#: stores share the cache ports; ext ops contend per PFU slot.
_GRP_ALU, _GRP_MUL, _GRP_DIV, _GRP_MEM, _GRP_EXT = range(5)
_GRP_OF = {
    _C_ALU: _GRP_ALU,
    _C_MUL: _GRP_MUL,
    _C_DIV: _GRP_DIV,
    _C_LOAD: _GRP_MEM,
    _C_STORE: _GRP_MEM,
    _C_CTRL: _GRP_ALU,
    _C_NOP: _GRP_ALU,
    _C_EXT: _GRP_EXT,
}

#: Ring-buffer horizon cap for the fast path (slots, power of two). A run
#: whose issue cycle ever drifts this far past dispatch falls back to the
#: reference loop rather than growing the rings further.
_MAX_HORIZON = 1 << 20

#: Pre-pass event kind of each instruction class.
_EVENT_OF = {_C_LOAD: EV_LOAD, _C_STORE: EV_STORE, _C_CTRL: EV_CTRL}

#: Attribute under which the fetch/cache pre-pass is cached on the
#: DynTrace instance (one slot, keyed by :func:`_prepass_key`).
_PREPASS_ATTR = "_prepass_cache"

_REPLAY_ATTR = "_replay_tab_cache"


class _LoopShape(NamedTuple):
    """Every value the generated replay loop is specialised to, and
    nothing else: it is the compiled-loop cache key, so values that do
    not change the generated source (horizon, PFU count and latencies,
    the memory hierarchy) stay out of it."""

    has_mul: bool
    has_div: bool
    has_mem: bool
    has_ext: bool
    obs_live: bool
    record: bool
    #: the issue ring's per-cycle limit
    issue_width: int
    decode_width: int
    commit_width: int
    ruu_size: int
    #: per-cycle limit of each unit ring, None where the ring is elided
    alu: int | None
    mul: int | None
    mem: int | None


def _loop_shape(present: frozenset, cfg: MachineConfig, obs_live: bool,
                record: bool) -> _LoopShape:
    """The loop specialisation for a program whose instruction classes
    are ``present`` on machine ``cfg``.

    A unit ring whose limit is at least the issue ring's limit is
    elided: a unit's per-cycle count never exceeds the issue count of
    that cycle, so once an op passes the issue check its unit cannot be
    full. When every present class contends on the integer ALUs the two
    rings always carry equal counts, so the issue ring alone serves with
    the tighter limit and the ALU ring is elided by the same rule.
    """
    has_mul = _C_MUL in present
    has_div = _C_DIV in present
    has_mem = _C_LOAD in present or _C_STORE in present
    has_ext = _C_EXT in present
    multi = has_mul or has_div or has_mem or has_ext
    width = cfg.issue_width if multi else min(cfg.issue_width, cfg.n_ialu)

    def ring(used: bool, limit: int) -> int | None:
        return limit if used and limit < width else None

    return _LoopShape(
        has_mul, has_div, has_mem, has_ext, obs_live, record, width,
        cfg.decode_width, cfg.commit_width, cfg.ruu_size,
        ring(multi, cfg.n_ialu), ring(has_mul or has_div, cfg.n_imult),
        ring(has_mem, cfg.n_memports),
    )


def _fast_loop_source(shape: _LoopShape) -> str:
    """Source of a replay loop specialised to one program, machine and
    run shape.

    The loop is the reference pipeline model with per-cycle resource
    dicts replaced by stamped ring buffers and the fetch stage replaced
    by the precomputed ``fcyc`` array (fetch has no feedback from the
    core in this model). Specialisation drops the branches for
    instruction classes the program does not contain and for disabled
    observability/timeline recording, and every unit ring that
    :func:`_loop_shape` elides, so the common ALU iteration executes a
    minimal straight-line body. The core's widths, RUU size and kept
    unit limits are literals; the RUU slot is a mask when ``ruu_size``
    is a power of two. The numeric class literals below are the _C_*
    constants.
    """
    O = shape.obs_live
    W = shape.issue_width
    R = shape.ruu_size
    has_mul, has_div = shape.has_mul, shape.has_div
    has_mem, has_ext = shape.has_mem, shape.has_ext
    multi = has_mul or has_div or has_mem or has_ext
    lines: list[str] = []

    def a(level: int, text: str) -> None:
        lines.append("    " * level + text)

    def unit_claim(level: int, unit: str, limit: int) -> None:
        a(level, f"if {unit}_s[i] == t:")
        a(level + 1, f"if {unit}_c[i] >= {limit}:")
        a(level + 2, "t += 1")
        a(level + 2, "continue")
        a(level + 1, f"{unit}_c[i] += 1")
        a(level, "else:")
        a(level + 1, f"{unit}_s[i] = t")
        a(level + 1, f"{unit}_c[i] = 1")

    def issued_update(level: int) -> None:
        a(level, "if iss_s[i] == t:")
        a(level + 1, "iss_c[i] += 1")
        a(level, "else:")
        if O:
            a(level + 1, "if iss_c[i]:")
            a(level + 2, "issue_widths.append(iss_c[i])")
        a(level + 1, "iss_s[i] = t")
        a(level + 1, "iss_c[i] = 1")

    def unit_search(level: int, unit: str) -> None:
        """Issue-width plus (unless elided) unit contention search. The
        issued-count update is folded into the search's final iteration
        so the slot index is computed once per probe."""
        limit = getattr(shape, unit)
        a(level, "while True:")
        a(level + 1, "i = t & mask")
        a(level + 1, "if iss_s[i] == t:")
        a(level + 2, f"if iss_c[i] >= {W}:")
        a(level + 3, "t += 1")
        a(level + 3, "continue")
        if limit is not None:
            unit_claim(level + 2, unit, limit)
        a(level + 2, "iss_c[i] += 1")
        a(level + 1, "else:")
        if limit is not None:
            unit_claim(level + 2, unit, limit)
        if O:
            a(level + 2, "if iss_c[i]:")
            a(level + 3, "issue_widths.append(iss_c[i])")
        a(level + 2, "iss_s[i] = t")
        a(level + 2, "iss_c[i] = 1")
        a(level + 1, "break")

    def ext_search(level: int) -> None:
        a(level, "ps = pfu_s[pfu_slot] if pfu_slot is not None"
                 " else None")
        a(level, "while True:")
        a(level + 1, "i = t & mask")
        a(level + 1, f"if iss_s[i] == t and iss_c[i] >= {W}:")
        a(level + 2, "t += 1")
        a(level + 2, "continue")
        a(level + 1, "if ps is not None:")
        a(level + 2, "if ps[i] == t:")
        a(level + 3, "t += 1")
        a(level + 3, "continue")
        a(level + 2, "ps[i] = t")
        issued_update(level + 1)
        a(level + 1, "break")
        a(level, "bank.note_issue(pfu_slot, t)")

    def horizon_check(level: int) -> None:
        a(level, "if t - d >= horizon:")
        a(level + 1, "return None")

    a(0, "def replay(per_k, indices, addrs, fcyc, mlat, conf_tab, horizon,")
    a(0, "           bank, iss_s, iss_c, alu_s, alu_c, mul_s, mul_c,")
    a(0, "           mem_s, mem_c, pfu_s, rec_lo, rec_hi, timeline):")
    a(1, "mask = horizon - 1")
    a(1, "disp_cycle = 1")
    a(1, "disp_n = 0")
    a(1, f"commit_ring = [0] * {R}")
    if has_div:
        a(1, "div_free = 0")
    a(1, "reg_ready = [0] * 32")
    if has_mem:
        a(1, "store_ready = {}")
    a(1, "commit_cycle = 1")
    a(1, "commit_n = 0")
    if O:
        a(1, "st_disp_ruu = st_disp_width = 0")
        a(1, "st_issue_operands = st_issue_store_dep = 0")
        a(1, "st_issue_pfu = st_issue_div = st_issue_struct = 0")
        a(1, "st_commit_width = 0")
        a(1, "issue_widths = []")
        a(1, "reconfigs = []")
    if multi:
        a(1, "for k, (cls, grp, s1, s2, dst, lat) in enumerate(per_k):")
    else:
        a(1, "for k, (s1, s2, dst, lat) in enumerate(per_k):")
    # -- dispatch --
    a(2, "d = fcyc[k] + 1")
    if O:
        # clamp before the RUU check so stall cycles attribute to the
        # RUU exactly as in the reference loop
        a(2, "if d < disp_cycle:")
        a(3, "d = disp_cycle")
    a(2, f"kslot = k & {R - 1}" if R & (R - 1) == 0 else f"kslot = k % {R}")
    a(2, "freed = commit_ring[kslot] + 1")
    a(2, "if freed > d:")
    if O:
        a(3, "st_disp_ruu += freed - d")
    a(3, "d = freed")
    a(2, "if d > disp_cycle:")
    a(3, "disp_cycle = d")
    a(3, "disp_n = 1")
    a(2, f"elif disp_n >= {shape.decode_width}:")
    if O:
        a(3, "st_disp_width += 1")
    a(3, "d = disp_cycle + 1")
    a(3, "disp_cycle = d")
    a(3, "disp_n = 1")
    a(2, "else:")
    a(3, "d = disp_cycle")
    a(3, "disp_n += 1")
    if has_ext and O:
        # the non-obs variant acquires inside its ext issue branch; the
        # call only consumes ``d``, so deferring it past the operand
        # waits is order-preserving
        a(2, "if cls == 7:")
        a(3, "conf = conf_tab[indices[k]]")
        a(3, "misses_before = bank.misses")
        a(3, "config_ready, pfu_slot = bank.acquire(conf, d)")
        a(3, "if bank.misses != misses_before:")
        a(4, "rl = bank.latency_for(conf)")
        a(4, "reconfigs.append("
             "(conf, pfu_slot, config_ready - rl, config_ready))")
    # -- issue: operand/dependence waits --
    a(2, "t = d + 1")
    a(2, "if s1:")
    a(3, "rr = reg_ready[s1]")
    a(3, "if rr > t:")
    a(4, "t = rr")
    a(3, "if s2:")
    a(4, "rr = reg_ready[s2]")
    a(4, "if rr > t:")
    a(5, "t = rr")
    if O:
        a(2, "if t > d + 1:")
        a(3, "st_issue_operands += t - (d + 1)")
        if has_mem:
            a(2, "if cls == 3:")
            a(3, "dep = store_ready.get(addrs[k] >> 2, 0)")
            a(3, "if dep > t:")
            a(4, "st_issue_store_dep += dep - t")
            a(4, "t = dep")
        if has_ext:
            a(2, "if cls == 7 and config_ready > t:")
            a(3, "st_issue_pfu += config_ready - t")
            a(3, "t = config_ready")
        if has_div:
            a(2, "if cls == 2 and div_free > t:")
            a(3, "st_issue_div += div_free - t")
            a(3, "t = div_free")
        a(2, "t_pre = t")
    # -- issue: structural search (and, for the non-obs multi-group
    # variant, the class-specific waits and completion, fused into the
    # per-group branch so ALU iterations skip every dead class check) --
    if not multi:
        unit_search(2, "alu")
        horizon_check(2)
        if O:
            a(2, "if t > t_pre:")
            a(3, "st_issue_struct += t - t_pre")
        a(2, "complete = t + lat")
    else:
        branches = ["0"]
        if has_mem:
            branches.append("3")
        if has_mul:
            branches.append("1")
        if has_div:
            branches.append("2")
        if has_ext:
            branches.append("4")
        for bi, grp in enumerate(branches):
            if bi == 0:
                a(2, f"if grp == {grp}:")
            elif bi < len(branches) - 1:
                a(2, f"elif grp == {grp}:")
            else:
                a(2, "else:")
            body = 3
            if grp == "2":
                if not O:
                    a(body, "if div_free > t:")
                    a(body + 1, "t = div_free")
                unit_search(body, "mul")
                a(body, "div_free = t + lat")
            elif grp == "4":
                if not O:
                    a(body, "conf = conf_tab[indices[k]]")
                    a(body, "config_ready, pfu_slot = bank.acquire(conf, d)")
                    a(body, "if config_ready > t:")
                    a(body + 1, "t = config_ready")
                ext_search(body)
            elif grp == "3":
                if not O:
                    a(body, "if cls == 3:")
                    a(body + 1, "dep = store_ready.get(addrs[k] >> 2, 0)")
                    a(body + 1, "if dep > t:")
                    a(body + 2, "t = dep")
                unit_search(body, "mem")
            else:
                unit_search(body, "alu" if grp == "0" else "mul")
            if O:
                continue
            horizon_check(body)
            if grp == "3":
                a(body, "if cls == 3:")
                a(body + 1, "complete = t + mlat[k]")
                a(body, "else:")
                a(body + 1, "complete = t + 1")
                a(body + 1, "store_ready[addrs[k] >> 2] = complete")
            else:
                a(body, "complete = t + lat")
        if O:
            horizon_check(2)
            a(2, "if t > t_pre:")
            a(3, "st_issue_struct += t - t_pre")
            # -- execute/complete --
            if has_mem:
                a(2, "if cls == 3:")
                a(3, "complete = t + mlat[k]")
                a(2, "elif cls == 4:")
                a(3, "complete = t + 1")
                a(3, "store_ready[addrs[k] >> 2] = complete")
                a(2, "else:")
                a(3, "complete = t + lat")
            else:
                a(2, "complete = t + lat")
    a(2, "if dst:")
    a(3, "reg_ready[dst] = complete")
    # -- commit --
    a(2, "c = complete + 1")
    a(2, "if c > commit_cycle:")
    a(3, "commit_cycle = c")
    a(3, "commit_n = 1")
    a(2, f"elif commit_n >= {shape.commit_width}:")
    if O:
        a(3, "st_commit_width += 1")
    a(3, "c = commit_cycle + 1")
    a(3, "commit_cycle = c")
    a(3, "commit_n = 1")
    a(2, "else:")
    a(3, "c = commit_cycle")
    a(3, "commit_n += 1")
    a(2, "commit_ring[kslot] = c")
    if shape.record:
        a(2, "if rec_lo <= k < rec_hi:")
        a(3, "timeline.append((indices[k], fcyc[k], d, t, complete, c))")
    if O:
        a(1, "issue_widths.extend(w for w in iss_c if w)")
        a(1, "return (commit_cycle,")
        a(1, "        (st_disp_ruu, st_disp_width,")
        a(1, "         st_issue_operands, st_issue_store_dep, st_issue_pfu,")
        a(1, "         st_issue_div, st_issue_struct, st_commit_width),")
        a(1, "        issue_widths, reconfigs)")
    else:
        a(1, "return (commit_cycle, None, None, None)")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _fast_loop(shape: _LoopShape):
    """Compile (and cache) the replay loop for one specialisation. The
    cache is bounded: a long-lived process that sees many core shapes
    recompiles the least recently used ones (a few ms each)."""
    namespace: dict = {}
    code = compile(
        _fast_loop_source(shape), f"<t1000-replay:{tuple(shape)}>", "exec"
    )
    exec(code, namespace)  # noqa: S102 - trusted, self-generated source
    return namespace["replay"]


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
        # Pre-extract static per-instruction properties into flat tuples.
        self._cls: list[int] = []
        self._srcs: list[tuple[int, ...]] = []
        self._dst: list[int] = []
        self._lat: list[int] = []
        self._conf: list[int] = []
        self._ctrl_kind: list[int] = []   # 0 none, 1 cond, 2 call, 3 return
        ext_latency = self._ext_latencies()
        for instr in program.text:
            cls = _CLASS_OF[instr.op_class]
            self._cls.append(cls)
            self._srcs.append(tuple(r for r in instr.uses() if r != 0))
            defs = instr.defs()
            self._dst.append(defs[0] if defs and defs[0] != 0 else 0)
            if cls == _C_EXT:
                conf = instr.conf if instr.conf is not None else -1
                self._lat.append(ext_latency.get(conf, 1))
            else:
                self._lat.append(instr.info.latency)
            self._conf.append(instr.conf if instr.conf is not None else -1)
            if is_conditional(instr.op):
                self._ctrl_kind.append(1)
            elif instr.op in (Opcode.JAL, Opcode.JALR):
                self._ctrl_kind.append(2)
            elif instr.op is Opcode.JR:
                self._ctrl_kind.append(3)
            else:
                self._ctrl_kind.append(0)
        self._reconfig_by_conf = self._reconfig_latencies()
        self._ext_lat_sig = tuple(sorted(ext_latency.items()))
        self._present = frozenset(self._cls)
        # Flat per-static replay tuples for the fast path. $zero is
        # dropped from the sources (it is never written, so reads of it
        # never wait), which lets the replay loop nest the second
        # operand check under the first. Programs whose classes all
        # share the integer ALUs use a short tuple shape: their loop
        # specialization needs no class/group dispatch at all.
        self._single_group = {_GRP_OF[c] for c in self._present} <= {_GRP_ALU}
        rows = []
        for i, srcs in enumerate(self._srcs):
            nz = [r for r in srcs if r]
            s1 = nz[0] if nz else 0
            s2 = nz[1] if len(nz) > 1 else 0
            cls = self._cls[i]
            if self._single_group:
                rows.append((s1, s2, self._dst[i], self._lat[i]))
            else:
                rows.append(
                    (cls, _GRP_OF[cls], s1, s2, self._dst[i], self._lat[i])
                )
        self._static_tab = rows
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
        """Inner loop dispatcher: the dense-window fast path when legal,
        else the reference loop. Both produce identical :class:`SimStats`
        (verified by differential tests); the fast path bounds the
        per-cycle resource bookkeeping to O(horizon) memory."""
        if self._fast_eligible():
            horizon = self._initial_horizon()
            while horizon <= _MAX_HORIZON:
                stats = self._simulate_fast(trace, record_window, obs, horizon)
                if stats is not None:
                    return stats
                horizon *= 8
        return self._simulate_reference(trace, record_window, obs)

    def _fast_eligible(self) -> bool:
        """The fast path requires the paper's perfect branch prediction:
        with a bimodal predictor, fetch redirects change the I-cache
        access sequence, so cache latencies cannot be precomputed from
        the trace alone."""
        if not self.config.sim_fast_path:
            return False
        if self.config.branch_predictor != "perfect":
            return False
        return os.environ.get("REPRO_SIM_REFERENCE", "") not in ("1", "true")

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

    def _prepass(self, trace: DynTrace, obs) -> Prepass:
        """The trace's fetch schedule, load latencies and cache statistics
        (:mod:`repro.sim.ooo.prepass`), cached on the trace instance.

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
            pre = build_prepass(*args)
        else:
            with obs.span("sim.timing.prepass") as span:
                pre = build_prepass(*args)
            span["instructions"] = len(trace)
            for level in LEVELS:
                span[f"{level}_misses"] = pre.cache[level]["misses"]
        # the entry holds the program text so its id in the key cannot
        # be reused by another program while the entry is cached
        setattr(trace, _PREPASS_ATTR, (key, pre, self.program.text))
        return pre

    def _replay_tab(self, trace: DynTrace) -> tuple[list, list[int]]:
        """Per-dynamic-instruction static tuples plus class totals: the
        program's flat replay table mapped over the trace once
        (C-level), cached on the trace instance so repeated replays —
        config sweeps, benchmark iterations — skip the per-instruction
        static lookups entirely. Class counts are a pure function of
        the trace, so they are tallied here (via one Counter over the
        static indices) rather than inside the replay loop."""
        from collections import Counter

        indices = trace.indices
        key = (
            id(indices), len(indices), id(self.program.text),
            self._ext_lat_sig,
        )
        cached = getattr(trace, _REPLAY_ATTR, None)
        if cached is not None and cached[0] == key:
            return cached[1]
        per_k = list(map(self._static_tab.__getitem__, indices))
        counts = [0] * len(_CLASS_NAMES)
        for si, cnt in Counter(indices).items():
            counts[self._cls[si]] += cnt
        data = (per_k, counts)
        setattr(trace, _REPLAY_ATTR, (key, data))
        return data

    def _simulate_fast(
        self,
        trace: DynTrace,
        record_window: tuple[int, int] | None,
        obs,
        horizon: int,
    ) -> SimStats | None:
        """Dense-window replay: the reference pipeline model with the
        per-cycle resource dicts replaced by stamped ring buffers of
        ``horizon`` slots, the cache hierarchy and fetch stage replaced
        by the trace's pre-pass (:meth:`_prepass`), and the loop body
        specialized to the program's instruction-class mix and the
        machine's core shape (:func:`_fast_loop`).
        Returns None if any instruction's issue cycle drifts
        ``horizon`` or more cycles past its dispatch cycle (the caller
        retries with larger rings or falls back to the reference
        loop)."""
        cfg = self.config
        bank = PFUBank(
            cfg.n_pfus, cfg.reconfig_latency,
            latency_by_conf=self._reconfig_by_conf or None,
        )
        indices, addrs = trace.indices, trace.addrs
        pre = self._prepass(trace, obs)
        per_k, class_counts = self._replay_tab(trace)

        shape = _loop_shape(self._present, cfg, obs is not None,
                            record_window is not None)

        # stamped rings: slot `cycle & (horizon-1)` is live iff its stamp
        # equals the cycle; stale slots read as zero and are reclaimed on
        # write, so memory stays O(horizon) regardless of trace length.
        # Elided unit rings are not allocated.
        def ring(limit: int | None) -> tuple[list, list] | tuple[None, None]:
            if limit is None:
                return None, None
            return [0] * horizon, [0] * horizon

        iss_s = [0] * horizon
        iss_c = [0] * horizon
        alu_s, alu_c = ring(shape.alu)
        mul_s, mul_c = ring(shape.mul)
        mem_s, mem_c = ring(shape.mem)
        pfu_s = (
            [[0] * horizon for _ in range(cfg.n_pfus)]
            if shape.has_ext and cfg.n_pfus else None
        )

        timeline: list[tuple[int, int, int, int, int, int]] = []
        rec_lo, rec_hi = record_window if record_window else (0, -1)

        out = _fast_loop(shape)(
            per_k, indices, addrs, pre.fcyc, pre.mlat, self._conf, horizon,
            bank, iss_s, iss_c, alu_s, alu_c, mul_s, mul_c, mem_s, mem_c,
            pfu_s, rec_lo, rec_hi, timeline,
        )
        if out is None:
            return None
        commit_cycle, stalls, issue_widths, reconfigs = out

        stats = SimStats()
        stats.cycles = commit_cycle
        stats.instructions = len(indices)
        stats.ext_instructions = class_counts[_C_EXT]
        stats.pfu_hits = bank.hits
        stats.pfu_misses = bank.misses
        stats.reconfig_cycles = bank.reconfig_cycles
        stats.class_counts = {
            name: class_counts[i] for i, name in enumerate(_CLASS_NAMES)
        }
        if record_window:
            stats.timeline = timeline
        stats.cache = {level: st.copy() for level, st in pre.cache.items()}
        if obs is not None:
            stats.stall_cycles = {
                reason: cycles
                for reason, cycles in zip(
                    (
                        "fetch.icache", "dispatch.ruu_full",
                        "dispatch.width", "issue.operands",
                        "issue.store_dep", "issue.pfu_config",
                        "issue.div_busy", "issue.structural",
                        "commit.width",
                    ),
                    (pre.fetch_stall, *stalls),
                )
                if cycles
            }
            self._publish(obs, stats, issue_widths, reconfigs)
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
                for reason, cycles in (
                    ("fetch.icache", st_fetch_icache),
                    ("dispatch.ruu_full", st_disp_ruu),
                    ("dispatch.width", st_disp_width),
                    ("issue.operands", st_issue_operands),
                    ("issue.store_dep", st_issue_store_dep),
                    ("issue.pfu_config", st_issue_pfu),
                    ("issue.div_busy", st_issue_div),
                    ("issue.structural", st_issue_struct),
                    ("commit.width", st_commit_width),
                )
                if cycles
            }
            self._publish(obs, stats, issued.values(), reconfigs)
        return stats

    def _publish(
        self,
        obs,
        stats: SimStats,
        issue_widths,
        reconfigs: list[tuple[int, int | None, int, int]],
    ) -> None:
        """Publish one run's metrics/spans to a live recorder."""
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
        for width in issue_widths:
            hist.observe(width)
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
    the fetch/cache pre-pass and the flat per-instruction replay table —
    are cached on ``trace`` the first time a configuration needs them
    and shared by every later configuration that can legally reuse them
    (same memory hierarchy and fetch width, and same extended-instruction
    latency model, respectively). Configurations run grouped by
    pre-pass key, so an interleaved grid still builds each distinct
    pre-pass once. A reconfiguration-latency or PFU-count sweep
    therefore pays the per-dynamic-instruction cache/fetch/decode work
    once, not once per configuration.

    Several configurations are split across forked processes
    (:mod:`repro.sim.ooo.parallel`): contiguous slices of that grouping,
    balanced by replays and pre-pass builds, one per usable core.
    ``jobs=None`` forks only when the work clears
    :data:`~repro.sim.ooo.parallel.WORK_FLOOR`; ``jobs=N`` caps the
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

    procs = parallel.worker_count(jobs, len(configs),
                                  len(trace) * len(configs))
    if procs == 1:
        stats = run(order)
    else:
        labels = [g for g, (_, group) in enumerate(groups) for _ in group]
        # the key alone: holding the cached entry would keep its arrays
        # alive after the parent's shard replaces it
        cached_key = getattr(trace, _PREPASS_ATTR, (None,))[0]
        free = next((g for g, (key, _) in enumerate(groups)
                     if key == cached_key), None)
        shards = [order[a:b]
                  for a, b in parallel.split_grid(labels, free, procs)]
        # children inherit the replay table copy-on-write
        first = OoOSimulator(program, configs[order[0]], ext_defs=ext_defs)
        if first._fast_eligible():
            first._replay_tab(trace)
        stats = [s for part in parallel.run_forked(shards, run) for s in part]
    out: list = [None] * len(configs)
    for i, s in zip(order, stats):
        out[i] = s
    return out
