"""The architectural (functional) simulator.

Executes a :class:`Program` exactly — this is the reference semantics the
timing model trusts, and the oracle the extended-instruction rewriter is
validated against (rewritten programs must produce identical final state).

Two paths run a program, the second the oracle of the first:

1. the native kernel (``sim/ooo/_functional.c``, loaded by
   :mod:`repro.sim.ooo.native`), the default where a C compiler exists.
   Python builds a flat code table per program (cached on the instance)
   and a node table of the ``ext`` configurations, and the kernel
   executes the whole run in place on the :class:`Memory` pages;
2. the reference loop (:meth:`FunctionalSimulator._run`), which
   pre-decodes instructions into flat tuples dispatched on a small
   integer kind. It runs when the kernel is unavailable (no compiler,
   ``native.disabled()``) or refuses the program, and whenever
   ``REPRO_SIM_REFERENCE=1`` is set. Its decode is built on first use.

Both give the same registers, memory, trace, step count, profile and
exceptions (docs/simulator.md, "Native functional kernel").
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping

from repro.errors import InvalidProgramError, MemoryFault, SimulationError
from repro.isa.encoding import TEXT_BASE
from repro.obs import get_recorder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, Opcode, opcode_info
from repro.isa.semantics import _EVAL  # shared dispatch table
from repro.program.program import DATA_BASE, STACK_TOP, Program
from repro.sim.memory import Memory
from repro.sim.trace import DynTrace
from repro.utils.bitops import effective_width, to_s32, to_u32

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.extdef import ExtInstDef

# decoded-instruction kinds
_K_ALU_REG = 0    # dst <- fn(regs[a], regs[b])
_K_ALU_IMM = 1    # dst <- fn(regs[a], imm)
_K_LUI = 2
_K_LOAD = 3
_K_STORE = 4
_K_BRANCH = 5
_K_J = 6
_K_JAL = 7
_K_JR = 8
_K_JALR = 9
_K_NOP = 10
_K_HALT = 11
_K_EXT = 12

# branch condition codes
_COND = {
    Opcode.BEQ: 0,
    Opcode.BNE: 1,
    Opcode.BLEZ: 2,
    Opcode.BGTZ: 3,
    Opcode.BLTZ: 4,
    Opcode.BGEZ: 5,
}

_LOAD_SPEC = {
    Opcode.LW: (4, True),
    Opcode.LH: (2, True),
    Opcode.LHU: (2, False),
    Opcode.LB: (1, True),
    Opcode.LBU: (1, False),
}
_STORE_SPEC = {Opcode.SW: 4, Opcode.SH: 2, Opcode.SB: 1}


@dataclass
class BitwidthProfile:
    """Max observed operand/result widths per static instruction.

    This is the reproduction of the paper's profiling tool (§4): "generates
    detailed profiles on operand bit-width". Widths use the min of the
    signed/unsigned interpretation (see :func:`effective_width`).
    """

    max_operand_width: list[int]
    max_result_width: list[int]

    @classmethod
    def empty(cls, n: int) -> "BitwidthProfile":
        return cls([0] * n, [0] * n)


@dataclass
class ExecutionResult:
    """Outcome of a functional run."""

    steps: int
    halted: bool
    regs: list[int]
    memory: Memory
    trace: DynTrace | None = None
    exec_counts: list[int] | None = None
    bitwidths: BitwidthProfile | None = None
    program: Program | None = None

    def reg(self, num: int) -> int:
        """Unsigned value of register ``num``."""
        return self.regs[num]

    def reg_signed(self, num: int) -> int:
        return to_s32(self.regs[num])


class FunctionalSimulator:
    """Architectural simulator for one program.

    Args:
        program: the program to execute.
        ext_defs: mapping of ``conf`` id -> :class:`ExtInstDef`. Required
            only if the program contains ``ext`` instructions (an
            unknown ``conf``, or one whose definition reads an input
            past the two register operands, raises
            :class:`SimulationError` here). The
            reference loop calls :meth:`ExtInstDef.evaluate`; the native
            kernel evaluates the definition's node table.
        memory: optionally a preconstructed memory (data image is loaded
            into it); a fresh one is created by default.
    """

    def __init__(
        self,
        program: Program,
        ext_defs: Mapping[int, "ExtInstDef"] | None = None,
        memory: Memory | None = None,
    ) -> None:
        program.validate()
        self.program = program
        self.ext_defs = dict(ext_defs or {})
        for index, instr in enumerate(program.text):
            if instr.op is not Opcode.EXT:
                continue
            ext = self.ext_defs.get(
                instr.conf if instr.conf is not None else -1)
            if ext is None:
                raise SimulationError(
                    f"instr {index}: ext references unknown conf {instr.conf}"
                )
            if any(ref[0] == "in" and ref[1] > 1
                   for node in ext.nodes for ref in (node.a, node.b)):
                raise SimulationError(
                    f"instr {index}: ext conf {instr.conf} reads an input "
                    f"past its two register operands"
                )
        self.memory = memory if memory is not None else Memory()
        self.memory.load_image(DATA_BASE, program.data)

    @cached_property
    def _decoded(self) -> list[tuple]:
        """The reference decode, built when the reference loop or a
        single step first needs it."""
        return [self._decode(ins) for ins in self.program.text]

    # ------------------------------------------------------------------

    def _decode(self, instr: Instruction) -> tuple:
        op = instr.op
        info = opcode_info(op)
        fmt = info.fmt
        if fmt is Fmt.R3:
            return (_K_ALU_REG, _EVAL[op], instr.rd, instr.rs, instr.rt)
        if fmt is Fmt.R2_IMM:
            imm = to_u32(instr.imm or 0)
            return (_K_ALU_IMM, _EVAL[op], instr.rt, instr.rs, imm)
        if fmt is Fmt.SHIFT_IMM:
            return (_K_ALU_IMM, _EVAL[op], instr.rd, instr.rs, instr.imm or 0)
        if fmt is Fmt.LUI:
            return (_K_LUI, to_u32((instr.imm or 0) << 16), instr.rt)
        if fmt is Fmt.MEM:
            if instr.is_load:
                size, signed = _LOAD_SPEC[op]
                return (_K_LOAD, size, signed, instr.rt, instr.rs, instr.imm or 0)
            return (_K_STORE, _STORE_SPEC[op], instr.rt, instr.rs, instr.imm or 0)
        if fmt in (Fmt.BR2, Fmt.BR1):
            target = self.program.target_index(instr)
            return (_K_BRANCH, _COND[op], instr.rs, instr.rt or 0, target)
        if fmt is Fmt.J:
            target = self.program.target_index(instr)
            if op is Opcode.JAL:
                return (_K_JAL, target)
            return (_K_J, target)
        if fmt is Fmt.JR:
            return (_K_JR, instr.rs)
        if fmt is Fmt.JALR:
            return (_K_JALR, instr.rd, instr.rs)
        if fmt is Fmt.EXT:
            ext = self.ext_defs[instr.conf if instr.conf is not None else -1]
            return (_K_EXT, ext, instr.rd, instr.rs, instr.rt or 0)
        if op is Opcode.HALT:
            return (_K_HALT,)
        return (_K_NOP,)

    # ------------------------------------------------------------------

    def run(
        self,
        max_steps: int = 50_000_000,
        collect_trace: bool = False,
        profile: bool = False,
        entry_label: str = "main",
    ) -> ExecutionResult:
        """Execute until ``halt`` (or ``max_steps``; then SimulationError).

        With ``collect_trace`` the result carries a :class:`DynTrace`; with
        ``profile`` it carries per-static-instruction execution counts and
        the bitwidth profile.
        """
        rec = get_recorder()
        if not rec.enabled:
            return self._execute(max_steps, collect_trace, profile, entry_label)
        with rec.span(
            "sim.functional", program=self.program.name,
            trace=collect_trace, profile=profile,
        ) as attrs:
            result = self._execute(max_steps, collect_trace, profile, entry_label)
            attrs["steps"] = result.steps
        rec.counter("sim.functional.runs", program=self.program.name).inc()
        rec.counter("sim.functional.steps", program=self.program.name).inc(
            result.steps
        )
        return result

    def _execute(
        self,
        max_steps: int,
        collect_trace: bool,
        profile: bool,
        entry_label: str,
    ) -> ExecutionResult:
        if os.environ.get("REPRO_SIM_REFERENCE", "") not in ("1", "true"):
            result = self._run_native(
                max_steps, collect_trace, profile, entry_label
            )
            if result is not None:
                return result
        return self._run(max_steps, collect_trace, profile, entry_label)

    def _run_native(
        self,
        max_steps: int,
        collect_trace: bool,
        profile: bool,
        entry_label: str,
    ) -> ExecutionResult | None:
        """The run through the native kernel; None, before anything ran,
        when the kernel is unavailable or refuses the program (see
        docs/simulator.md, "Native functional kernel")."""
        from repro.sim.ooo import native

        if not native.available() or type(self.memory) is not Memory:
            return None
        table = _native_code(self.program)
        if table is None:
            return None
        code, confs = table
        nodes, spans = array("q"), array("q")
        for conf in confs:
            flat = _native_nodes(self.ext_defs[conf].key)
            if flat is None:
                return None
            spans.extend((len(nodes) // native.NODE_WIDTH,
                          len(flat) // native.NODE_WIDTH))
            nodes.extend(flat)
        regs = [0] * 32
        regs[29] = STACK_TOP
        run = native.functional(
            code, nodes, spans, self.memory, regs,
            self.program.labels.get(entry_label, 0), max_steps,
            collect_trace, profile,
        )
        if run is None:
            return None
        state, status = run.state, run.status
        aux = state[native.S_AUX]
        if status == native.F_STEPS:
            raise SimulationError(
                f"program did not halt within {max_steps} steps"
            )
        if status == native.F_PC:
            raise SimulationError(
                f"PC out of text segment: index {state[native.S_PC]}"
            )
        if status == native.F_BADTEXT:
            raise InvalidProgramError(f"bad text address {aux:#x}")
        if status == native.F_MISALIGNED:
            raise MemoryFault(
                f"misaligned {state[native.S_AUX2]}-byte access at "
                f"{aux:#010x}", aux,
            )
        if status == native.F_UNMAPPED:
            raise MemoryFault(f"read from unmapped address {aux:#010x}", aux)
        return ExecutionResult(
            steps=state[native.S_STEPS],
            halted=True,
            regs=state[native.S_REGS:].tolist(),
            memory=self.memory,
            trace=DynTrace(*run.trace) if run.trace is not None else None,
            exec_counts=run.counts.tolist() if profile else None,
            bitwidths=BitwidthProfile(*(w.tolist() for w in run.widths))
            if profile else None,
            program=self.program,
        )

    def _run(
        self,
        max_steps: int,
        collect_trace: bool,
        profile: bool,
        entry_label: str,
    ) -> ExecutionResult:
        program = self.program
        n = len(program.text)
        pc = program.labels.get(entry_label, 0)
        regs = [0] * 32
        regs[29] = STACK_TOP  # $sp
        trace = DynTrace() if collect_trace else None
        counts = [0] * n if profile else None
        widths = BitwidthProfile.empty(n) if profile else None
        step = self._step_one

        steps = 0
        halted = False
        while steps < max_steps:
            steps += 1
            pc = step(pc, regs, trace, counts, widths)
            if pc == -1:
                halted = True
                break
        if not halted:
            raise SimulationError(f"program did not halt within {max_steps} steps")

        return ExecutionResult(
            steps=steps,
            halted=halted,
            regs=regs,
            memory=self.memory,
            trace=trace,
            exec_counts=counts,
            bitwidths=widths,
            program=program,
        )

    # ------------------------------------------------------------------

    def _step_one(
        self,
        pc: int,
        regs: list[int],
        trace: DynTrace | None,
        counts: list[int] | None = None,
        widths: BitwidthProfile | None = None,
    ) -> int:
        """Execute exactly one instruction with reference semantics.

        The reference loop is this, once per step. Returns the next
        static index, or -1 if this instruction was ``halt``. Profiling
        runs pass ``counts``/``widths``.
        """
        if not 0 <= pc < len(self._decoded):
            raise SimulationError(f"PC out of text segment: index {pc}")
        d = self._decoded[pc]
        kind = d[0]
        mem = self.memory
        cur = pc
        pc += 1
        addr = -1

        if kind == _K_ALU_REG:
            _, fn, dst, a, b = d
            va, vb = regs[a], regs[b]
            value = fn(va, vb)
            if dst:
                regs[dst] = value
            if widths is not None:
                w = effective_width(va)
                w2 = effective_width(vb)
                if w2 > w:
                    w = w2
                if w > widths.max_operand_width[cur]:
                    widths.max_operand_width[cur] = w
                rw = effective_width(value)
                if rw > widths.max_result_width[cur]:
                    widths.max_result_width[cur] = rw
        elif kind == _K_ALU_IMM:
            _, fn, dst, a, imm = d
            va = regs[a]
            value = fn(va, imm)
            if dst:
                regs[dst] = value
            if widths is not None:
                w = effective_width(va)
                w2 = effective_width(imm)
                if w2 > w:
                    w = w2
                if w > widths.max_operand_width[cur]:
                    widths.max_operand_width[cur] = w
                rw = effective_width(value)
                if rw > widths.max_result_width[cur]:
                    widths.max_result_width[cur] = rw
        elif kind == _K_LOAD:
            _, size, signed, rt, rs, off = d
            addr = to_u32(regs[rs] + off)
            if size == 4:
                value = mem.read_word(addr)
            elif size == 2:
                value = mem.read_half(addr)
                if signed and value & 0x8000:
                    value |= 0xFFFF_0000
            else:
                value = mem.read_byte(addr)
                if signed and value & 0x80:
                    value |= 0xFFFF_FF00
            if rt:
                regs[rt] = value
        elif kind == _K_STORE:
            _, size, rt, rs, off = d
            addr = to_u32(regs[rs] + off)
            value = regs[rt]
            if size == 4:
                mem.write_word(addr, value)
            elif size == 2:
                mem.write_half(addr, value)
            else:
                mem.write_byte(addr, value)
        elif kind == _K_BRANCH:
            _, cond, rs, rt, target = d
            va = regs[rs]
            if cond == 0:
                taken = va == regs[rt]
            elif cond == 1:
                taken = va != regs[rt]
            else:
                sa = to_s32(va)
                if cond == 2:
                    taken = sa <= 0
                elif cond == 3:
                    taken = sa > 0
                elif cond == 4:
                    taken = sa < 0
                else:
                    taken = sa >= 0
            if taken:
                pc = target
        elif kind == _K_EXT:
            _, ext, dst, rs, rt = d
            va, vb = regs[rs], regs[rt]
            value = ext.evaluate(va, vb)
            if dst:
                regs[dst] = value
            if widths is not None:
                w = max(effective_width(va), effective_width(vb))
                if w > widths.max_operand_width[cur]:
                    widths.max_operand_width[cur] = w
        elif kind == _K_LUI:
            _, value, dst = d
            if dst:
                regs[dst] = value
        elif kind == _K_J:
            pc = d[1]
        elif kind == _K_JAL:
            regs[31] = TEXT_BASE + 4 * pc
            pc = d[1]
        elif kind == _K_JR:
            pc = self.program.index_of_pc(regs[d[1]])
        elif kind == _K_JALR:
            _, rd, rs = d
            ret = TEXT_BASE + 4 * pc
            pc = self.program.index_of_pc(regs[rs])
            if rd:
                regs[rd] = ret
        elif kind == _K_HALT:
            pc = -1
        # _K_NOP: nothing

        if trace is not None:
            trace.append(cur, addr)
        if counts is not None:
            counts[cur] += 1
        return pc


#: the kernel's ALU operations in ``_functional.c``'s ``A_*`` order;
#: every opcode maps to the one sharing its evaluation function
_NATIVE_ALU_OPS = (
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOR,
    Opcode.SLT, Opcode.SLTU, Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.MUL,
    Opcode.DIV, Opcode.REM, Opcode.LUI,
)
_NATIVE_ALU = {
    op: code
    for op, fn in _EVAL.items()
    for code, rep in enumerate(_NATIVE_ALU_OPS)
    if _EVAL[rep] is fn
}
#: ``_functional.c`` operand kinds of an ext node
_REF_IN, _REF_NODE, _REF_CONST = range(3)
#: values per code row (``_functional.c`` ``C_WIDTH``)
_CODE_WIDTH = 6
_NATIVE_CACHE_ATTR = "_native_code_cache"


def _native_row(program: Program, instr: Instruction, confs: dict) -> tuple:
    """One instruction's ``_functional.c`` code row, as ``_decode``
    decodes it. A source register of None (which the reference loop
    cannot read) is left in the row, so the program is refused."""
    op = instr.op
    fmt = opcode_info(op).fmt
    if fmt is Fmt.R3:
        return (_K_ALU_REG, _NATIVE_ALU.get(op), instr.rd or 0, instr.rs,
                instr.rt)
    if fmt is Fmt.R2_IMM:
        return (_K_ALU_IMM, _NATIVE_ALU.get(op), instr.rt or 0, instr.rs,
                to_u32(instr.imm or 0))
    if fmt is Fmt.SHIFT_IMM:
        # the shift and its width see the immediate through to_u32 too
        return (_K_ALU_IMM, _NATIVE_ALU.get(op), instr.rd or 0, instr.rs,
                to_u32(instr.imm or 0))
    if fmt is Fmt.LUI:
        return (_K_LUI, to_u32((instr.imm or 0) << 16), instr.rt or 0)
    if fmt is Fmt.MEM:
        offset = to_u32(instr.imm or 0)
        if instr.is_load:
            size, signed = _LOAD_SPEC[op]
            return (_K_LOAD, size, int(signed), instr.rt or 0, instr.rs,
                    offset)
        return (_K_STORE, _STORE_SPEC[op], instr.rt, instr.rs, offset)
    if fmt in (Fmt.BR2, Fmt.BR1):
        return (_K_BRANCH, _COND[op], instr.rs, instr.rt or 0,
                program.target_index(instr))
    if fmt is Fmt.J:
        kind = _K_JAL if op is Opcode.JAL else _K_J
        return (kind, program.target_index(instr))
    if fmt is Fmt.JR:
        return (_K_JR, instr.rs)
    if fmt is Fmt.JALR:
        return (_K_JALR, instr.rd or 0, instr.rs)
    if fmt is Fmt.EXT:
        conf = instr.conf if instr.conf is not None else -1
        dense = confs.setdefault(conf, len(confs))
        return (_K_EXT, dense, instr.rd or 0, instr.rs, instr.rt or 0)
    if op is Opcode.HALT:
        return (_K_HALT,)
    return (_K_NOP,)


def _native_code(program: Program) -> tuple[array, tuple] | None:
    """The program's ``_functional.c`` code table and the ``conf`` ids
    its ext rows index, in order; None when an instruction has no row.
    Cached on the instance, keyed by the text list and its length."""
    cached = program.__dict__.get(_NATIVE_CACHE_ATTR)
    if cached is not None and cached[0] == id(program.text) \
            and cached[1] == len(program.text):
        return cached[2]
    confs: dict = {}
    flat: list = []
    for instr in program.text:
        row = _native_row(program, instr, confs)
        flat.extend(row)
        flat.extend((0,) * (_CODE_WIDTH - len(row)))
    try:
        table = (array("q", flat), tuple(confs))
    except (TypeError, OverflowError):     # a None or non-int field
        table = None
    program.__dict__[_NATIVE_CACHE_ATTR] = (
        id(program.text), len(program.text), table
    )
    return table


@lru_cache(maxsize=4096)
def _native_nodes(key: tuple) -> tuple[int, ...] | None:
    """``_functional.c``'s node rows of a configuration, from its
    :attr:`~repro.extinst.extdef.ExtInstDef.key`; None when a node's
    opcode has no native ALU code."""
    flat: list[int] = []
    for op_value, *refs in key[:-1]:
        alu = _NATIVE_ALU.get(Opcode(op_value))
        if alu is None:
            return None
        flat.append(alu)
        for ref in refs:
            kind = ref[0]
            if kind == "in":
                flat += (_REF_IN, ref[1])
            elif kind == "node":
                flat += (_REF_NODE, ref[1])
            elif kind == "imm":
                flat += (_REF_CONST, ref[1] & 0xFFFF_FFFF)
            else:
                flat += (_REF_CONST, 0)
    return tuple(flat)


def run_program(
    program: Program,
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    **kwargs,
) -> ExecutionResult:
    """Convenience one-shot execution."""
    return FunctionalSimulator(program, ext_defs=ext_defs).run(**kwargs)
