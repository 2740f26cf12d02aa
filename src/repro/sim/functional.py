"""The architectural (functional) simulator.

Executes a :class:`Program` exactly — this is the reference semantics the
timing model trusts, and the oracle the extended-instruction rewriter is
validated against (rewritten programs must produce identical final state).

Instructions are pre-decoded into flat tuples dispatched on a small
integer kind; this keeps the interpreter loop simple and fast without a
separate compilation step (see the profiling guidance in the HPC notes:
make it work, measure, then optimise the hot loop only).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError
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
            only if the program contains ``ext`` instructions. The
            reference loop calls :meth:`ExtInstDef.evaluate`; the fast
            path calls the definition's compiled evaluator
            (:func:`repro.sim.compile.compile_ext`).
        memory: optionally a preconstructed memory (data image is loaded
            into it); a fresh one is created by default.
    """

    def __init__(
        self,
        program: Program,
        ext_defs: Mapping[int, "ExtInstDef"] | None = None,
        memory: Memory | None = None,
        compile_blocks: bool | None = None,
    ) -> None:
        """``compile_blocks`` selects the execution path: ``True`` forces
        the block-compiled fast interpreter (:mod:`repro.sim.compile`),
        ``False`` forces the reference loop, and ``None`` (default) uses
        the fast path unless ``REPRO_SIM_REFERENCE=1`` is set. Profiling
        runs use a profiling variant of the compiled blocks."""
        program.validate()
        self.program = program
        self.ext_defs = dict(ext_defs or {})
        self.memory = memory if memory is not None else Memory()
        self.memory.load_image(DATA_BASE, program.data)
        self.compile_blocks = compile_blocks
        self._decoded = [self._decode(i, ins) for i, ins in enumerate(program.text)]

    # ------------------------------------------------------------------

    def _decode(self, index: int, instr: Instruction) -> tuple:
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
            ext = self.ext_defs.get(instr.conf if instr.conf is not None else -1)
            if ext is None:
                raise SimulationError(
                    f"instr {index}: ext references unknown conf {instr.conf}"
                )
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

    def _use_fast_path(self) -> bool:
        """The block-compiled path runs everything (profiling runs use a
        profiling block variant) except explicitly forced reference
        runs."""
        if self.compile_blocks is not None:
            return self.compile_blocks
        return os.environ.get("REPRO_SIM_REFERENCE", "") not in ("1", "true")

    def _execute(
        self,
        max_steps: int,
        collect_trace: bool,
        profile: bool,
        entry_label: str,
    ) -> ExecutionResult:
        if self._use_fast_path():
            from repro.sim.compile import run_compiled

            return run_compiled(
                self, max_steps, collect_trace, entry_label, profile
            )
        return self._run(max_steps, collect_trace, profile, entry_label)

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
        mem = self.memory
        decoded = self._decoded
        text = program.text

        trace = DynTrace() if collect_trace else None
        counts = [0] * n if profile else None
        widths = BitwidthProfile.empty(n) if profile else None

        steps = 0
        halted = False
        while steps < max_steps:
            if not 0 <= pc < n:
                raise SimulationError(f"PC out of text segment: index {pc}")
            d = decoded[pc]
            kind = d[0]
            steps += 1
            cur = pc
            pc += 1
            addr = -1

            if kind == _K_ALU_REG:
                _, fn, dst, a, b = d
                va, vb = regs[a], regs[b]
                value = fn(va, vb)
                if dst:
                    regs[dst] = value
                if profile:
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
                if profile:
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
                if profile:
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
                pc = program.index_of_pc(regs[d[1]])
            elif kind == _K_JALR:
                _, rd, rs = d
                ret = TEXT_BASE + 4 * pc
                pc = program.index_of_pc(regs[rs])
                if rd:
                    regs[rd] = ret
            elif kind == _K_HALT:
                halted = True
                if trace is not None:
                    trace.append(cur, -1)
                if counts is not None:
                    counts[cur] += 1
                break
            # _K_NOP: nothing

            if trace is not None:
                trace.append(cur, addr)
            if counts is not None:
                counts[cur] += 1

        if not halted and steps >= max_steps:
            raise SimulationError(f"program did not halt within {max_steps} steps")

        return ExecutionResult(
            steps=steps,
            halted=halted,
            regs=regs,
            memory=mem,
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

        This is the block-compiled runner's escape hatch (``ext``
        instructions, dynamic jumps into the middle of a block, the last
        instructions of a near-exhausted step budget). Returns the next
        static index, or -1 if this instruction was ``halt``. Profiling
        runs pass ``counts``/``widths`` so fallback steps keep the same
        profile bookkeeping as the reference loop.
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


def run_program(
    program: Program,
    ext_defs: Mapping[int, "ExtInstDef"] | None = None,
    **kwargs,
) -> ExecutionResult:
    """Convenience one-shot execution."""
    return FunctionalSimulator(program, ext_defs=ext_defs).run(**kwargs)
