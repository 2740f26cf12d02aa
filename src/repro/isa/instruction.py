"""The :class:`Instruction` record.

One Instruction is one static machine operation. Control-flow targets are
kept *symbolic* (label strings) so that program transformations — in
particular the extended-instruction rewriter, which deletes folded
instructions — never need to patch numeric branch offsets; addresses are
materialised only by the encoder and the simulators.

Operand conventions (uniform, simpler than MIPS):

=============  =========================================  ==============
format         assembly                                   dataflow
=============  =========================================  ==============
R3             ``op rd, rs, rt``                          rd <- rs op rt
R2_IMM         ``op rt, rs, imm``                         rt <- rs op imm
SHIFT_IMM      ``op rd, rs, shamt``                       rd <- rs op shamt
LUI            ``lui rt, imm``                            rt <- imm << 16
MEM            ``op rt, offset(rs)``                      load: rt <- M[rs+offset]
BR2/BR1        ``op rs[, rt], label``
J / JR / JALR  ``j label`` / ``jr rs`` / ``jalr rd, rs``
EXT            ``ext rd, rs, rt, conf``                   rd <- PFU(rs, rt)
=============  =========================================  ==============

Variable shifts (``sllv rd, rs, rt``) shift ``rs`` by ``rt`` — the same
operand order as every other R3 instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.isa.opcodes import Fmt, OpClass, Opcode, OpcodeInfo, opcode_info
from repro.isa.registers import reg_name
from repro.utils.bitops import to_s32


@dataclass(frozen=True)
class Instruction:
    """A single static instruction.

    Unused fields are ``None``. Instances are immutable; transformations
    produce new instructions via :func:`dataclasses.replace`.
    """

    op: Opcode
    rd: int | None = None
    rs: int | None = None
    rt: int | None = None
    imm: int | None = None          # immediate / shift amount / memory offset
    target: str | None = None       # symbolic branch/jump target label
    conf: int | None = None         # PFU configuration id (EXT only)

    # ------------------------------------------------------------------
    # metadata accessors

    @property
    def info(self) -> OpcodeInfo:
        return opcode_info(self.op)

    @property
    def op_class(self) -> OpClass:
        return self.info.op_class

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_mem(self) -> bool:
        return self.op_class in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_branch(self) -> bool:
        return self.op_class is OpClass.BRANCH

    @property
    def is_control(self) -> bool:
        return self.op_class in (OpClass.BRANCH, OpClass.JUMP, OpClass.HALT)

    @property
    def is_ext(self) -> bool:
        return self.op is Opcode.EXT

    # ------------------------------------------------------------------
    # register dataflow

    def defs(self) -> tuple[int, ...]:
        """Registers this instruction writes (may include $zero; writes to
        $zero are architectural no-ops and discarded by the simulators)."""
        fmt = self.info.fmt
        if fmt in (Fmt.R3, Fmt.SHIFT_IMM, Fmt.JALR, Fmt.EXT):
            return (self.rd,)  # type: ignore[return-value]
        if fmt in (Fmt.R2_IMM, Fmt.LUI):
            return (self.rt,)  # type: ignore[return-value]
        if fmt is Fmt.MEM and self.is_load:
            return (self.rt,)  # type: ignore[return-value]
        if self.op is Opcode.JAL:
            return (31,)  # $ra
        return ()

    def uses(self) -> tuple[int, ...]:
        """Registers this instruction reads, in operand order."""
        fmt = self.info.fmt
        if fmt is Fmt.R3:
            return (self.rs, self.rt)  # type: ignore[return-value]
        if fmt in (Fmt.R2_IMM, Fmt.SHIFT_IMM):
            return (self.rs,)  # type: ignore[return-value]
        if fmt is Fmt.MEM:
            if self.is_store:
                return (self.rs, self.rt)  # type: ignore[return-value]
            return (self.rs,)  # type: ignore[return-value]
        if fmt is Fmt.BR2:
            return (self.rs, self.rt)  # type: ignore[return-value]
        if fmt is Fmt.BR1 or fmt in (Fmt.JR, Fmt.JALR):
            return (self.rs,)  # type: ignore[return-value]
        if fmt is Fmt.EXT:
            srcs = [self.rs]
            if self.rt is not None and self.rt != 0:
                srcs.append(self.rt)
            return tuple(srcs)  # type: ignore[return-value]
        return ()

    # ------------------------------------------------------------------
    # rendering

    def render(self) -> str:
        """Assembly text for this instruction."""
        fmt = self.info.fmt
        name = self.op.value

        def r(num: int | None) -> str:
            assert num is not None, f"missing register in {name}"
            return f"${reg_name(num)}"

        if fmt is Fmt.R3:
            return f"{name} {r(self.rd)}, {r(self.rs)}, {r(self.rt)}"
        if fmt is Fmt.R2_IMM:
            return f"{name} {r(self.rt)}, {r(self.rs)}, {to_s32(self.imm or 0)}"
        if fmt is Fmt.SHIFT_IMM:
            return f"{name} {r(self.rd)}, {r(self.rs)}, {self.imm}"
        if fmt is Fmt.LUI:
            return f"{name} {r(self.rt)}, {self.imm}"
        if fmt is Fmt.MEM:
            return f"{name} {r(self.rt)}, {to_s32(self.imm or 0)}({r(self.rs)})"
        if fmt is Fmt.BR2:
            return f"{name} {r(self.rs)}, {r(self.rt)}, {self.target}"
        if fmt is Fmt.BR1:
            return f"{name} {r(self.rs)}, {self.target}"
        if fmt is Fmt.J:
            return f"{name} {self.target}"
        if fmt is Fmt.JR:
            return f"{name} {r(self.rs)}"
        if fmt is Fmt.JALR:
            return f"{name} {r(self.rd)}, {r(self.rs)}"
        if fmt is Fmt.EXT:
            return f"{name} {r(self.rd)}, {r(self.rs)}, {r(self.rt)}, {self.conf}"
        return name  # NONE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()

    def with_regs(self, mapping: dict[int, int]) -> "Instruction":
        """Return a copy with register operands renamed through ``mapping``.

        Registers absent from the mapping are left unchanged. Used by tests
        (canonicalisation invariance) and the workload builder.
        """

        def m(reg: int | None) -> int | None:
            if reg is None:
                return None
            return mapping.get(reg, reg)

        return replace(self, rd=m(self.rd), rs=m(self.rs), rt=m(self.rt))
