"""The two-pass assembler.

Pass 1 lays out the data segment (so ``la`` can resolve data symbols) and
collects text labels per expanded-instruction index; because pseudo-op
expansion lengths depend only on operand values (not on label addresses —
branch targets stay symbolic), a single expansion pass suffices for text.
"""

from __future__ import annotations

import struct

from repro.errors import AssemblerError
from repro.asm.parser import (
    SourceLine,
    parse_int,
    parse_line,
    parse_mem_operand,
)
from repro.asm.pseudo import PSEUDO_OPS, OperandParser
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, Opcode, opcode_by_name, opcode_info
from repro.isa.registers import reg_num
from repro.program.program import DATA_BASE, Program

_DATA_DIRECTIVES = {".word", ".half", ".byte", ".space", ".align", ".ascii", ".asciiz"}


def assemble(source: str, name: str = "program") -> Program:
    """Assemble ``source`` into a validated :class:`Program`."""
    lines = [
        parsed
        for lineno, raw in enumerate(source.splitlines(), start=1)
        if (parsed := parse_line(raw, lineno)) is not None
    ]
    data, symbols = _layout_data(lines)
    text, labels = _assemble_text(lines, symbols)
    program = Program(
        text=text, labels=labels, data=bytes(data), symbols=symbols, name=name
    )
    program.validate()
    return program


# ----------------------------------------------------------------------
# data segment


def _layout_data(lines: list[SourceLine]) -> tuple[bytearray, dict[str, int]]:
    data = bytearray()
    symbols: dict[str, int] = {}
    section = ".text"
    for line in lines:
        if line.mnemonic in (".text", ".data"):
            section = line.mnemonic
            _attach_data_labels(line, data, symbols, section)
            continue
        if section != ".data":
            continue
        _attach_data_labels(line, data, symbols, section)
        mn = line.mnemonic
        if mn is None:
            continue
        if mn not in _DATA_DIRECTIVES:
            raise AssemblerError(
                f"unexpected {mn!r} in .data section", line.lineno
            )
        if mn == ".align":
            if len(line.operands) != 1:
                raise AssemblerError(".align expects one operand", line.lineno)
            power = parse_int(line.operands[0], line.lineno)
            _align(data, 1 << power)
            _reattach_labels(line, data, symbols)
        elif mn == ".space":
            if len(line.operands) != 1:
                raise AssemblerError(".space expects one operand", line.lineno)
            count = parse_int(line.operands[0], line.lineno)
            if count < 0:
                raise AssemblerError(".space size must be >= 0", line.lineno)
            data.extend(b"\x00" * count)
        elif mn in (".ascii", ".asciiz"):
            text = ",".join(line.operands).strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError(f"{mn} expects a quoted string", line.lineno)
            payload = text[1:-1].encode("utf-8").decode("unicode_escape")
            data.extend(payload.encode("latin-1"))
            if mn == ".asciiz":
                data.append(0)
        else:
            _align(data, _INT_DIRECTIVES[mn][0])
            _reattach_labels(line, data, symbols)
            data.extend(_int_bytes(mn, line))
    return data, symbols


#: integer directive -> (size in bytes, unsigned struct code)
_INT_DIRECTIVES = {".word": (4, "I"), ".half": (2, "H"), ".byte": (1, "B")}


def _int_bytes(mn: str, line: SourceLine) -> bytes:
    """The bytes of an integer directive's operands, each signed or
    unsigned (``-1`` and ``0xffffffff`` are the same word).

    A line of in-range decimal literals, which is what
    :class:`~repro.asm.builder.AsmBuilder` emits, converts with ``int``
    alone (it accepts exactly the decimal literals :func:`parse_int`
    does).  Any other line goes operand by operand through
    :func:`parse_int`, so the first bad operand raises its own error.
    """
    size, code = _INT_DIRECTIVES[mn]
    lo, hi = -(1 << (8 * size - 1)), 1 << (8 * size)
    try:
        values = [int(operand) for operand in line.operands]
        in_range = not values or lo <= min(values) and max(values) < hi
    except ValueError:
        in_range = False
    if not in_range:
        values = []
        for operand in line.operands:
            value = parse_int(operand, line.lineno)
            if not lo <= value < hi:
                raise AssemblerError(
                    f"{mn} value {value} out of range", line.lineno
                )
            values.append(value)
    return struct.pack(f"<{len(values)}{code}",
                       *[value & (hi - 1) for value in values])


def _align(data: bytearray, boundary: int) -> None:
    while len(data) % boundary:
        data.append(0)


def _attach_data_labels(
    line: SourceLine, data: bytearray, symbols: dict[str, int], section: str
) -> None:
    if section != ".data":
        return
    for label in line.labels:
        if label in symbols:
            raise AssemblerError(f"duplicate data symbol {label!r}", line.lineno)
        symbols[label] = DATA_BASE + len(data)


def _reattach_labels(
    line: SourceLine, data: bytearray, symbols: dict[str, int]
) -> None:
    """After aligning, move this line's labels to the aligned address."""
    for label in line.labels:
        symbols[label] = DATA_BASE + len(data)


# ----------------------------------------------------------------------
# text segment


def _assemble_text(
    lines: list[SourceLine], symbols: dict[str, int]
) -> tuple[list[Instruction], dict[str, int]]:
    text: list[Instruction] = []
    labels: dict[str, int] = {}
    section = ".text"

    def resolve_symbol(token: str) -> int | None:
        return symbols.get(token)

    for line in lines:
        if line.mnemonic in (".text", ".data"):
            section = line.mnemonic
            continue
        if section != ".text":
            continue
        for label in line.labels:
            if label in labels:
                raise AssemblerError(f"duplicate label {label!r}", line.lineno)
            labels[label] = len(text)
        if line.mnemonic is None:
            continue
        if line.mnemonic.startswith("."):
            raise AssemblerError(
                f"directive {line.mnemonic!r} not allowed in .text", line.lineno
            )
        text.extend(_expand(line, resolve_symbol))
    return text, labels


def _expand(line: SourceLine, resolve_symbol) -> list[Instruction]:
    mnemonic = line.mnemonic
    assert mnemonic is not None
    ops = line.operands
    lineno = line.lineno

    pseudo = PSEUDO_OPS.get(mnemonic)
    if pseudo is not None:
        parser = OperandParser(
            resolve_symbol, lambda t: parse_int(t, lineno), lineno
        )
        return pseudo(ops, parser)

    op = opcode_by_name(mnemonic)
    if op is None:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", lineno)
    return [_parse_real(op, ops, lineno)]


def _need(ops: list[str], n: int, op: Opcode, lineno: int) -> None:
    if len(ops) != n:
        raise AssemblerError(f"{op} expects {n} operands, got {len(ops)}", lineno)


def _parse_real(op: Opcode, ops: list[str], lineno: int) -> Instruction:
    fmt = opcode_info(op).fmt
    if fmt is Fmt.R3:
        _need(ops, 3, op, lineno)
        return Instruction(
            op, rd=reg_num(ops[0]), rs=reg_num(ops[1]), rt=reg_num(ops[2])
        )
    if fmt is Fmt.R2_IMM:
        _need(ops, 3, op, lineno)
        return Instruction(
            op, rt=reg_num(ops[0]), rs=reg_num(ops[1]), imm=parse_int(ops[2], lineno)
        )
    if fmt is Fmt.SHIFT_IMM:
        _need(ops, 3, op, lineno)
        shamt = parse_int(ops[2], lineno)
        if not 0 <= shamt < 32:
            raise AssemblerError(f"{op}: shift amount {shamt} out of range", lineno)
        return Instruction(op, rd=reg_num(ops[0]), rs=reg_num(ops[1]), imm=shamt)
    if fmt is Fmt.LUI:
        _need(ops, 2, op, lineno)
        return Instruction(op, rt=reg_num(ops[0]), imm=parse_int(ops[1], lineno))
    if fmt is Fmt.MEM:
        _need(ops, 2, op, lineno)
        off_text, base = parse_mem_operand(ops[1], lineno)
        return Instruction(
            op, rt=reg_num(ops[0]), rs=reg_num(base), imm=parse_int(off_text, lineno)
        )
    if fmt is Fmt.BR2:
        _need(ops, 3, op, lineno)
        return Instruction(op, rs=reg_num(ops[0]), rt=reg_num(ops[1]), target=ops[2])
    if fmt is Fmt.BR1:
        _need(ops, 2, op, lineno)
        return Instruction(op, rs=reg_num(ops[0]), target=ops[1])
    if fmt is Fmt.J:
        _need(ops, 1, op, lineno)
        return Instruction(op, target=ops[0])
    if fmt is Fmt.JR:
        _need(ops, 1, op, lineno)
        return Instruction(op, rs=reg_num(ops[0]))
    if fmt is Fmt.JALR:
        _need(ops, 2, op, lineno)
        return Instruction(op, rd=reg_num(ops[0]), rs=reg_num(ops[1]))
    if fmt is Fmt.EXT:
        _need(ops, 4, op, lineno)
        return Instruction(
            op,
            rd=reg_num(ops[0]),
            rs=reg_num(ops[1]),
            rt=reg_num(ops[2]),
            conf=parse_int(ops[3], lineno),
        )
    # Fmt.NONE
    _need(ops, 0, op, lineno)
    return Instruction(op)
