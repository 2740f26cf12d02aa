"""Tests for assembler line parsing."""

import struct

import pytest

from repro.asm import assemble
from repro.asm.parser import (
    parse_int,
    parse_line,
    parse_mem_operand,
    split_operands,
    strip_comment,
)
from repro.errors import AssemblerError


class TestStripComment:
    def test_hash(self):
        assert strip_comment("addu $1,$2,$3  # hi") == "addu $1,$2,$3"

    def test_semicolon(self):
        assert strip_comment("nop ; note") == "nop"

    def test_whole_line(self):
        assert strip_comment("# only comment") == ""

    def test_whitespace_trim(self):
        assert strip_comment("   nop   ") == "nop"


class TestParseLine:
    def test_blank_returns_none(self):
        assert parse_line("", 1) is None
        assert parse_line("   # comment", 2) is None

    def test_instruction(self):
        line = parse_line("addu $t0, $t1, $t2", 3)
        assert line.mnemonic == "addu"
        assert line.operands == ["$t0", "$t1", "$t2"]
        assert line.lineno == 3

    def test_label_only(self):
        line = parse_line("main:", 1)
        assert line.labels == ["main"]
        assert line.mnemonic is None

    def test_label_with_instruction(self):
        line = parse_line("loop: addiu $t0, $t0, -1", 1)
        assert line.labels == ["loop"]
        assert line.mnemonic == "addiu"

    def test_multiple_labels(self):
        line = parse_line("a: b: nop", 1)
        assert line.labels == ["a", "b"]

    def test_mnemonic_lowercased(self):
        assert parse_line("ADDU $1,$2,$3", 1).mnemonic == "addu"

    def test_directive(self):
        line = parse_line(".word 1, 2, 3", 1)
        assert line.mnemonic == ".word"
        assert line.operands == ["1", "2", "3"]


class TestParseInt:
    def test_decimal(self):
        assert parse_int("42") == 42
        assert parse_int("-7") == -7

    def test_hex(self):
        assert parse_int("0x10") == 16
        assert parse_int("-0x10") == -16
        assert parse_int("0XFF") == 255

    def test_binary(self):
        assert parse_int("0b101") == 5

    def test_char(self):
        assert parse_int("'A'") == 65

    def test_bad_literal(self):
        with pytest.raises(AssemblerError):
            parse_int("12abc", lineno=9)

    def test_error_carries_line(self):
        with pytest.raises(AssemblerError, match="line 9"):
            parse_int("zz", lineno=9)


class TestMemOperand:
    def test_simple(self):
        assert parse_mem_operand("4($sp)") == ("4", "$sp")

    def test_empty_offset(self):
        assert parse_mem_operand("($t0)") == ("0", "$t0")

    def test_negative_offset(self):
        assert parse_mem_operand("-8($fp)") == ("-8", "$fp")

    def test_malformed(self):
        with pytest.raises(AssemblerError):
            parse_mem_operand("4[$sp]")


class TestSplitOperands:
    def test_empty(self):
        assert split_operands("  ") == []

    def test_trimming(self):
        assert split_operands(" a ,  b ,c") == ["a", "b", "c"]


def data_of(directive: str) -> bytes:
    return assemble(f".data\nd: {directive}\n.text\nmain: halt").data


class TestIntDirectives:
    """``.word``/``.half``/``.byte`` lines: decimal lines take one packed
    conversion, anything else the per-operand parser; both give the
    same bytes and the same errors."""

    def test_decimal_line(self):
        assert data_of(".word 1, -2, 3") == struct.pack("<3i", 1, -2, 3)
        assert data_of(".half 7, -1") == struct.pack("<2h", 7, -1)
        assert data_of(".byte 1, 255, -128") == bytes([1, 255, 128])

    def test_hex_negative_and_char_literals(self):
        assert data_of(".word 0x10, -0x10, 'A', 0b101, -7") == struct.pack(
            "<5i", 16, -16, 65, 5, -7)
        assert data_of(".byte 'a', 0xff, -1") == bytes([97, 255, 255])
        assert data_of(".half 0x8000, -0x8000") == bytes(
            [0, 0x80, 0, 0x80])

    def test_wrap_at_the_signed_and_unsigned_limits(self):
        wrapped = struct.pack("<4i", 2**31 - 1, -(2**31), -(2**31), -1)
        assert data_of(".word 2147483647, 2147483648, -2147483648, "
                       "4294967295") == wrapped
        assert data_of(".word 0x7fffffff, 0x80000000, -0x80000000, "
                       "0xffffffff") == wrapped
        assert data_of(".half 65535, 32768") == bytes([255, 255, 0, 128])

    @pytest.mark.parametrize("directive, message", [
        (".word 1, 4294967296, 2", ".word value 4294967296 out of range"),
        (".word 1, -2147483649", ".word value -2147483649 out of range"),
        (".half 3, 65536", ".half value 65536 out of range"),
        (".byte -129, 1", ".byte value -129 out of range"),
        (".word 1, 2x, 3", "bad integer literal '2x'"),
        (".word 1, , 3", "bad integer literal ''"),
        (".byte 1, 300, zz", ".byte value 300 out of range"),
        (".byte 1, zz, 300", "bad integer literal 'zz'"),
    ])
    def test_bad_operand_mid_line(self, directive, message):
        with pytest.raises(AssemblerError) as err:
            data_of(directive)
        assert str(err.value) == f"line 2: {message}"
        assert err.value.line == 2
