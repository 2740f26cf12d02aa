"""Tests for the profile report renderer and bitstream generation."""

import pytest

from repro.asm import assemble
from repro.errors import ExtInstError
from repro.extinst import SelectionParams
from repro.extinst.extdef import sequential_chain
from repro.hwcost import config_bits, estimate_cost, generate_bitstream, parse_header
from repro.hwcost.bitstream import Bitstream, bitstream_table
from repro.isa.opcodes import Opcode as O
from repro.profiling import profile_program
from repro.profiling.report import (
    annotated_listing,
    class_summary,
    full_report,
    loop_summary,
    width_histogram,
)

SRC = """
.text
main:
    li $s0, 100
loop:
    sll $t2, $s0, 2
    addu $t2, $t2, $s0
    sw $t2, 0($sp)
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""


@pytest.fixture(scope="module")
def profile():
    return profile_program(assemble(SRC))


class TestReport:
    def test_annotated_listing_counts(self, profile):
        text = annotated_listing(profile)
        assert "loop:" in text
        assert "100" in text          # loop-body count
        assert "sll $t2, $s0, 2" in text

    def test_candidate_marker(self, profile):
        lines = annotated_listing(profile).splitlines()
        sll_line = next(l for l in lines if "sll $t2" in l)
        assert " * " in sll_line or "*" in sll_line.split()[3]
        sw_line = next(l for l in lines if "sw $t2" in l)
        assert "*" not in sw_line.split("sw")[0][-8:]

    def test_min_count_filters(self, profile):
        all_lines = annotated_listing(profile, min_count=0)
        hot_lines = annotated_listing(profile, min_count=2)
        assert len(hot_lines) < len(all_lines)

    def test_loop_summary(self, profile):
        text = loop_summary(profile)
        assert "loop" in text and "share" in text

    def test_class_summary_shares_sum(self, profile):
        text = class_summary(profile)
        assert "alu" in text
        assert "%" in text

    def test_width_histogram(self, profile):
        text = width_histogram(profile)
        assert "1-8" in text

    def test_full_report(self, profile):
        text = full_report(profile)
        for section in ("instruction mix", "operand widths",
                        "hottest loops", "annotated listing"):
            assert section in text

    def test_cli_profile_command(self, capsys):
        from repro.harness.cli import main

        assert main(["profile", "epic"]) == 0
        assert "instruction mix" in capsys.readouterr().out


def chain2():
    return sequential_chain([
        (O.SLL, ("in", 0), ("imm", 4)),
        (O.ADDU, ("node", 0), ("in", 0)),
    ])


class TestBitstream:
    def test_size_matches_model(self):
        d = chain2()
        stream = generate_bitstream(3, d)
        expected_bits = config_bits(estimate_cost(d).luts)
        assert stream.bits >= expected_bits
        assert stream.bits % 8 == 0

    def test_header_roundtrip(self):
        d = chain2()
        stream = generate_bitstream(7, d)
        header = parse_header(stream)
        assert header["conf"] == 7
        assert header["n_nodes"] == 2
        assert header["n_inputs"] == 1
        assert header["n_clbs"] == stream.n_clbs

    def test_distinct_configs_distinct_streams(self):
        a = generate_bitstream(0, chain2())
        b = generate_bitstream(0, sequential_chain([
            (O.SLL, ("in", 0), ("imm", 5)),
            (O.ADDU, ("node", 0), ("in", 0)),
        ]))
        assert a.data != b.data

    def test_deterministic(self):
        assert generate_bitstream(1, chain2()).data == \
            generate_bitstream(1, chain2()).data

    def test_checksum_detects_corruption(self):
        stream = generate_bitstream(1, chain2())
        corrupted = Bitstream(
            conf=1,
            data=bytes([stream.data[0] ^ 0xFF]) + stream.data[1:],
            n_clbs=stream.n_clbs,
        )
        with pytest.raises(ExtInstError):
            parse_header(corrupted)

    def test_bad_magic(self):
        stream = generate_bitstream(1, chain2())
        bad = Bitstream(conf=1, data=b"\x00\x00" + stream.data[2:],
                        n_clbs=stream.n_clbs)
        with pytest.raises(ExtInstError, match="magic|checksum"):
            parse_header(bad)

    def test_table_generation(self):
        table = bitstream_table({0: chain2(), 1: chain2()})
        assert set(table) == {0, 1}
        assert table[0].conf == 0

    def test_workload_selection_bitstreams(self, gsm_encode_lab):
        selection = gsm_encode_lab.selection(SelectionParams("selective", 2))
        table = bitstream_table(selection.ext_defs)
        for conf, stream in table.items():
            header = parse_header(stream)
            assert header["conf"] == conf
            # §6: all selected configurations are small
            assert stream.bits < 40_000
