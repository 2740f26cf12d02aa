"""Tests for the Program container."""

import pickle

import pytest

from repro.asm import assemble
from repro.errors import InvalidProgramError
from repro.isa.encoding import TEXT_BASE
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.program.program import Program
from repro.sim.functional import FunctionalSimulator


def small_program() -> Program:
    return assemble(
        ".text\nmain: nop\nloop: addiu $t0, $t0, -1\n bgtz $t0, loop\n halt"
    )


class TestAddressing:
    def test_pc_of(self):
        p = small_program()
        assert p.pc_of(0) == TEXT_BASE
        assert p.pc_of(3) == TEXT_BASE + 12

    def test_index_of_pc_roundtrip(self):
        p = small_program()
        for i in range(len(p)):
            assert p.index_of_pc(p.pc_of(i)) == i

    def test_index_of_pc_rejects_misaligned(self):
        p = small_program()
        with pytest.raises(InvalidProgramError):
            p.index_of_pc(TEXT_BASE + 2)

    def test_index_of_pc_rejects_below_base(self):
        p = small_program()
        with pytest.raises(InvalidProgramError):
            p.index_of_pc(0x1000)


class TestValidation:
    def test_valid_program_passes(self):
        small_program().validate()

    def test_missing_halt(self):
        p = Program(text=[Instruction(Opcode.NOP)], labels={})
        with pytest.raises(InvalidProgramError, match="halt"):
            p.validate()

    def test_undefined_target(self):
        p = Program(
            text=[
                Instruction(Opcode.BEQ, rs=0, rt=0, target="gone"),
                Instruction(Opcode.HALT),
            ],
            labels={},
        )
        with pytest.raises(InvalidProgramError, match="undefined"):
            p.validate()

    def test_target_past_end(self):
        p = Program(
            text=[
                Instruction(Opcode.J, target="end"),
                Instruction(Opcode.HALT),
            ],
            labels={"end": 2},
        )
        with pytest.raises(InvalidProgramError, match="past end"):
            p.validate()

    def test_bad_register(self):
        p = Program(
            text=[Instruction(Opcode.ADDU, rd=40, rs=0, rt=0),
                  Instruction(Opcode.HALT)],
            labels={},
        )
        with pytest.raises(InvalidProgramError, match="register"):
            p.validate()

    def test_bad_label_index(self):
        p = Program(text=[Instruction(Opcode.HALT)], labels={"x": 9})
        with pytest.raises(InvalidProgramError):
            p.validate()


@pytest.fixture
def checks(monkeypatch):
    """Programs whose invariants were actually walked."""
    walked = []
    real = Program._check_invariants

    def counting(self):
        walked.append(self)
        return real(self)

    monkeypatch.setattr(Program, "_check_invariants", counting)
    return walked


class TestValidateOnce:
    def test_second_simulator_does_not_revalidate(self, checks):
        p = small_program()
        FunctionalSimulator(p)
        FunctionalSimulator(p)
        # the assembler's own validation covered both simulators
        assert checks == [p]
        q = Program(text=list(p.text), labels=dict(p.labels))
        FunctionalSimulator(q)
        FunctionalSimulator(q).run()
        assert checks == [p, q]

    def test_invalid_program_raises_at_every_construction(self, checks):
        p = Program(text=[Instruction(Opcode.NOP)], labels={})
        for _ in range(2):
            with pytest.raises(InvalidProgramError, match="halt"):
                FunctionalSimulator(p)
        assert checks == [p, p]

    def test_a_changed_program_is_checked_again(self, checks):
        p = small_program()
        p.text.append(Instruction(Opcode.J, target="nowhere"))
        with pytest.raises(InvalidProgramError, match="undefined"):
            FunctionalSimulator(p)
        p.text.pop()
        p.labels["main"] = 99
        with pytest.raises(InvalidProgramError, match="bad index"):
            p.validate()
        assert len(checks) == 3

    def test_pass_is_not_pickled(self):
        p = small_program()
        p.validate()
        assert "_validated" not in pickle.loads(pickle.dumps(p)).__dict__


class TestRendering:
    def test_render_includes_labels(self):
        text = small_program().render()
        assert "main:" in text and "loop:" in text
        assert "bgtz $t0, loop" in text

    def test_render_reassembles(self):
        p = small_program()
        p2 = assemble(p.render())
        assert [i.op for i in p2.text] == [i.op for i in p.text]

    def test_labels_at(self):
        p = small_program()
        assert p.labels_at(0) == ["main"]
        assert p.labels_at(1) == ["loop"]


class TestWithText:
    def test_copy_shares_data(self):
        p = assemble(".data\nv: .word 9\n.text\nmain: halt")
        p2 = p.with_text(list(p.text), dict(p.labels))
        assert p2.data == p.data
        assert p2.symbols == p.symbols
        assert p2.text is not p.text

    def test_target_index(self):
        p = small_program()
        branch = p.text[2]
        assert p.target_index(branch) == 1

    def test_target_index_requires_target(self):
        p = small_program()
        with pytest.raises(InvalidProgramError):
            p.target_index(p.text[0])
