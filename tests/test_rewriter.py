"""Tests for the program rewriter and semantic-equivalence validation."""

import pytest

from repro.asm import assemble
from repro.errors import ExtInstError, SimulationError
from repro.extinst import (
    apply_selection,
    greedy_select,
    selective_select,
    validate_equivalence,
)
from repro.extinst.selection import RewriteSite, Selection
from repro.extinst.validate import dynamic_instruction_reduction
from repro.isa.opcodes import Opcode
from repro.profiling import profile_program
from repro.sim.functional import FunctionalSimulator

from test_matrix import FIG3


def rewrite_fig3(n_pfus=None, algorithm="greedy"):
    program = assemble(FIG3)
    profile = profile_program(program)
    if algorithm == "greedy":
        selection = greedy_select(profile)
    else:
        selection = selective_select(profile, n_pfus)
    return program, apply_selection(program, selection), selection


class TestRewrite:
    def test_text_shrinks(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        assert len(rewritten.text) < len(program.text)

    def test_ext_instructions_present(self):
        _, (rewritten, defs), selection = rewrite_fig3()
        exts = [i for i in rewritten.text if i.op is Opcode.EXT]
        assert len(exts) == len(selection.sites)
        for ext in exts:
            assert ext.conf in defs

    def test_ext_operands_match_sites(self):
        _, (rewritten, defs), selection = rewrite_fig3()
        ext = next(i for i in rewritten.text if i.op is Opcode.EXT)
        site = next(s for s in selection.sites if s.conf == ext.conf)
        assert ext.rd == site.output_reg

    def test_labels_remapped(self):
        program, (rewritten, _), _ = rewrite_fig3()
        assert set(rewritten.labels) == set(program.labels)
        rewritten.validate()

    def test_branch_targets_still_resolve(self):
        _, (rewritten, _), _ = rewrite_fig3()
        for instr in rewritten.text:
            if instr.target is not None:
                assert rewritten.labels[instr.target] < len(rewritten.text)

    def test_semantics_preserved(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        validate_equivalence(program, rewritten, defs)

    def test_selective_rewrites_subpattern_inside_maximal(self):
        program, (rewritten, defs), selection = rewrite_fig3(
            n_pfus=1, algorithm="selective"
        )
        validate_equivalence(program, rewritten, defs)
        # the 2-op pattern folded inside the 3-op chain leaves the final
        # sll as an ordinary instruction
        exts = [i for i in rewritten.text if i.op is Opcode.EXT]
        assert len(exts) == 3

    def test_dynamic_reduction_positive(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        reduction = dynamic_instruction_reduction(program, rewritten, defs)
        assert reduction > 0.15


class TestRewriteErrors:
    def test_overlapping_sites_rejected(self):
        program = assemble(FIG3)
        profile = profile_program(program)
        selection = greedy_select(profile)
        bad = Selection(
            ext_defs=selection.ext_defs,
            sites=selection.sites + [selection.sites[0]],
            algorithm="greedy",
        )
        with pytest.raises(ExtInstError, match="overlap"):
            apply_selection(program, bad)

    def test_unknown_conf_rejected(self):
        program = assemble(FIG3)
        selection = Selection(
            ext_defs={},
            sites=[RewriteSite(bid=0, nodes=(2, 3), conf=9,
                               input_regs=(9,), output_reg=10)],
            algorithm="x",
        )
        with pytest.raises(ExtInstError, match="unknown conf"):
            apply_selection(program, selection)

    def test_out_of_range_site(self):
        program = assemble(FIG3)
        selection = Selection(
            ext_defs={0: greedy_select(profile_program(program)).ext_defs[0]},
            sites=[RewriteSite(bid=0, nodes=(998, 999), conf=0,
                               input_regs=(9,), output_reg=10)],
            algorithm="x",
        )
        with pytest.raises(ExtInstError, match="out of range"):
            apply_selection(program, selection)


class TestValidateEquivalence:
    def test_detects_wrong_semantics(self):
        program, (rewritten, defs), selection = rewrite_fig3()
        from repro.extinst.extdef import sequential_chain
        from repro.isa.opcodes import Opcode as O

        # corrupt one configuration
        bad_defs = dict(defs)
        some_conf = next(iter(bad_defs))
        bad_defs[some_conf] = sequential_chain(
            [(O.XOR, ("in", 0), ("imm", 123))]
        )
        with pytest.raises(ExtInstError):
            validate_equivalence(program, rewritten, bad_defs)

    def test_reference_run_replaces_the_original_run(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        reference = FunctionalSimulator(program).run()
        run = validate_equivalence(program, rewritten, defs,
                                   reference=reference, collect_trace=True)
        fresh = FunctionalSimulator(rewritten, ext_defs=defs).run(
            collect_trace=True
        )
        assert run.program is rewritten
        assert (run.steps, run.regs) == (fresh.steps, fresh.regs)
        assert run.trace.indices == fresh.trace.indices
        assert run.trace.addrs == fresh.trace.addrs

    def test_reference_must_be_a_run_of_the_same_program(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        twin = FunctionalSimulator(assemble(FIG3)).run()
        with pytest.raises(ValueError, match="original program"):
            validate_equivalence(program, rewritten, defs, reference=twin)

    def test_reference_must_fit_the_step_budget(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        reference = FunctionalSimulator(program).run()
        budget = reference.steps - 1
        for ref in (None, reference):
            with pytest.raises(SimulationError, match="did not halt"):
                validate_equivalence(program, rewritten, defs,
                                     max_steps=budget, reference=ref)
        validate_equivalence(program, rewritten, defs,
                             max_steps=reference.steps, reference=reference)

    def test_detects_wrong_semantics_against_a_reference_run(self):
        program, (rewritten, defs), _ = rewrite_fig3()
        reference = FunctionalSimulator(program).run()
        from repro.extinst.extdef import sequential_chain
        from repro.isa.opcodes import Opcode as O

        bad_defs = dict(defs)
        bad_defs[next(iter(bad_defs))] = sequential_chain(
            [(O.XOR, ("in", 0), ("imm", 123))]
        )
        with pytest.raises(ExtInstError):
            validate_equivalence(program, rewritten, bad_defs,
                                 reference=reference)

    def test_empty_selection_is_identity(self):
        program = assemble(FIG3)
        selection = Selection(ext_defs={}, sites=[], algorithm="none")
        rewritten, defs = apply_selection(program, selection)
        assert rewritten.text == program.text
        validate_equivalence(program, rewritten, defs)


class TestLabelEdgeCases:
    def test_label_on_folded_leader(self):
        """A label pointing at a deleted sequence head must remap to the
        next surviving instruction and keep semantics (the block is only
        entered at its leader)."""
        src = """
        .text
        main:
            li $s0, 50
            li $t1, 3
            b entry
        entry:
            sll $t2, $t1, 4
            addu $t2, $t2, $t1
            sll $t2, $t2, 2
            sw $t2, 0($sp)
            addiu $s0, $s0, -1
            bgtz $s0, entry
            halt
        """
        program = assemble(src)
        profile = profile_program(program)
        selection = greedy_select(profile)
        assert selection.sites, "expected a fold at the block leader"
        rewritten, defs = apply_selection(program, selection)
        validate_equivalence(program, rewritten, defs)
        # 'entry' label moved onto the ext at the old chain position
        assert rewritten.labels["entry"] < len(rewritten.text)

    def test_end_label_clamped(self):
        src = FIG3 + "end_marker:\n"
        program = assemble(src)
        profile = profile_program(program)
        rewritten, _ = apply_selection(program, greedy_select(profile))
        assert rewritten.labels["end_marker"] == len(rewritten.text)
