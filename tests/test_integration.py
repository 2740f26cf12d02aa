"""End-to-end integration tests: the full paper pipeline on real
workloads, asserting the evaluation's qualitative claims at test scale."""

import pytest

from repro.extinst import (
    SelectionParams,
    apply_selection,
    validate_equivalence,
)
from repro.hwcost import estimate_cost
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator


class TestEndToEndGsmEncode:
    def test_full_pipeline(self, gsm_encode_lab):
        lab = gsm_encode_lab
        base = lab.baseline()

        greedy_unlimited = lab.run("greedy", None, 0)
        greedy_2 = lab.run("greedy", 2, 10)
        selective_2 = lab.run("selective", 2, 10)
        selective_4 = lab.run("selective", 4, 10)

        # Figure 2 shape
        assert greedy_unlimited.speedup > 1.2
        assert greedy_2.speedup < 1.0
        assert greedy_2.stats.pfu_misses > 1000
        # Figure 6 shape
        assert 1.0 < selective_2.speedup <= selective_4.speedup
        assert selective_2.stats.pfu_misses < 50

    def test_rewritten_outputs_still_correct(self, gsm_encode_lab):
        lab = gsm_encode_lab
        program, defs = lab.rewritten(SelectionParams("selective", 2))
        result = FunctionalSimulator(program, ext_defs=defs).run()
        lab.workload.verify(result)

    def test_selected_instructions_fit_pfus(self, gsm_encode_lab):
        """§6: chosen extended instructions fit small PFUs."""
        selection = gsm_encode_lab.selection(SelectionParams("selective", 4))
        for conf, extdef in selection.ext_defs.items():
            cost = estimate_cost(extdef)
            assert cost.luts < 150
            assert cost.levels <= 8

    def test_reconfig_insensitivity(self, gsm_encode_lab):
        """§5.2: selective speedups largely independent of reconfig cost."""
        fast = gsm_encode_lab.run("selective", 2, 10)
        slow = gsm_encode_lab.run("selective", 2, 500)
        assert slow.speedup > 0.999
        assert slow.speedup > fast.speedup * 0.8


class TestEndToEndEpic:
    def test_epic_pipeline(self, epic_lab):
        greedy_unlimited = epic_lab.run("greedy", None, 0)
        selective_2 = epic_lab.run("selective", 2, 10)
        assert greedy_unlimited.speedup > 1.1
        assert selective_2.speedup > 1.0

    def test_rewritten_epic_verifies(self, epic_lab):
        program, defs = epic_lab.rewritten(SelectionParams("greedy"))
        result = FunctionalSimulator(program, ext_defs=defs).run()
        epic_lab.workload.verify(result)

    def test_ext_instructions_execute_in_timing_model(self, epic_lab):
        program, defs = epic_lab.rewritten(SelectionParams("selective", 2))
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True
        ).trace
        stats = OoOSimulator(
            program, MachineConfig(n_pfus=2), ext_defs=defs
        ).simulate(trace)
        assert stats.ext_instructions > 100


class TestCrossAlgorithmInvariants:
    @pytest.mark.parametrize("algorithm,pfus", [
        ("greedy", None), ("selective", 1), ("selective", 2),
        ("selective", 4), ("selective", None),
    ])
    def test_all_selections_semantically_valid(
        self, gsm_encode_lab, algorithm, pfus
    ):
        lab = gsm_encode_lab
        selection = lab.selection(SelectionParams(algorithm, pfus))
        rewritten, defs = apply_selection(lab.program, selection)
        validate_equivalence(lab.program, rewritten, defs)

    def test_selective_subset_of_greedy_gain(self, gsm_encode_lab):
        """Selective (limited) can never beat greedy on unlimited ideal
        hardware — greedy folds strictly more work."""
        greedy = gsm_encode_lab.run("greedy", None, 0)
        selective = gsm_encode_lab.run(
            "selective", None, 0, select_pfus=2
        )
        assert greedy.speedup >= selective.speedup - 1e-9
