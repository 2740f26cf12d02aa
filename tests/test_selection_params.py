"""``SelectionParams``: one request shape accepted by every selection
entry point (module functions, labs, the engine pipeline)."""

import pytest

from repro.engine import make_spec
from repro.engine.pipeline import ArtifactPipeline
from repro.errors import ConfigurationError
from repro.extinst import (
    SelectionParams,
    apply_selection,
    greedy_select,
    run_selection,
    selective_select,
)
from repro.extinst.extraction import ExtractionParams
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator


class TestParamsObject:
    def test_defaults(self):
        params = SelectionParams()
        assert params.algorithm == "selective"
        assert params.select_pfus is None
        assert params.gain_threshold == 0.005
        assert isinstance(params.extraction, ExtractionParams)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            SelectionParams(algorithm="exhaustive")

    def test_normalized_drops_pfus_for_greedy(self):
        params = SelectionParams(algorithm="greedy", select_pfus=4)
        assert params.normalized().select_pfus is None
        selective = SelectionParams(algorithm="selective", select_pfus=4)
        assert selective.normalized() is selective

    def test_hashable_for_cache_keys(self):
        a = SelectionParams(algorithm="greedy")
        b = SelectionParams(algorithm="greedy", select_pfus=2).normalized()
        assert hash(a) == hash(b) and a == b


class TestUnifiedEntryPoints:
    def test_run_selection_matches_module_functions(self, gsm_encode_lab):
        profile = gsm_encode_lab.profile
        greedy = run_selection(profile, SelectionParams(algorithm="greedy"))
        assert greedy.n_configs == greedy_select(profile).n_configs
        selective = run_selection(
            profile, SelectionParams(algorithm="selective", select_pfus=2)
        )
        assert selective.n_configs == selective_select(
            profile, n_pfus=2
        ).n_configs

    def test_module_functions_accept_params(self, gsm_encode_lab):
        profile = gsm_encode_lab.profile
        params = SelectionParams(algorithm="selective", select_pfus=2)
        assert greedy_select(profile, SelectionParams(
            algorithm="greedy"
        )).n_configs == greedy_select(profile).n_configs
        assert selective_select(
            profile, 2, params
        ).n_configs == selective_select(profile, n_pfus=2).n_configs

    def test_lab_accepts_params(self, gsm_encode_lab):
        params = SelectionParams(algorithm="selective", select_pfus=2)
        via_lab = gsm_encode_lab.selection(params)
        via_pipeline = gsm_encode_lab.pipeline.selection(
            "gsm_encode", 1, params
        )
        assert via_lab is via_pipeline

    def test_make_spec_accepts_params(self):
        spec = make_spec(
            "gsm_encode",
            SelectionParams(algorithm="selective", select_pfus=2),
            2, 10,
        )
        legacy = make_spec("gsm_encode", "selective", 2, 10)
        assert spec.algorithm == "selective"
        assert spec.select_pfus == legacy.select_pfus

    def test_lab_rejects_params_plus_positional_pfus(self, gsm_encode_lab):
        with pytest.raises(TypeError):
            gsm_encode_lab.selection(SelectionParams(), 2)

    def test_make_spec_rejects_tuned_params(self):
        """Engine jobs carry only algorithm and PFU budget: a tuned
        request must fail loudly, not run the default selection."""
        tuned = SelectionParams(algorithm="selective", select_pfus=2,
                                gain_threshold=0.5)
        with pytest.raises(ConfigurationError, match="tunables"):
            make_spec("gsm_encode", tuned, 2, 10)


class TestPipelineCacheIdentity:
    def test_non_default_threshold_never_aliases_default(self, gsm_encode_lab):
        """Regression: a tuned gain threshold must miss the memo entry of
        the default-parameter selection (and vice versa)."""
        pipeline = ArtifactPipeline()
        default = pipeline.selection(
            "gsm_encode", 1,
            SelectionParams(algorithm="selective", select_pfus=2),
        )
        strict = pipeline.selection(
            "gsm_encode", 1,
            SelectionParams(algorithm="selective", select_pfus=2,
                            gain_threshold=0.9),
        )
        assert strict.n_configs < default.n_configs
        again = pipeline.selection(
            "gsm_encode", 1,
            SelectionParams(algorithm="selective", select_pfus=2),
        )
        assert again.n_configs == default.n_configs

    def test_tuned_params_reach_rewrite_trace_and_timing(
        self, gsm_encode_lab
    ):
        """Every downstream artefact of a tuned selection is built from
        that selection, not from the default one sharing its algorithm
        and PFU budget."""
        lab = gsm_encode_lab
        default = SelectionParams(algorithm="selective", select_pfus=2)
        strict = SelectionParams(algorithm="selective", select_pfus=2,
                                 gain_threshold=0.9)
        expected = apply_selection(lab.program, lab.selection(strict))
        program, defs = lab.rewritten(strict)
        assert program.render() == expected[0].render()
        assert defs == expected[1]
        assert program.render() != lab.rewritten(default)[0].render()
        trace = lab.trace(strict)
        assert len(trace) == len(FunctionalSimulator(
            program, ext_defs=defs).run(collect_trace=True).trace)
        machine = MachineConfig(n_pfus=2)
        [stats] = lab.timing_sweep(strict, [machine])
        assert stats.cycles == OoOSimulator(
            program, machine, ext_defs=defs).simulate(trace).cycles
