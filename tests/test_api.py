"""The ``repro.api`` facade: the five-function toolflow, lazy re-export
from the package root, and the in-repo deprecation-warning canary."""

import warnings

import pytest

import repro
from repro import api
from repro.errors import ConfigurationError
from repro.extinst import Selection, SelectionParams
from repro.obs import Recorder, disable, get_recorder
from repro.profiling import ProgramProfile
from repro.program.program import Program
from repro.sim.ooo import SimStats

ASM = """
.text
main:
    li   $s0, 500
loop:
    sll  $t2, $t1, 4
    addu $t2, $t2, $t1
    sll  $t2, $t2, 2
    andi $t1, $t2, 63
    addiu $t1, $t1, 1
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""

MINIC = """
int main() {
    int sum = 0;
    for (int i = 0; i < 100; i++) { sum += (i << 2) + i; }
    return sum;
}
"""


@pytest.fixture(scope="module")
def program():
    return api.compile(source=ASM, name="apitest")


@pytest.fixture(scope="module")
def profile(program):
    return api.profile(program=program)


class TestFacadeRoot:
    def test_lazy_reexports(self):
        assert repro.api is api
        assert repro.obs.get_recorder is get_recorder
        assert "api" in dir(repro) and "obs" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_module


class TestCompile:
    def test_asm_autodetected(self, program):
        assert isinstance(program, Program)
        assert program.name == "apitest"

    def test_minic_autodetected(self):
        program = api.compile(source=MINIC)
        assert isinstance(program, Program)
        assert program.name == "minic"

    def test_explicit_lang_wins(self):
        program = api.compile(source=MINIC, lang="minic", name="k")
        assert program.name == "k"

    def test_workload(self):
        program = api.compile(workload="gsm_encode")
        assert isinstance(program, Program)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            api.compile()
        with pytest.raises(ConfigurationError):
            api.compile(source=ASM, workload="epic")

    def test_lang_rejected_for_workload(self):
        with pytest.raises(ConfigurationError):
            api.compile(workload="epic", lang="asm")

    def test_unknown_lang_rejected(self):
        with pytest.raises(ConfigurationError):
            api.compile(source=ASM, lang="fortran")


class TestToolflow:
    def test_profile(self, profile):
        assert isinstance(profile, ProgramProfile)

    def test_select_greedy_and_selective(self, profile):
        greedy = api.select(profile=profile, algorithm="greedy")
        selective = api.select(profile=profile, algorithm="selective", pfus=2)
        assert isinstance(greedy, Selection)
        assert greedy.algorithm == "greedy"
        assert selective.algorithm == "selective"

    def test_select_params_object(self, profile):
        params = SelectionParams(algorithm="selective", select_pfus=2)
        by_params = api.select(profile=profile, params=params)
        by_kwargs = api.select(profile=profile, algorithm="selective", pfus=2)
        assert by_params.n_configs == by_kwargs.n_configs

    def test_select_params_conflicts_with_kwargs(self, profile):
        params = SelectionParams()
        with pytest.raises(ConfigurationError, match="greedy"):
            api.select(profile=profile, params=params, algorithm="greedy")
        bounded = SelectionParams(select_pfus=4)
        with pytest.raises(ConfigurationError, match=r"pfus=2.*select_pfus=4"):
            api.select(profile=profile, params=bounded, pfus=2)

    def test_select_redundant_kwargs_accepted(self, profile):
        params = SelectionParams(select_pfus=2)
        consistent = api.select(profile=profile, params=params,
                                algorithm="selective", pfus=2)
        assert consistent.algorithm == "selective"

    def test_select_pfus_fills_unlimited_budget(self, profile):
        filled = api.select(profile=profile, params=SelectionParams(), pfus=2)
        direct = api.select(profile=profile, algorithm="selective", pfus=2)
        assert filled.n_configs == direct.n_configs
        assert filled.sites == direct.sites

    def test_select_params_may_name_any_registered_algorithm(self, profile):
        for algorithm in ("greedy", "selective", "isegen"):
            selection = api.select(
                profile=profile,
                params=SelectionParams(algorithm=algorithm, select_pfus=2),
            )
            assert selection.algorithm == algorithm

    def test_select_isegen_by_name(self, profile):
        selection = api.select(profile=profile, algorithm="isegen", pfus=2)
        assert selection.algorithm == "isegen"

    def test_rewrite_and_simulate_speedup(self, program, profile):
        selection = api.select(profile=profile, algorithm="selective", pfus=2)
        rewritten, defs = api.rewrite(program=program, selection=selection)
        assert len(rewritten.text) < len(program.text)
        base = api.simulate(program=program)
        accel = api.simulate(
            program=rewritten, ext_defs=defs,
            machine=api.MachineConfig(n_pfus=2, reconfig_latency=10),
        )
        assert isinstance(base, SimStats)
        assert accel.cycles < base.cycles
        assert accel.ext_instructions > 0

    def test_simulate_accepts_lazy_machine_iterable(self, program):
        machines = [
            api.MachineConfig(ruu_size=ruu) for ruu in (16, 32, 64)
        ]
        expected = api.simulate(program=program, machine=machines)
        assert len(expected) == 3

        drawn = []

        def stream():
            for config in machines:
                drawn.append(config)
                yield config

        streamed = api.simulate(program=program, machine=stream())
        # the generator is drawn exactly once, never re-materialised
        assert drawn == machines
        assert [s.cycles for s in streamed] == [s.cycles for s in expected]

    def test_simulate_iterable_matches_single_runs(self, program):
        machines = (
            api.MachineConfig(n_pfus=1),
            api.MachineConfig(reconfig_latency=100),
        )
        swept = api.simulate(program=program, machine=iter(machines))
        singles = [
            api.simulate(program=program, machine=config)
            for config in machines
        ]
        assert [s.cycles for s in swept] == [s.cycles for s in singles]

    def test_simulate_observe_recorder(self, program):
        rec = Recorder()
        before = get_recorder()
        api.simulate(program=program, observe=rec)
        assert get_recorder() is before          # install was temporary
        assert any(s.name == "sim.timing" for s in rec.spans)

    def test_simulate_observe_true_enables_global(self, program):
        try:
            api.simulate(program=program, observe=True)
            rec = get_recorder()
            assert rec.enabled
            assert any(s.name == "sim.timing" for s in rec.spans)
        finally:
            disable()


class TestDeprecationShims:
    def test_internal_code_never_hits_the_shims(self, program, recwarn):
        """The facade and the engine route around deprecated entry points
        (the pytest filter turns in-repo DeprecationWarnings into errors,
        so this doubles as a canary)."""
        warnings.simplefilter("error", DeprecationWarning)
        api.simulate(program=program)
