"""Invariant tests for the timing model: more resources never hurt,
results are deterministic, and bounds hold."""

import pytest

from repro.asm import assemble
from repro.extinst import SelectionParams
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator


def make_workload_trace():
    src = """
    .text
    main:
        li $s0, 800
        li $t1, 3
    loop:
        sll $t2, $t1, 4
        addu $t2, $t2, $t1
        srl $t3, $t1, 1
        xor $t3, $t3, $t2
        lw $t4, 0($sp)
        addu $t4, $t4, $t3
        sw $t4, 0($sp)
        mul $t5, $t1, $t3
        andi $t1, $t5, 255
        addiu $s0, $s0, -1
        bgtz $s0, loop
        halt
    """
    program = assemble(src)
    trace = FunctionalSimulator(program).run(collect_trace=True).trace
    return program, trace


@pytest.fixture(scope="module")
def workload():
    return make_workload_trace()


def cycles(workload, **overrides) -> int:
    program, trace = workload
    return OoOSimulator(program, MachineConfig(**overrides)).simulate(trace).cycles


class TestDeterminism:
    def test_same_config_same_cycles(self, workload):
        assert cycles(workload) == cycles(workload)

    def test_fresh_simulator_instances_agree(self, workload):
        program, trace = workload
        a = OoOSimulator(program, MachineConfig()).simulate(trace)
        b = OoOSimulator(program, MachineConfig()).simulate(trace)
        assert vars(a) == vars(b)


class TestResourceMonotonicity:
    def test_more_alus_never_hurt(self, workload):
        prev = None
        for n in (1, 2, 4, 8):
            c = cycles(workload, n_ialu=n)
            if prev is not None:
                assert c <= prev
            prev = c

    def test_wider_issue_never_hurts(self, workload):
        prev = None
        for w in (1, 2, 4, 8):
            c = cycles(workload, fetch_width=w, decode_width=w,
                       issue_width=w, commit_width=w)
            if prev is not None:
                assert c <= prev
            prev = c

    def test_bigger_window_never_hurts(self, workload):
        prev = None
        for size in (4, 8, 16, 32, 64, 128):
            c = cycles(workload, ruu_size=size)
            if prev is not None:
                assert c <= prev
            prev = c

    def test_more_mem_ports_never_hurt(self, workload):
        assert cycles(workload, n_memports=2) <= cycles(workload, n_memports=1)

    def test_saturation_at_high_resources(self, workload):
        # doubling beyond the program's ILP changes nothing
        a = cycles(workload, n_ialu=16, ruu_size=256)
        b = cycles(workload, n_ialu=32, ruu_size=512)
        assert a == b


class TestBounds:
    def test_commit_width_lower_bound(self, workload):
        program, trace = workload
        stats = OoOSimulator(program, MachineConfig()).simulate(trace)
        assert stats.cycles >= len(trace) / 4

    def test_single_issue_upper_ipc(self, workload):
        program, trace = workload
        stats = OoOSimulator(
            program,
            MachineConfig(fetch_width=1, decode_width=1,
                          issue_width=1, commit_width=1),
        ).simulate(trace)
        assert stats.ipc <= 1.0 + 1e-9

    def test_instruction_count_preserved(self, workload):
        program, trace = workload
        stats = OoOSimulator(program, MachineConfig()).simulate(trace)
        assert stats.instructions == len(trace)


class TestPFUMonotonicity:
    @pytest.fixture(scope="class")
    def rewritten(self):
        from repro.harness.runner import WorkloadLab

        lab = WorkloadLab("gsm_decode", scale=1)
        program, defs = lab.rewritten(SelectionParams("greedy"))
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True
        ).trace
        return program, defs, trace

    def test_more_pfus_never_hurt(self, rewritten):
        program, defs, trace = rewritten
        prev = None
        for n in (1, 2, 4, 8, None):
            stats = OoOSimulator(
                program, MachineConfig(n_pfus=n), ext_defs=defs
            ).simulate(trace)
            if prev is not None:
                assert stats.cycles <= prev * 1.01   # tiny LRU jitter allowed
            prev = stats.cycles

    def test_reconfig_latency_monotone(self, rewritten):
        program, defs, trace = rewritten
        prev = None
        for lat in (0, 10, 50, 200):
            stats = OoOSimulator(
                program,
                MachineConfig(n_pfus=2, reconfig_latency=lat),
                ext_defs=defs,
            ).simulate(trace)
            if prev is not None:
                assert stats.cycles >= prev
            prev = stats.cycles
