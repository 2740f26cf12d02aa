"""Differential tests for the fast path: the native kernels.

The functional kernel and the timing model's pre-pass and replay
kernels (:mod:`repro.sim.ooo.native`) are pure optimisations: every
observable — architectural state, dynamic trace, profile, and
``SimStats`` — must be identical to the reference loops. These tests
pin that contract for every registered workload and for the fig2/fig6
harness drivers, and guard the replay kernel's bounded live-set
property (ring buffers of ``horizon`` slots, not per-cycle state that
grows with the trace). Without a loaded kernel both sides run the
reference loops.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from repro.asm import assemble
from repro.engine import EngineConfig, ExperimentEngine, get_default_pipeline
from repro.extinst import SelectionParams
from repro.extinst.extdef import sequential_chain
from repro.extinst.validate import memory_snapshot
from repro.fuzz import narrow_machine
from repro.harness import figures
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.sim.functional import FunctionalSimulator, _native_nodes
from repro.obs import observed
from repro.sim.ooo import MachineConfig, OoOSimulator, native
from repro.workloads import WORKLOAD_NAMES, build_workload

from test_native_functional import (
    ALU_OPS, BOUNDARY, OUT, T0, T1, T2, _table, ext_defs, u32,
)


def _functional_results(program, ext_defs=None):
    """Run ``program`` through the native kernel (the default path) and
    the reference loop (the kernel disabled), with trace and profile."""
    fast = FunctionalSimulator(program, ext_defs=ext_defs).run(
        collect_trace=True, profile=True)
    with native.disabled():
        ref = FunctionalSimulator(program, ext_defs=ext_defs).run(
            collect_trace=True, profile=True)
    return fast, ref


def _assert_results_equal(fast, ref):
    assert fast.halted and ref.halted
    assert fast.steps == ref.steps
    assert fast.regs == ref.regs
    assert memory_snapshot(fast.memory, include_stack=True) == \
        memory_snapshot(ref.memory, include_stack=True)
    assert fast.trace.indices == ref.trace.indices
    assert fast.trace.addrs == ref.trace.addrs
    assert fast.exec_counts == ref.exec_counts
    assert fast.bitwidths.max_operand_width == ref.bitwidths.max_operand_width
    assert fast.bitwidths.max_result_width == ref.bitwidths.max_result_width


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestFunctionalEquivalence:
    """The native kernel vs the reference interpreter, per workload."""

    def test_execution_result_identical(self, name):
        program = build_workload(name).program
        fast, ref = _functional_results(program)
        _assert_results_equal(fast, ref)


@pytest.mark.parametrize("algorithm", ["selective", "isegen"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestRewrittenFunctionalEquivalence:
    """The native kernel and its PFU node tables vs the reference
    interpreter and :meth:`ExtInstDef.evaluate`, on rewritten programs."""

    def test_execution_result_identical(self, name, algorithm):
        program, defs = get_default_pipeline().rewrite(
            name, 1, SelectionParams(algorithm, 2), True
        )
        assert defs, "the rewrite should fold something"
        fast, ref = _functional_results(program, defs)
        _assert_results_equal(fast, ref)
        # the plain (non-profiling) run, as validation runs it
        fast = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True)
        assert (fast.steps, fast.regs) == (ref.steps, ref.regs)
        assert memory_snapshot(fast.memory, include_stack=True) == \
            memory_snapshot(ref.memory, include_stack=True)
        assert fast.trace.indices == ref.trace.indices
        assert fast.trace.addrs == ref.trace.addrs


def _native_ext_values(cases) -> list[int]:
    """The value the functional kernel computes for each ``(ext, a, b)``
    case: one program runs an ``ext`` instruction per case and stores
    its result. Runs on the reference loop only when no kernel is
    loaded."""
    confs: dict = {}
    rows = []
    for ext, a, b in cases:
        conf = confs.setdefault(id(ext), (len(confs), ext))[0]
        rows.append((a, b, [Instruction(Opcode.EXT, rd=T2, rs=T0, rt=T1,
                                        conf=conf)]))
    sim = FunctionalSimulator(
        _table(rows), ext_defs={conf: ext for conf, ext in confs.values()})
    result = sim._run_native(10**7, False, False, "main")
    if result is None:
        assert not native.available(), "the kernel refused the program"
        result = sim.run()
    return [result.memory.read_word(OUT + 4 * k) for k in range(len(rows))]


class TestCompiledExtEvaluator:
    """The functional kernel's ext evaluator — each definition compiled
    to ``_functional.c`` node rows (``_native_nodes``) — vs its oracle
    :meth:`ExtInstDef.evaluate`."""

    @settings(max_examples=300, deadline=None)
    @given(ext_defs(), u32, u32)
    def test_matches_evaluate_on_random_dags(self, ext, a, b):
        assert _native_ext_values([(ext, a, b)]) == [ext.evaluate(a, b)]

    @pytest.mark.parametrize("op", ALU_OPS, ids=lambda op: op.value)
    def test_every_opcode_and_operand_kind_at_boundaries(self, op):
        cases, want = [], []
        for imm in BOUNDARY + (-1,):
            two = sequential_chain([
                (op, ("in", 0), ("in", 1)),
                (op, ("node", 0), ("imm", imm)),
                (op, ("zero",), ("node", 1)),
                (op, ("imm", imm), ("in", 0)),
                (op, ("node", 3), ("node", 2)),
            ])
            one = sequential_chain([(op, ("in", 0), ("imm", imm))])
            assert (two.n_inputs, one.n_inputs) == (2, 1)
            for a in BOUNDARY:
                for b in BOUNDARY:
                    cases += [(two, a, b), (one, a, b)]
                    want += [two.evaluate(a, b), one.evaluate(a)]
        assert _native_ext_values(cases) == want

    def test_cached_by_structure_not_on_the_definition(self):
        ext = sequential_chain([(Opcode.ADDU, ("in", 0), ("imm", 7))])
        before = pickle.dumps(ext)
        twin = dataclasses.replace(ext, name="twin", latency=3)
        assert _native_nodes(ext.key) is _native_nodes(twin.key)
        assert _native_ext_values([(ext, 1, 2), (twin, 3, 4)]) == [8, 10]
        assert pickle.dumps(ext) == before


#: Unit limits below the issue width bind, RUU slot by ``%``.
NARROW = narrow_machine()
#: Memory ports and multipliers at the issue width; the ALU limit one
#: below it.
WIDE = MachineConfig(n_memports=4, n_imult=4, n_ialu=3)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestTimingEquivalence:
    """The native replay vs the reference pipeline loop, per workload."""

    CONFIGS = (
        MachineConfig(),
        MachineConfig(issue_width=2, ruu_size=16, n_pfus=2,
                      reconfig_latency=50),
        NARROW,
        WIDE,
    )

    def test_sim_stats_identical(self, name):
        program = build_workload(name).program
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        for config in self.CONFIGS:
            fast = OoOSimulator(program, config=config).simulate(trace)
            slow_cfg = dataclasses.replace(config, sim_fast_path=False)
            slow = OoOSimulator(program, config=slow_cfg).simulate(trace)
            assert vars(fast) == vars(slow), (name, config)


def _reference_matches(source: str, configs) -> None:
    program = assemble(source)
    trace = FunctionalSimulator(program).run(collect_trace=True).trace
    for config in configs:
        fast = OoOSimulator(program, config=config).simulate(trace)
        slow_cfg = dataclasses.replace(config, sim_fast_path=False)
        slow = OoOSimulator(program, config=slow_cfg).simulate(trace)
        assert vars(fast) == vars(slow), config


#: Only ALU ops, control transfers and a halt: one resource group.
ALU_ONLY = (
    ".text\nmain: li $t9, 3000\nloop:\n"
    "    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9\n"
    "    addu $t2, $t2, $t1\n    sll $t3, $t0, 2\n"
    "    or $t4, $t3, $t2\n    addiu $t9, $t9, -1\n"
    "    bgtz $t9, loop\n    halt\n"
)


def test_alu_only_programs_match_reference():
    """The ALU limit below, at and above the issue width."""
    _reference_matches(ALU_ONLY, [MachineConfig(n_ialu=n) for n in (2, 3, 8)])


#: Independent multiplies and divides that contend for the one
#: multiplier every iteration (no workload does this often).
MUL_DIV = (
    ".text\nmain: li $t9, 400\n    li $t1, 7\n    li $t2, 3\nloop:\n"
    "    mul $t3, $t1, $t2\n    mul $t4, $t2, $t1\n"
    "    div $t5, $t1, $t2\n    mul $t6, $t1, $t1\n"
    "    rem $t7, $t2, $t1\n    mul $t8, $t2, $t2\n"
    "    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
)


def test_multiplier_contention_matches_reference():
    _reference_matches(MUL_DIV, (MachineConfig(), MachineConfig(issue_width=2),
                                 NARROW, WIDE))


def _observed_runs(program, defs, trace, config):
    """(stats, issue-width histogram, reconfiguration spans) of one
    observed fast-path run and one observed reference run."""
    runs = []
    for fast in (True, False):
        cfg = dataclasses.replace(config, sim_fast_path=fast)
        with observed() as rec:
            stats = OoOSimulator(program, cfg, ext_defs=defs).simulate(trace)
        hist = rec.metrics.value("sim.issue.width", program=program.name)
        spans = [(s.start, s.end, s.track, s.attrs)
                 for s in rec.spans if s.name == "pfu.reconfig"]
        runs.append((
            vars(stats),
            (hist.bucket_counts, hist.count, hist.sum, hist.min, hist.max),
            spans,
        ))
    return runs


@pytest.mark.parametrize("name", ["gsm_encode", "unepic", "mpeg2_decode"])
class TestObservedTimingEquivalence:
    """The observed native replay (a live :mod:`repro.obs` recorder) vs
    the reference loop on a selective 2-PFU rewrite: stats, stall
    attribution, the issue-width histogram and PFU reconfiguration
    spans must all match."""

    def test_observed_streams_identical(self, name):
        program, defs = get_default_pipeline().rewrite(
            name, 1, SelectionParams("selective", 2), True
        )
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True).trace
        for config in (MachineConfig(n_pfus=2, reconfig_latency=10),
                       NARROW):
            runs = _observed_runs(program, defs, trace, config)
            assert runs[0] == runs[1], (name, config)
            stats, _, spans = runs[0]
            assert stats["stall_cycles"] and spans


class TestHarnessEquivalence:
    """The fig2/fig6 drivers end-to-end: every profile, rewrite, trace
    and timing run through the fast paths must render byte-identical
    tables to a run forced onto the reference loops."""

    @staticmethod
    def _tables(monkeypatch, reference: bool):
        monkeypatch.setenv(
            "REPRO_SIM_REFERENCE", "1" if reference else ""
        )
        engine = ExperimentEngine(EngineConfig(jobs=1, no_cache=True))
        fig2 = figures.render(*figures.fig2_greedy(engine=engine))
        fig6 = figures.render(*figures.fig6_selective(engine=engine))
        return fig2, fig6

    def test_fig2_fig6_byte_identical(self, monkeypatch):
        fast = self._tables(monkeypatch, reference=False)
        ref = self._tables(monkeypatch, reference=True)
        assert fast == ref


class TestBoundedLiveSet:
    """Regression guard for the replay kernel's memory contract:
    per-cycle resource bookkeeping lives in stamped ring buffers of
    ``horizon`` slots, so a trace that runs for vastly more cycles than
    the horizon must complete on the first attempt (no ring growth, no
    fallback)."""

    # ~120k dynamic instructions, tens of thousands of cycles
    _LONG = (
        ".text\nmain: li $t9, 20000\nloop:\n"
        "    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9\n"
        "    sw $t0, 0($sp)\n    lw $t2, 0($sp)\n"
        "    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
    )

    def test_long_trace_stays_within_initial_horizon(self):
        if not native.available():
            pytest.skip("native kernel unavailable")
        program = assemble(self._LONG)
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        sim = OoOSimulator(program)
        horizons = []
        inner = sim._simulate_native

        def spy(trace, pre, obs, horizon):
            horizons.append(horizon)
            return inner(trace, pre, obs, horizon)

        sim._simulate_native = spy
        stats = sim.simulate(trace)
        # the kernel ran, once, with its initial ring size — it never
        # had to retry with larger rings, let alone fall back
        assert horizons == [sim._initial_horizon()]
        # and the run was long enough that cycle-keyed bookkeeping would
        # dwarf the rings: the live set is O(horizon), not O(cycles)
        assert stats.cycles > 8 * horizons[0]
        # the bounded path still times every instruction
        assert stats.instructions == len(trace)

    def test_long_trace_matches_reference(self):
        program = assemble(self._LONG)
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        fast = OoOSimulator(program).simulate(trace)
        slow_cfg = MachineConfig(sim_fast_path=False)
        slow = OoOSimulator(program, config=slow_cfg).simulate(trace)
        assert vars(fast) == vars(slow)
