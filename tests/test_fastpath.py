"""Differential tests for the fast-path simulation engine.

The block-compiled functional interpreter (:mod:`repro.sim.compile`) and
the dense-window timing replay (:mod:`repro.sim.ooo.pipeline`) are pure
optimisations: every observable — architectural state, dynamic trace,
profile, and ``SimStats`` — must be identical to the reference loops.
These tests pin that contract for every registered workload and for the
fig2/fig6 harness drivers, and guard the fast path's bounded live-set
property (ring buffers of ``horizon`` slots, not per-cycle dicts that
grow with the trace).
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.engine import EngineConfig, ExperimentEngine, get_default_pipeline
from repro.extinst.extdef import ExtInstDef, ExtOp, sequential_chain
from repro.extinst.validate import memory_snapshot
from repro.fuzz import narrow_machine
from repro.harness import figures
from repro.isa.opcodes import Opcode
from repro.isa.semantics import _EVAL
from repro.sim.compile import _EXPR, compile_ext
from repro.sim.functional import FunctionalSimulator
from repro.obs import observed
from repro.sim.ooo import MachineConfig, OoOSimulator
from repro.sim.ooo.pipeline import _fast_loop, _fast_loop_source, _loop_shape
from repro.workloads import WORKLOAD_NAMES, build_workload


def _functional_results(program, ext_defs=None):
    """Run ``program`` through both functional paths (trace + profile)."""
    fast = FunctionalSimulator(
        program, ext_defs=ext_defs, compile_blocks=True
    ).run(collect_trace=True, profile=True)
    ref = FunctionalSimulator(
        program, ext_defs=ext_defs, compile_blocks=False
    ).run(collect_trace=True, profile=True)
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
    """Compiled blocks vs the reference interpreter, per workload."""

    def test_execution_result_identical(self, name):
        program = build_workload(name).program
        fast, ref = _functional_results(program)
        _assert_results_equal(fast, ref)


@pytest.mark.parametrize("algorithm", ["selective", "isegen"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestRewrittenFunctionalEquivalence:
    """Compiled blocks and compiled PFU evaluators vs the reference
    interpreter and :meth:`ExtInstDef.evaluate`, on rewritten programs."""

    def test_execution_result_identical(self, name, algorithm):
        program, defs = get_default_pipeline().rewrite(
            name, 1, algorithm, 2, True
        )
        assert defs, "the rewrite should fold something"
        fast, ref = _functional_results(program, defs)
        _assert_results_equal(fast, ref)
        # the plain (non-profiling) block variant, as validation runs it
        fast = FunctionalSimulator(
            program, ext_defs=defs, compile_blocks=True
        ).run(collect_trace=True)
        assert (fast.steps, fast.regs) == (ref.steps, ref.regs)
        assert memory_snapshot(fast.memory, include_stack=True) == \
            memory_snapshot(ref.memory, include_stack=True)
        assert fast.trace.indices == ref.trace.indices
        assert fast.trace.addrs == ref.trace.addrs


#: Every ALU opcode a PFU can compute, including the ones the block
#: compiler has no inline template for (they call ``_EVAL``).
ALU_OPS = sorted(_EVAL, key=lambda op: op.value)
BOUNDARY = (0, 1, 31, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)


@st.composite
def ext_defs(draw):
    """Random PFU DAGs over 1 or 2 inputs using all four operand kinds."""
    n_inputs = draw(st.integers(1, 2))
    nodes = []
    for j in range(draw(st.integers(1, 6))):
        refs = [("in", k) for k in range(n_inputs)] + [("zero",)]
        refs += [("node", k) for k in range(j)]
        ref = st.one_of(
            st.sampled_from(refs),
            st.tuples(st.just("imm"), st.one_of(
                st.sampled_from(BOUNDARY + (-1, -32768)),
                st.integers(-(1 << 31), (1 << 32) - 1),
            )),
        )
        nodes.append(ExtOp(draw(st.sampled_from(ALU_OPS)),
                           draw(ref), draw(ref)))
    return ExtInstDef(nodes=tuple(nodes), n_inputs=n_inputs)


u32 = st.one_of(st.sampled_from(BOUNDARY),
                st.integers(0, 0xFFFF_FFFF))


class TestCompiledExtEvaluator:
    """:func:`compile_ext` vs its oracle :meth:`ExtInstDef.evaluate`."""

    @settings(max_examples=300, deadline=None)
    @given(ext_defs(), u32, u32)
    def test_matches_evaluate_on_random_dags(self, ext, a, b):
        assert compile_ext(ext)(a, b) == ext.evaluate(a, b)

    def test_covers_opcodes_without_a_template(self):
        assert set(ALU_OPS) - set(_EXPR), "fallback path would be untested"

    @pytest.mark.parametrize("op", ALU_OPS, ids=lambda op: op.value)
    def test_every_opcode_and_operand_kind_at_boundaries(self, op):
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
                assert compile_ext(one)(a) == one.evaluate(a)
                for b in BOUNDARY:
                    assert compile_ext(two)(a, b) == two.evaluate(a, b)
                    assert compile_ext(one)(a, b) == one.evaluate(a, b)

    def test_cached_by_structure_not_on_the_definition(self):
        ext = sequential_chain([(Opcode.ADDU, ("in", 0), ("imm", 7))])
        before = pickle.dumps(ext)
        twin = dataclasses.replace(ext, name="twin", latency=3)
        assert compile_ext(ext) is compile_ext(twin)
        assert pickle.dumps(ext) == before


#: Keeps the ALU and memory rings, RUU slot by ``%``.
NARROW = narrow_machine()
#: Elides the memory and multiplier rings; keeps the ALU ring at one
#: below the issue width, the largest limit that is not elided.
WIDE = MachineConfig(n_memports=4, n_imult=4, n_ialu=3)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestTimingEquivalence:
    """Dense-window replay vs the reference pipeline loop, per workload."""

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


class TestLoopSpecialisation:
    """The replay loop is generated per program class mix and core
    shape; these pin which unit rings each tested machine keeps, and
    that the compiled-loop cache holds one loop per generated source."""

    ALL = frozenset(range(8))   # every instruction class present

    def test_tested_machines_cover_kept_and_elided_rings(self):
        default = _loop_shape(self.ALL, MachineConfig(), False, False)
        assert (default.alu, default.mul, default.mem) == (None, 1, 2)
        narrow = _loop_shape(self.ALL, NARROW, False, False)
        assert (narrow.alu, narrow.mem) == (2, 1)
        assert narrow.ruu_size & (narrow.ruu_size - 1)
        assert "k % 48" in _fast_loop_source(narrow)
        assert "k & 63" in _fast_loop_source(default)
        wide = _loop_shape(self.ALL, WIDE, False, False)
        assert (wide.alu, wide.mul, wide.mem) == (3, None, None)

    #: Only ALU ops, control transfers and a halt: one resource group.
    ALU_ONLY = (
        ".text\nmain: li $t9, 3000\nloop:\n"
        "    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9\n"
        "    addu $t2, $t2, $t1\n    sll $t3, $t0, 2\n"
        "    or $t4, $t3, $t2\n    addiu $t9, $t9, -1\n"
        "    bgtz $t9, loop\n    halt\n"
    )

    def test_single_group_programs_fold_the_alu_limit_into_issue(self):
        program = assemble(self.ALU_ONLY)
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        for n_ialu, width in ((2, 2), (3, 3), (8, 4)):
            config = MachineConfig(n_ialu=n_ialu)
            sim = OoOSimulator(program, config)
            shape = _loop_shape(sim._present, config, False, False)
            assert (shape.issue_width, shape.alu) == (width, None)
            slow_cfg = dataclasses.replace(config, sim_fast_path=False)
            slow = OoOSimulator(program, config=slow_cfg).simulate(trace)
            assert vars(sim.simulate(trace)) == vars(slow), n_ialu

    #: Independent multiplies and divides that contend for the one
    #: multiplier every iteration (no workload does this often).
    MUL_DIV = (
        ".text\nmain: li $t9, 400\n    li $t1, 7\n    li $t2, 3\nloop:\n"
        "    mul $t3, $t1, $t2\n    mul $t4, $t2, $t1\n"
        "    div $t5, $t1, $t2\n    mul $t6, $t1, $t1\n"
        "    rem $t7, $t2, $t1\n    mul $t8, $t2, $t2\n"
        "    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
    )

    def test_multiplier_ring_kept_and_elided_matches_reference(self):
        program = assemble(self.MUL_DIV)
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        for config in (MachineConfig(), MachineConfig(issue_width=2),
                       NARROW, WIDE):
            fast = OoOSimulator(program, config=config).simulate(trace)
            slow_cfg = dataclasses.replace(config, sim_fast_path=False)
            slow = OoOSimulator(program, config=slow_cfg).simulate(trace)
            assert vars(fast) == vars(slow), config

    def test_one_compiled_loop_per_ruu_size(self):
        program, defs = get_default_pipeline().rewrite(
            "gsm_encode", 1, "selective", 2, True
        )
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True).trace
        _fast_loop.cache_clear()
        for ruu_size in (32, 64):
            for n_pfus in (1, 2, None):
                for latency in (0, 10, 500):
                    config = MachineConfig(ruu_size=ruu_size, n_pfus=n_pfus,
                                           reconfig_latency=latency)
                    OoOSimulator(program, config, ext_defs=defs).simulate(
                        trace)
        info = _fast_loop.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert info.maxsize is not None


@pytest.mark.parametrize("name", ["gsm_encode", "unepic", "mpeg2_decode"])
class TestObservedTimingEquivalence:
    """The observed fast loop (a live :mod:`repro.obs` recorder) vs the
    reference loop on a selective 2-PFU rewrite: stats, stall
    attribution, the issue-width histogram and PFU reconfiguration
    spans must all match."""

    def test_observed_streams_identical(self, name):
        program, defs = get_default_pipeline().rewrite(
            name, 1, "selective", 2, True
        )
        trace = FunctionalSimulator(program, ext_defs=defs).run(
            collect_trace=True).trace
        for config in (MachineConfig(n_pfus=2, reconfig_latency=10),
                       NARROW):
            runs = []
            for fast in (True, False):
                cfg = dataclasses.replace(config, sim_fast_path=fast)
                with observed() as rec:
                    stats = OoOSimulator(
                        program, cfg, ext_defs=defs).simulate(trace)
                hist = rec.metrics.value("sim.issue.width",
                                         program=program.name)
                spans = [(s.start, s.end, s.track, s.attrs)
                         for s in rec.spans if s.name == "pfu.reconfig"]
                runs.append((
                    vars(stats),
                    (hist.bucket_counts, hist.count, hist.sum,
                     hist.min, hist.max),
                    spans,
                ))
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
    """Regression guard for the fast path's memory contract: per-cycle
    resource bookkeeping lives in stamped ring buffers of ``horizon``
    slots, so a trace that runs for vastly more cycles than the horizon
    must complete on the first attempt (no ring growth, no fallback)."""

    # ~120k dynamic instructions, tens of thousands of cycles
    _LONG = (
        ".text\nmain: li $t9, 20000\nloop:\n"
        "    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9\n"
        "    sw $t0, 0($sp)\n    lw $t2, 0($sp)\n"
        "    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
    )

    def test_long_trace_stays_within_initial_horizon(self):
        program = assemble(self._LONG)
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        sim = OoOSimulator(program)
        horizons = []
        inner = sim._simulate_fast

        def spy(trace, record_window, obs, horizon):
            horizons.append(horizon)
            return inner(trace, record_window, obs, horizon)

        sim._simulate_fast = spy
        stats = sim.simulate(trace)
        # the fast path ran, once, with its initial ring size — it never
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
