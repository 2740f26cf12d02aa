"""Tests for the out-of-order timing model: analytic micro-cases whose
cycle counts can be reasoned about by hand."""

import pytest

from repro import api
from repro.asm import assemble
from repro.errors import SimulationError
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator
from repro.sim.trace import DynTrace


def timed(src: str, config: MachineConfig | None = None):
    program = assemble(src)
    result = FunctionalSimulator(program).run(collect_trace=True)
    stats = OoOSimulator(program, config).simulate(result.trace)
    return stats


def loop(body: list[str], n: int = 3000) -> str:
    lines = "\n".join(f"    {x}" for x in body)
    return (f".text\nmain: li $s0, {n}\nloop:\n{lines}\n"
            "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n    halt\n")


class TestSteadyStateIPC:
    def test_dependent_chain_is_serial(self):
        # 8 dependent adds + counter + branch in parallel: ~8 cycles/iter
        stats = timed(loop(["addu $t0, $t0, $t0"] * 8))
        cycles_per_iter = stats.cycles / 3000
        assert 7.5 <= cycles_per_iter <= 9.0

    def test_independent_ops_reach_issue_width(self):
        body = [f"addiu $t{i}, $zero, 1" for i in range(8)]
        stats = timed(loop(body))
        assert stats.ipc > 2.8   # 4-wide minus loop overhead

    def test_issue_width_limits_parallelism(self):
        body = [f"addiu $t{i}, $zero, 1" for i in range(8)]
        narrow = MachineConfig(issue_width=1, fetch_width=1,
                               decode_width=1, commit_width=1)
        wide_stats = timed(loop(body))
        narrow_stats = timed(loop(body), narrow)
        assert narrow_stats.cycles > 2.5 * wide_stats.cycles

    def test_multiply_latency_visible(self):
        mul_stats = timed(loop(["mul $t0, $t0, $t1"] * 4))
        add_stats = timed(loop(["addu $t0, $t0, $t1"] * 4))
        # 3-cycle dependent multiplies vs 1-cycle adds
        assert mul_stats.cycles > 2.2 * add_stats.cycles

    def test_divider_unpipelined(self):
        stats = timed(loop(["div $t0, $t2, $t1"] * 2, n=500))
        # two divides per iteration on one unpipelined 20-cycle divider
        assert stats.cycles / 500 >= 38


class TestWindowEffects:
    def test_small_ruu_hurts(self):
        body = ["addu $t0, $t0, $t0"] * 4 + [
            f"addiu $t{i}, $zero, {i}" for i in range(1, 8)
        ]
        big = timed(loop(body), MachineConfig(ruu_size=64))
        tiny = timed(loop(body), MachineConfig(ruu_size=4))
        assert tiny.cycles > big.cycles

    def test_commit_in_order_and_bounded(self):
        stats = timed(loop(["addiu $t1, $zero, 1"], n=4000))
        # cannot commit more than commit_width per cycle
        assert stats.cycles >= stats.instructions / 4


class TestMemoryTiming:
    def test_load_hits_are_cheap(self):
        src_hit = loop(["lw $t0, 0($sp)"], n=2000)
        stats = timed(src_hit)
        assert stats.ipc > 1.5

    def test_store_load_forwarding_order(self):
        # a load after a store to the same address must wait for it
        body = ["sw $t0, 0($sp)", "lw $t1, 0($sp)", "addu $t0, $t1, $t1"]
        stats = timed(loop(body, n=1000))
        assert stats.cycles / 1000 >= 3.0

    def test_cache_misses_slow_down(self):
        # walk a 256 KiB array: every line misses L1
        src = """
        .text
        main:
            li $s0, 4000
            lui $t9, 0x1000
        loop:
            lw $t0, 0($t9)
            addiu $t9, $t9, 64
            addiu $s0, $s0, -1
            bgtz $s0, loop
            halt
        """
        miss_stats = timed(src)
        hit_stats = timed(loop(["lw $t0, 0($sp)"], n=4000))
        assert miss_stats.cycles > 2 * hit_stats.cycles

    def test_icache_misses_counted(self):
        stats = timed(loop(["addiu $t1, $zero, 1"], n=10))
        assert stats.cache["il1"]["accesses"] > 0


class TestStatsObject:
    def test_class_counts(self):
        stats = timed(loop(["lw $t0, 0($sp)", "sw $t0, 4($sp)"], n=100))
        assert stats.class_counts["load"] == 100
        assert stats.class_counts["store"] == 100
        assert stats.instructions == sum(stats.class_counts.values())

    def test_ipc_property(self):
        stats = timed(".text\nmain: halt")
        assert 0 < stats.ipc <= 4

    def test_speedup_over(self):
        a = timed(loop(["addu $t0, $t0, $t0"] * 4, n=500))
        b = timed(loop(["addu $t0, $t0, $t0"] * 2, n=500))
        assert b.speedup_over(a) > 1.0

    def test_summary_renders(self):
        stats = timed(".text\nmain: halt")
        text = stats.summary()
        assert "cycles" in text and "IPC" in text

    def test_empty_trace_rejected(self):
        program = assemble(".text\nmain: halt")
        with pytest.raises(SimulationError):
            OoOSimulator(program).simulate(DynTrace())


class TestEndToEnd:
    def test_api_simulate_counts_every_instruction(self):
        stats = api.simulate(
            program=assemble(loop(["addu $t1, $t1, $t2"], n=50))
        )
        assert stats.instructions == 50 * 3 + 2
