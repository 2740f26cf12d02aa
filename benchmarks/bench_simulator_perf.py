"""Simulator-throughput micro-benchmarks (regression guards, not a paper
artefact): the functional interpreter and the OoO timing model on a
fixed medium-sized kernel.
"""

import pytest

from repro.asm import assemble
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator

_KERNEL = (
    ".text\nmain: li $t9, 3000\nloop:\n"
    + "\n".join("    addu $t0, $t0, $t1\n    xor $t1, $t0, $t9" for _ in range(4))
    + "\n    addiu $t9, $t9, -1\n    bgtz $t9, loop\n    halt\n"
)


@pytest.fixture(scope="module")
def kernel():
    return assemble(_KERNEL)


@pytest.fixture(scope="module")
def kernel_trace(kernel):
    return FunctionalSimulator(kernel).run(collect_trace=True).trace


def test_functional_simulator_throughput(benchmark, kernel):
    result = benchmark(lambda: FunctionalSimulator(kernel).run())
    assert result.halted


def test_functional_simulator_with_trace(benchmark, kernel):
    result = benchmark(lambda: FunctionalSimulator(kernel).run(collect_trace=True))
    assert len(result.trace) == result.steps


def test_ooo_simulator_throughput(benchmark, kernel, kernel_trace):
    stats = benchmark(
        lambda: OoOSimulator(kernel, MachineConfig()).simulate(kernel_trace)
    )
    assert stats.instructions == len(kernel_trace)

