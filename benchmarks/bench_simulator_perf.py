"""Simulator-throughput micro-benchmarks (regression guards, not a paper
artefact): the functional interpreter and the OoO timing model on a
fixed medium-sized kernel, and OoO replay, the fetch/cache pre-pass and
a traced functional run through the native kernels on a long rewritten
trace.
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



@pytest.fixture(scope="module")
def unepic_rewrite():
    """``unepic``@2 rewritten by a selective 2-PFU selection, and its
    trace (~194k instructions): ``perfbench``'s ``replay_grid`` trace."""
    from repro import api

    program = api.compile(workload="unepic", scale=2)
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True).trace
    return rewritten, defs, trace


def test_ooo_replay_native(benchmark, unepic_rewrite):
    """One replay on the default machine with the trace's pre-pass
    already cached: the native kernel where a C compiler exists (a host
    without one measures the Python loop, and the gate shows it)."""
    program, defs, trace = unepic_rewrite

    def replay():
        return OoOSimulator(program, MachineConfig(), ext_defs=defs).simulate(
            trace)

    replay()                       # builds and caches the pre-pass
    stats = benchmark(replay)
    assert stats.instructions == len(trace)


def test_prepass_native(benchmark, unepic_rewrite):
    """One fetch/cache pre-pass of the trace on the default hierarchy,
    as a fresh-trace query builds it: through the native kernel where a
    C compiler exists (a host without one measures ``build_prepass``,
    and the gate shows it)."""
    from repro.sim.ooo.pipeline import _build_prepass

    program, defs, trace = unepic_rewrite
    sim = OoOSimulator(program, MachineConfig(), ext_defs=defs)
    pre = benchmark(lambda: _build_prepass(
        sim._events, trace.indices, trace.addrs, sim.config.hierarchy,
        sim.config.fetch_width))
    assert len(pre.fcyc) == len(trace)


def test_functional_native(benchmark, unepic_rewrite):
    """One traced functional run of the rewrite, construction included,
    as a sweep's validation runs it: through the native kernel where a C
    compiler exists (a host without one measures the block-compiled
    interpreter, and the gate shows it)."""
    program, defs, trace = unepic_rewrite
    result = benchmark(lambda: FunctionalSimulator(
        program, ext_defs=defs).run(collect_trace=True))
    assert result.trace.indices == trace.indices
