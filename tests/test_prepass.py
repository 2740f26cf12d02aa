"""Differential tests for the event-driven fetch/cache pre-pass.

The pre-pass has two builders: the native kernel
(:func:`repro.sim.ooo.native.prepass`), which models every level itself
and builds every pre-pass a replay uses, and its Python oracle
:func:`repro.sim.ooo.prepass.build_prepass`, which serves most cache
and TLB hits inline through per-set MRU mirrors. Their oracle here is the plain walk
both replace: every fetch-line change, load and store sent through
:class:`~repro.sim.cache.hierarchy.MemoryHierarchy` in program order,
with the reference loop's fetch-stage bookkeeping. Fetch cycles, load
latencies, the fetch-stall total and all five levels' statistics must
match exactly — on every workload, plain and rewritten, over
hierarchies small enough to evict, write back and miss in the TLBs, and
on random index/address streams.
"""

from array import array
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.asm import assemble
from repro.isa.encoding import TEXT_BASE
from repro.isa.opcodes import OpClass
from repro.obs import export_jsonl, load_jsonl, observed
from repro.obs.report import render_metrics_report
from repro.sim.cache import (
    CacheConfig, HierarchyConfig, MemoryHierarchy, TLBConfig,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator, native, simulate_many
from repro.sim.ooo.prepass import (
    EV_CTRL, EV_LOAD, EV_NONE, EV_STORE, LEVELS, Prepass, build_prepass,
)
from repro.sim.trace import DynTrace
from repro.workloads import WORKLOAD_NAMES

from conftest import loop_program

_EVENT_OF = {
    OpClass.LOAD: EV_LOAD, OpClass.STORE: EV_STORE,
    OpClass.BRANCH: EV_CTRL, OpClass.JUMP: EV_CTRL,
}

_BASE = HierarchyConfig()


def _with(**levels) -> HierarchyConfig:
    return replace(_BASE, **{
        name: replace(getattr(_BASE, name), **fields)
        for name, fields in levels.items()
    })


HIERARCHIES = {
    "default": _BASE,
    "dl1_256set": _with(dl1={"nsets": 256}),
    "dl1_direct": _with(dl1={"assoc": 1}),
    "dl1_2way": _with(dl1={"assoc": 2, "nsets": 4}),
    "dl1_8way": _with(dl1={"assoc": 8, "nsets": 2}),
    "ul2_2set": _with(ul2={"nsets": 2}, il1={"nsets": 2}),
    "tlb_2entry": _with(itlb={"entries": 2, "assoc": 1, "page_size": 256},
                        dtlb={"entries": 2, "assoc": 2, "page_size": 1024}),
}


def reference_walk(events, indices, addrs, hierarchy, fetch_width) -> Prepass:
    """The pre-pass computed access by access through MemoryHierarchy,
    with the reference loop's fetch stage (perfect prediction)."""
    hier = MemoryHierarchy(hierarchy)
    line_bits = hierarchy.il1.line_size.bit_length() - 1
    n = len(indices)
    fcyc: list[int] = []
    mlat = array("i", bytes(4 * n))
    fetch_cycle, fetched, cur_line, stall = 1, 0, -1, 0
    for k in range(n):
        si = indices[k]
        pc = TEXT_BASE + 4 * si
        if fetched >= fetch_width:
            fetch_cycle += 1
            fetched = 0
        if pc >> line_bits != cur_line:
            extra = hier.ifetch(pc) - 1
            if extra > 0:
                fetch_cycle += extra
                fetched = 0
                stall += extra
            cur_line = pc >> line_bits
        fcyc.append(fetch_cycle)
        fetched += 1
        ev = events[si]
        if ev == EV_LOAD:
            mlat[k] = hier.dload(addrs[k])
        elif ev == EV_STORE:
            hier.dstore(addrs[k])
        elif ev == EV_CTRL and k + 1 < n and indices[k + 1] != si + 1:
            fetch_cycle += 1
            fetched = 0
            cur_line = -1
    cache = {level: vars(getattr(hier, level).stats).copy()
             for level in LEVELS}
    return Prepass(fcyc, mlat, stall, cache)


def _native_prepass(events, indices, addrs, hierarchy, fetch_width):
    """The native kernel's pre-pass, its ``fcyc`` as a list so it
    compares field for field with ``build_prepass``'s."""
    pre = native.prepass(events, indices, addrs, hierarchy, fetch_width)
    assert pre is not None, "the kernel refused the inputs"
    assert type(pre.fcyc) is array and pre.fcyc.typecode == "q"
    return pre._replace(fcyc=pre.fcyc.tolist())


def _need_kernel():
    if not native.available():
        pytest.skip("native kernel unavailable")


@lru_cache(maxsize=None)
def _workload_traces(name: str):
    """(program, trace) for the plain and selective-rewritten workload."""
    program = api.compile(workload=name)
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    out = []
    for prog, ext_defs in ((program, None), (rewritten, defs)):
        trace = FunctionalSimulator(prog, ext_defs=ext_defs).run(
            collect_trace=True).trace
        out.append((prog, trace))
    return out


def _check_workload(name, builder):
    for program, trace in _workload_traces(name):
        events = [_EVENT_OF.get(instr.op_class, EV_NONE)
                  for instr in program.text]
        assert OoOSimulator(program)._events == events
        for label, hierarchy in HIERARCHIES.items():
            got = builder(events, trace.indices, trace.addrs, hierarchy, 4)
            want = reference_walk(events, trace.indices, trace.addrs,
                                  hierarchy, 4)
            assert got == want, (name, program.name, label)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_matches_reference_walk_on_every_workload(name):
    _check_workload(name, build_prepass)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_native_matches_reference_walk_on_every_workload(name):
    _need_kernel()
    _check_workload(name, _native_prepass)


def test_small_hierarchies_exercise_every_slow_path():
    """The differential test above is only as strong as the events it
    reaches: make sure its hierarchies evict, write back and miss."""
    program, trace = _workload_traces("unepic")[1]
    events = OoOSimulator(program)._events
    stats = {label: build_prepass(events, trace.indices, trace.addrs,
                                  hierarchy, 4).cache
             for label, hierarchy in HIERARCHIES.items()}
    assert stats["dl1_direct"]["dl1"]["writebacks"] > 0
    assert stats["dl1_8way"]["dl1"]["evictions"] > 0
    assert stats["ul2_2set"]["ul2"]["writebacks"] > 0
    assert stats["ul2_2set"]["il1"]["evictions"] > 0
    assert stats["tlb_2entry"]["itlb"]["evictions"] > 0
    assert stats["tlb_2entry"]["dtlb"]["evictions"] > 0


# ----------------------------------------------------------------------
# random streams

_TINY = [
    HierarchyConfig(
        il1=CacheConfig("il1", nsets=2, assoc=1, line_size=16,
                        hit_latency=il1_lat),
        dl1=CacheConfig("dl1", nsets=dl1_sets, assoc=dl1_assoc, line_size=8,
                        hit_latency=2),
        ul2=CacheConfig("ul2", nsets=2, assoc=2, line_size=16, hit_latency=3),
        itlb=TLBConfig("itlb", entries=2, assoc=1, page_size=32,
                       miss_penalty=5),
        dtlb=TLBConfig("dtlb", entries=2, assoc=2, page_size=32,
                       miss_penalty=7),
        mem_latency=9,
    )
    for il1_lat in (1, 2)
    for dl1_sets, dl1_assoc in ((1, 1), (2, 2), (1, 4))
]

_N_STATIC = 40


@st.composite
def _streams(draw):
    events = draw(st.lists(st.sampled_from(
        [EV_NONE, EV_NONE, EV_LOAD, EV_STORE, EV_CTRL]),
        min_size=_N_STATIC, max_size=_N_STATIC))
    n = draw(st.integers(1, 300))
    # mostly fall-through, with jumps from any instruction (a transfer
    # from a non-control instruction must still refetch like the
    # reference walk does)
    steps = draw(st.lists(
        st.one_of(st.just(None), st.integers(0, _N_STATIC - 1)),
        min_size=n, max_size=n))
    indices, si = [], draw(st.integers(0, _N_STATIC - 1))
    for step in steps:
        indices.append(si)
        si = (si + 1) % _N_STATIC if step is None else step
    words = st.one_of(
        st.integers(0, 47).map(lambda w: 0x1000_0000 + 4 * w),
        st.integers(-64, -1),   # no sentinel may collide with an address
    )
    addrs = [draw(words) if events[i] in (EV_LOAD, EV_STORE) else -1
             for i in indices]
    return events, array("i", indices), array("q", addrs)


_STREAM_CASES = (_streams(), st.sampled_from(_TINY + [_BASE]),
                 st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(*_STREAM_CASES)
def test_matches_reference_walk_on_random_streams(stream, hierarchy, width):
    events, indices, addrs = stream
    got = build_prepass(events, indices, addrs, hierarchy, width)
    want = reference_walk(events, indices, addrs, hierarchy, width)
    assert got == want


def test_native_matches_reference_walk_on_random_streams():
    _need_kernel()

    @settings(max_examples=100, deadline=None)
    @given(*_STREAM_CASES)
    def check(stream, hierarchy, width):
        events, indices, addrs = stream
        got = _native_prepass(events, indices, addrs, hierarchy, width)
        want = reference_walk(events, indices, addrs, hierarchy, width)
        assert got == want

    check()


# ----------------------------------------------------------------------
# the per-trace cache


def _count_builds(monkeypatch, log):
    """Count pre-pass builds, also those made in the processes
    ``simulate_many`` forks: each appends one byte to ``log``."""
    real = native.prepass

    def counting(*args):
        with open(log, "ab") as out:
            out.write(b".")
        return real(*args)

    monkeypatch.setattr(native, "prepass", counting)
    return lambda: log.stat().st_size if log.exists() else 0


def test_simulate_many_builds_each_prepass_once(monkeypatch, tmp_path):
    _need_kernel()
    program, trace = _workload_traces("gsm_encode")[0]
    a = MachineConfig()
    b = replace(a, hierarchy=HIERARCHIES["dl1_2way"])
    c = replace(a, ruu_size=16)
    alone = [OoOSimulator(program, cfg).simulate(
        DynTrace(indices=trace.indices, addrs=trace.addrs))
        for cfg in (a, b, c)]
    assert alone[0].cache != alone[1].cache

    builds = _count_builds(monkeypatch, tmp_path / "builds")
    fresh = DynTrace(indices=trace.indices, addrs=trace.addrs)
    got = simulate_many(program, fresh, [a, b, a, c, b])
    assert builds() == 2
    assert [vars(s) for s in got] == \
        [vars(alone[i]) for i in (0, 1, 0, 2, 1)]


def test_prepass_cache_is_keyed_by_program():
    """One trace replayed under two programs with the same layout but
    different instruction classes must not share load/fetch arrays."""
    loads = assemble(loop_program(
        ["lw $t0, 0($sp)", "addu $t1, $t1, $t0"], iterations=50))
    alus = assemble(loop_program(
        ["addu $t0, $t0, $t1", "addu $t1, $t1, $t0"], iterations=50))
    assert len(loads.text) == len(alus.text)
    trace = FunctionalSimulator(loads).run(collect_trace=True).trace
    OoOSimulator(loads).simulate(trace)
    got = OoOSimulator(alus).simulate(trace)
    want = OoOSimulator(
        alus, MachineConfig(sim_fast_path=False)).simulate(trace)
    assert got.cache["dl1"]["accesses"] == 0
    assert vars(got) == vars(want)


def test_disabled_replay_leaves_no_prepass(monkeypatch, tmp_path):
    """A replay under ``native.disabled()`` runs the reference loop and
    caches nothing on the trace, so the next enabled replay of that
    trace builds the native pre-pass and returns the same stats."""
    _need_kernel()
    program, trace = _workload_traces("gsm_encode")[1]
    fresh = DynTrace(indices=trace.indices, addrs=trace.addrs)
    with native.disabled():
        reference = OoOSimulator(program).simulate(fresh)
    assert getattr(fresh, "_prepass_cache", None) is None
    builds = _count_builds(monkeypatch, tmp_path / "builds")
    kernel = OoOSimulator(program).simulate(fresh)
    assert builds() == 1
    assert getattr(fresh, "_prepass_cache", None) is not None
    assert vars(kernel) == vars(reference)


def test_prepass_span_under_timing_span():
    _need_kernel()
    program, trace = _workload_traces("gsm_encode")[1]
    plain = OoOSimulator(program).simulate(
        DynTrace(indices=trace.indices, addrs=trace.addrs))
    with observed() as rec:
        fresh = DynTrace(indices=trace.indices, addrs=trace.addrs)
        watched = OoOSimulator(program).simulate(fresh)
        OoOSimulator(program, MachineConfig(ruu_size=16)).simulate(fresh)
    observed_only = {"stall_cycles"}
    assert {k: v for k, v in vars(watched).items() if k not in observed_only} \
        == {k: v for k, v in vars(plain).items() if k not in observed_only}
    timing = [s for s in rec.spans if s.name == "sim.timing"]
    prepass = [s for s in rec.spans if s.name == "sim.timing.prepass"]
    assert len(timing) == 2 and len(prepass) == 1  # second run reuses it
    span = prepass[0]
    assert span.parent_id == timing[0].span_id
    assert span.attrs["instructions"] == len(trace)
    for level in LEVELS:
        assert span.attrs[f"{level}_misses"] == plain.cache[level]["misses"]


def test_metrics_report_splits_prepass_from_replay(tmp_path):
    """A run counts its pre-pass once: as pre-pass time, never again
    as replay time."""
    _need_kernel()
    program = assemble(loop_program(
        ["lw $t0, 0($sp)", "addu $t1, $t1, $t0", "sw $t1, 4($sp)"],
        iterations=400))
    trace = FunctionalSimulator(program).run(collect_trace=True).trace
    with observed() as rec:
        OoOSimulator(program).simulate(
            DynTrace(indices=trace.indices, addrs=trace.addrs))
    timing = [s for s in rec.spans if s.name == "sim.timing"]
    prepass = [s for s in rec.spans if s.name == "sim.timing.prepass"]
    assert len(timing) == 1 and len(prepass) == 1
    path = str(tmp_path / "m.jsonl")
    export_jsonl(rec, path)
    text = render_metrics_report([load_jsonl(path)])
    prepass_s = sum(s.duration for s in prepass)
    prepass_ms = prepass_s * 1e3
    replay_ms = (sum(s.duration for s in timing) - prepass_s) * 1e3
    assert f"fetch/cache pre-pass: {prepass_ms:,.1f} ms over 1 build(s)" \
        in text
    assert f"replay: {replay_ms:,.1f} ms over 1 simulate call(s)" in text
