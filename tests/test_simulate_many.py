"""``simulate_many`` split across forked processes
(:mod:`repro.sim.ooo.parallel`).

Forced ``jobs=2`` must answer byte-for-byte like serial replay on every
workload's selective 2-PFU rewrite over a machine grid, timelines
included. A config that raises gives serial's exception, a child that
dies is re-run in the parent, and no child is left unreaped. With
``jobs=None`` the call stays serial wherever forking is unsafe or does
not pay, and serve's batches never fork. No test here asks for more
than 2 processes.
"""

import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import replace
from functools import lru_cache

import pytest

from repro import api
from repro.engine.store import stats_to_json
from repro.obs import observed
from repro.serve import protocol
from repro.serve.ops import OpRunner
from repro.sim.cache import HierarchyConfig
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import (
    MachineConfig, OoOSimulator, native, parallel, simulate_many,
)
from repro.sim.trace import DynTrace
from repro.workloads import WORKLOAD_NAMES

_BASE = HierarchyConfig()
_SMALL_DL1 = replace(_BASE, dl1=replace(_BASE.dl1, assoc=2, nsets=4))

#: 2 hierarchies × RUU × PFU count × reconfiguration latency, with the
#: hierarchy innermost so the two pre-pass groups interleave.
GRID = [
    MachineConfig(hierarchy=h, ruu_size=ruu, n_pfus=pfus,
                  reconfig_latency=lat)
    for ruu in (16, 64) for pfus in (1, None) for lat in (10, 500)
    for h in (_BASE, _SMALL_DL1)
]


@lru_cache(maxsize=None)
def _rewritten(name: str):
    """(program, ext_defs, trace) of ``name``'s selective 2-PFU rewrite."""
    program = api.compile(workload=name)
    profile = api.profile(program=program)
    selection = api.select(profile=profile, algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True).trace
    return rewritten, defs, trace


def _dump(stats) -> bytes:
    return pickle.dumps(vars(stats))


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children this process forks during the test."""
    pids: list[int] = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ----------------------------------------------------------------------
# differential: forked == serial


@pytest.mark.parametrize("window", [None, (100, 400)], ids=["plain", "window"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_forked_grid_equals_serial(name, window, forks):
    program, defs, trace = _rewritten(name)
    # a recorded timeline replays on the reference loop: every third
    # machine still covers both values of every axis
    grid = GRID if window is None else GRID[::3]
    serial = simulate_many(program, trace, grid, ext_defs=defs,
                           record_window=window, jobs=1)
    assert not forks
    forked = simulate_many(program, trace, grid, ext_defs=defs,
                           record_window=window, jobs=2)
    assert len(forks) == 1
    assert [_dump(s) for s in forked] == [_dump(s) for s in serial]
    assert serial[0].cache != serial[1].cache     # both hierarchies bite
    if window is not None:
        assert all(len(s.timeline) == 300 for s in forked)
    _assert_reaped(forks)


def test_forked_grid_equals_per_config_simulators(forks):
    program, defs, trace = _rewritten("gsm_encode")
    fresh = DynTrace(indices=trace.indices, addrs=trace.addrs)
    got = simulate_many(program, fresh, GRID[:4], ext_defs=defs, jobs=2)
    want = [OoOSimulator(program, cfg, ext_defs=defs).simulate(trace)
            for cfg in GRID[:4]]
    assert len(forks) == 1
    assert [_dump(s) for s in got] == [_dump(s) for s in want]


# ----------------------------------------------------------------------
# faults


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("where", ["parent", "child", "both"])
def test_raising_config_gives_the_serial_exception(where, monkeypatch,
                                                   forks):
    program, defs, trace = _rewritten("gsm_encode")
    # grouped by hierarchy as [0, 2 | 1, 3]: the parent replays
    # grid[0] and grid[2], the child grid[1] and grid[3]
    grid = GRID[:4]
    bad = {"parent": {grid[2]}, "child": {grid[3]},
           "both": {grid[2], grid[3]}}[where]
    real = OoOSimulator.simulate

    def simulate(self, trace, record_window=None):
        if self.config in bad:
            raise _Boom(f"bad config ruu={self.config.ruu_size} "
                        f"dl1={self.config.hierarchy.dl1.nsets}")
        return real(self, trace, record_window)

    monkeypatch.setattr(OoOSimulator, "simulate", simulate)
    with pytest.raises(_Boom) as serial:
        simulate_many(program, trace, grid, ext_defs=defs, jobs=1)
    with pytest.raises(_Boom) as forked:
        simulate_many(program, trace, grid, ext_defs=defs, jobs=2)
    assert str(forked.value) == str(serial.value)
    assert len(forks) == 1
    _assert_reaped(forks)


def test_empty_trace_raises_like_serial(forks):
    program, defs, _ = _rewritten("gsm_encode")
    empty = DynTrace(indices=[], addrs=[])
    with pytest.raises(Exception) as serial:
        simulate_many(program, empty, GRID[:2], ext_defs=defs, jobs=1)
    with pytest.raises(type(serial.value)) as forked:
        simulate_many(program, empty, GRID[:2], ext_defs=defs, jobs=2)
    assert str(forked.value) == str(serial.value)
    _assert_reaped(forks)


def test_killed_child_is_rerun_in_the_parent(monkeypatch, forks):
    program, defs, trace = _rewritten("gsm_encode")
    want = simulate_many(program, trace, GRID, ext_defs=defs, jobs=1)
    parent = os.getpid()
    real = OoOSimulator.simulate

    def simulate(self, trace, record_window=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(self, trace, record_window)

    monkeypatch.setattr(OoOSimulator, "simulate", simulate)
    got = simulate_many(program, trace, GRID, ext_defs=defs, jobs=2)
    assert len(forks) == 1
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    _assert_reaped(forks)


def test_short_payload_is_rerun_in_the_parent(monkeypatch, forks):
    program, defs, trace = _rewritten("gsm_encode")
    want = simulate_many(program, trace, GRID[:4], ext_defs=defs, jobs=1)
    parent = os.getpid()
    real_dumps = pickle.dumps

    def truncated(obj, *args, **kwargs):
        data = real_dumps(obj, *args, **kwargs)
        return data[:len(data) // 2] if os.getpid() != parent else data

    monkeypatch.setattr(parallel.pickle, "dumps", truncated)
    got = simulate_many(program, trace, GRID[:4], ext_defs=defs, jobs=2)
    assert len(forks) == 1
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    _assert_reaped(forks)


def test_failed_fork_runs_the_shard_here(monkeypatch):
    program, defs, trace = _rewritten("gsm_encode")
    want = simulate_many(program, trace, GRID[:4], ext_defs=defs, jobs=1)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    got = simulate_many(program, trace, GRID[:4], ext_defs=defs, jobs=2)
    assert [_dump(s) for s in got] == [_dump(s) for s in want]


# ----------------------------------------------------------------------
# policy


def _big_grid():
    """A grid well above the work floor, which jobs=None would fork."""
    program, defs, trace = _rewritten("unepic")
    configs = GRID[:12]
    assert _least_work(trace, configs) >= parallel.NATIVE.floor
    return program, defs, trace, configs


def _least_work(trace, configs):
    """A two-hierarchy grid's work on the native path: whichever
    pre-pass is cached, one is built."""
    costs = parallel.NATIVE
    return len(trace) * (costs.replay * len(configs) + costs.prepass)


def test_automatic_split_forks_when_it_pays(monkeypatch, forks):
    program, defs, trace, configs = _big_grid()
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    want = simulate_many(program, trace, configs, ext_defs=defs, jobs=1)
    got = simulate_many(program, trace, configs, ext_defs=defs)
    assert len(forks) == 1
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    _assert_reaped(forks)


def test_parent_keeps_the_cached_prepass(monkeypatch, forks):
    """The parent replays the shard that starts on the trace's cached
    pre-pass, so a repeated grid finds it cached again."""
    if not native.available():
        pytest.skip("native kernel unavailable: no pre-pass is built")
    program, defs, trace, configs = _big_grid()
    trace = DynTrace(indices=trace.indices, addrs=trace.addrs)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    # cache the second hierarchy's pre-pass, not the first group's
    simulate_many(program, trace, configs[1:2], ext_defs=defs, jobs=1)
    cached = trace._prepass_cache[0]
    want = simulate_many(program, trace, configs, ext_defs=defs, jobs=1)
    simulate_many(program, trace, configs[1:2], ext_defs=defs, jobs=1)
    got = simulate_many(program, trace, configs, ext_defs=defs, jobs=2)
    assert len(forks) == 1
    assert trace._prepass_cache[0] == cached
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    _assert_reaped(forks)


def _on_other_thread(fn):
    box = {}
    thread = threading.Thread(target=lambda: box.setdefault("out", fn()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return box["out"]


@pytest.mark.parametrize("case", [
    "one_config", "live_recorder", "off_main_thread", "other_threads",
    "multiprocessing_child", "no_fork", "below_work_floor",
])
def test_automatic_policy_stays_serial(case, monkeypatch, forks):
    program, defs, trace, configs = _big_grid()
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    want = simulate_many(program, trace, configs, ext_defs=defs, jobs=1)

    def run():
        return simulate_many(program, trace, configs, ext_defs=defs)

    if case == "one_config":     # on a trace that clears the floor alone
        program, defs, trace = _rewritten("unepic")
        trace = DynTrace(indices=trace.indices * 7, addrs=trace.addrs * 7)
        configs = GRID[:1]
        assert len(trace) * parallel.grid_cost([0], None, parallel.NATIVE) \
            >= parallel.NATIVE.floor
        want = simulate_many(program, trace, configs, ext_defs=defs, jobs=1)
        got = run()
    elif case == "live_recorder":      # stall cycles are recorded too
        with observed():
            want = simulate_many(program, trace, configs, ext_defs=defs,
                                 jobs=1)
            got = run()
    elif case == "off_main_thread":
        got = _on_other_thread(run)
    elif case == "other_threads":
        stop = threading.Event()
        idle = threading.Thread(target=stop.wait)
        idle.start()
        try:
            got = run()
        finally:
            stop.set()
            idle.join(timeout=10)
        assert not idle.is_alive()
    elif case == "multiprocessing_child":
        monkeypatch.setattr(multiprocessing, "parent_process", object)
        got = run()
    elif case == "no_fork":
        monkeypatch.delattr(os, "fork")
        got = run()
    else:
        short = DynTrace(indices=trace.indices[:1000],
                         addrs=trace.addrs[:1000])
        for costs in (parallel.NATIVE, parallel.REFERENCE):
            assert len(short) * parallel.grid_cost(
                [0] * 4 + [1] * 4, None, costs) < costs.floor
        want = simulate_many(program, short, configs, ext_defs=defs, jobs=1)
        got = simulate_many(program, short, configs, ext_defs=defs)
    assert not forks
    assert [_dump(s) for s in got] == [_dump(s) for s in want]


def test_explicit_jobs_is_capped(monkeypatch, forks):
    program, defs, trace, configs = _big_grid()
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    simulate_many(program, trace, configs, ext_defs=defs, jobs=2)
    assert not forks                       # one usable core
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    simulate_many(program, trace, configs[:2], ext_defs=defs, jobs=64)
    assert len(forks) == 1                 # two cores, two configs
    floor = parallel.NATIVE.floor
    assert parallel.worker_count(64, 3, 1, floor) == 2
    assert parallel.worker_count(64, 1, 10**9, floor) == 1
    assert parallel.worker_count(1, 8, 10**9, floor) == 1
    assert parallel.worker_count(None, 8, 1, floor) == 1
    assert parallel.worker_count(None, 8, floor, floor) == 2
    assert parallel.worker_count(None, 8, floor - 1, floor) == 1
    with pytest.raises(ValueError):
        parallel.worker_count(0, 8, 10**9, floor)
    # counts only: nothing is forked below
    monkeypatch.setattr(parallel, "usable_cores", lambda: 4)
    assert parallel.worker_count(64, 3, 1, floor) == 3  # capped at configs
    assert parallel.worker_count(None, 2, 10**9, floor) == 2
    _assert_reaped(forks)


def test_split_grid_balances_replays_and_prepass_builds():
    # replay_grid's shape: one alternative hierarchy, then 8 configs
    # sharing the main pre-pass, which is cached on the trace: the
    # alternative builds its own, the 8 replay the inherited one
    labels = [0] + [1] * 8
    nat, ref = parallel.NATIVE, parallel.REFERENCE
    # the native kernels: a pre-pass is half a replay
    assert (nat.replay, nat.prepass) == (2, 1)
    assert parallel.split_grid(labels, 1, 2, nat) == [(0, 4), (4, 9)]
    assert parallel.grid_cost(labels, 1, nat, 0, 4) == 2 * 4 + 2
    assert parallel.grid_cost(labels, 1, nat, 4, 9) == 2 * 5
    assert parallel.split_grid(labels, None, 2, nat) == [(0, 4), (4, 9)]
    # the alternative cached instead: each shard builds the main one
    assert parallel.split_grid(labels, 0, 2, nat) == [(0, 5), (5, 9)]
    assert parallel.grid_cost(labels, 0, nat, 0, 5) == 2 * 5 + 1
    assert parallel.grid_cost(labels, 0, nat, 5, 9) == 2 * 4 + 1
    assert parallel.split_grid(labels, None, 1, nat) == [(0, 9)]
    # the reference loop builds no pre-pass
    assert ref.prepass == 0
    assert parallel.split_grid(labels, None, 2, ref) == [(0, 5), (5, 9)]
    for costs in (nat, ref):
        assert parallel.split_grid([0, 0, 0, 1, 1], None, 2, costs) \
            == [(0, 3), (3, 5)]
        assert parallel.split_grid([0, 1], None, 4, costs) \
            == [(0, 1), (1, 2)]
    # the cached pre-pass is free only as a shard's first group
    assert parallel.split_grid([0, 1, 2], 1, 2, nat) == [(0, 1), (1, 3)]
    assert parallel.split_grid([0, 1, 2], None, 2, nat) == [(0, 2), (2, 3)]
    for procs in (1, 2, 3):
        slices = parallel.split_grid([0, 0, 1, 1, 1, 2], 2, procs, nat)
        assert len(slices) <= procs
        assert [a for a, _ in slices][0] == 0 and slices[-1][1] == 6
        assert all(a < b for a, b in slices)
        assert all(b == c for (_, b), (c, _) in zip(slices, slices[1:]))


@pytest.mark.parametrize("path", ["native", "python", "reference"])
def test_split_follows_the_replay_path(path, monkeypatch):
    """The split weights and the work floor are those of the path the
    grid replays on: on replay_grid's shape with the main pre-pass
    cached, the native kernels (a pre-pass is half a replay) give the
    parent the last 5 main configurations and keep a 24k-instruction
    grid serial, while the reference loop (no pre-pass), which a grid
    takes with the kernel disabled ("python") or forced off, splits it
    as it always did."""
    if path == "native" and not native.available():
        pytest.skip("native kernel unavailable")
    if path == "python":
        monkeypatch.setattr(native, "ENABLED", False)
    elif path == "reference":
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
    program, defs, trace = _rewritten("gsm_encode")
    trace = DynTrace(indices=trace.indices, addrs=trace.addrs)
    configs = [GRID[1]] + GRID[0::2]      # [alt dl1] + 8 main
    # serial: builds the alternative pre-pass, then caches the main one
    want = simulate_many(program, trace, configs, ext_defs=defs, jobs=1)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    shards = []

    def run_here(parts, run):
        shards.append(parts)
        return [run(part) for part in parts]

    monkeypatch.setattr(parallel, "run_forked", run_here)
    got = simulate_many(program, trace, configs, ext_defs=defs, jobs=2)
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    split = {"native": [list(range(4, 9)), [0, 1, 2, 3]],
             "python": [[0, 1, 2, 3, 4], [5, 6, 7, 8]],
             "reference": [[0, 1, 2, 3, 4], [5, 6, 7, 8]]}[path]
    assert shards == [split]
    got = simulate_many(program, trace, configs, ext_defs=defs)
    assert [_dump(s) for s in got] == [_dump(s) for s in want]
    assert shards == ([split] if path == "native" else [split, split])


# ----------------------------------------------------------------------
# serve


def test_served_batch_never_forks(monkeypatch):
    """The worker pool is serve's parallelism: a batch well above the
    work floor still answers when ``os.fork`` cannot be called."""
    program, defs, trace, configs = _big_grid()
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    assert parallel.worker_count(None, len(configs),
                                 _least_work(trace, configs),
                                 parallel.NATIVE.floor) == 2

    def no_fork():
        raise RuntimeError("serve must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    items = [{"program": protocol.encode_value(program),
              "ext_defs": protocol.encode_value(defs),
              "machine": protocol.encode_value(cfg)} for cfg in configs]
    reply = OpRunner().run_job({"op": "simulate", "items": items})
    want = [OoOSimulator(program, cfg, ext_defs=defs).simulate(trace)
            for cfg in configs]
    assert [r["value"]["$stats"] for r in reply["results"]] == \
        [stats_to_json(s) for s in want]
