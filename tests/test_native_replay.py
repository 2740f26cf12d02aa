"""The native kernels (:mod:`repro.sim.ooo.native`): replay and pre-pass.

The replay kernel is an alternate path for the fast replay loop, so its
oracle is the reference loop: every ``SimStats`` field must match on the
PFU models, latency models and rings this file drives it through. The
pre-pass kernel's oracle is ``build_prepass`` (and, in
``tests/test_prepass.py``, a walk through ``MemoryHierarchy``). Inputs
the kernels cannot take in place — negative or out-of-range static
indices, an address column shorter than the index column, list columns,
columns of another typecode — must be refused by both before their
loops run, so the Python path answers (or raises) exactly as it did; a
hierarchy the pre-pass kernel does not model is refused too. A missing
compiler, a failed build and a corrupt cached library all fall back to
Python. A library in a directory another user owns or can write to, or
one that is itself writable by others or a symlink, is never loaded.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from functools import lru_cache

import pytest

from repro.engine import get_default_pipeline
from repro.extinst import SelectionParams
from repro.sim.functional import FunctionalSimulator
from repro.sim.cache import HierarchyConfig, TLBConfig
from repro.sim.ooo import MachineConfig, OoOSimulator, native, pipeline
from repro.sim.ooo.prepass import build_prepass
from repro.sim.trace import DynTrace

from test_fastpath import _observed_runs


@lru_cache(maxsize=None)
def _rewritten(name: str = "gsm_encode"):
    program, defs = get_default_pipeline().rewrite(
        name, 1, SelectionParams("selective", 2), True)
    trace = FunctionalSimulator(program, ext_defs=defs).run(
        collect_trace=True).trace
    return program, defs, trace


@pytest.fixture
def calls(monkeypatch):
    """What each :func:`native.replay` call answered."""
    seen = []
    inner = native.replay

    def spy(*args, **kwargs):
        got = inner(*args, **kwargs)
        seen.append(got if got is None or got is native.OVERFLOW
                    else "replayed")
        return got

    monkeypatch.setattr(native, "replay", spy)
    return seen


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test."""
    native.kernel.cache_clear()
    yield
    native.kernel.cache_clear()


def _reference(program, defs, trace, config):
    slow = dataclasses.replace(config, sim_fast_path=False)
    return vars(OoOSimulator(program, slow, ext_defs=defs).simulate(trace))


def _outcome(program, defs, trace, config):
    try:
        return "ok", vars(
            OoOSimulator(program, config, ext_defs=defs).simulate(trace))
    except Exception as exc:
        return "raised", type(exc), str(exc)


def test_kernel_loads_when_a_compiler_is_on_path():
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert native.kernel() is not None
    assert native.available()


@pytest.mark.parametrize("config", [
    MachineConfig(),
    MachineConfig(n_pfus=1, reconfig_latency=500),
    MachineConfig(n_pfus=16, reconfig_latency=50),
    MachineConfig(n_pfus=None, reconfig_latency=100),
    MachineConfig(reconfig_model="bitstream", config_bits_per_cycle=64),
    MachineConfig(ext_latency_model="mapped", lut_levels_per_cycle=2),
    MachineConfig(issue_width=2, decode_width=2, commit_width=2,
                  ruu_size=48, n_ialu=1, n_memports=1),
    # the kernel caps the issue width at the RUU size (an equivalent
    # machine), which bounds its issue-width histogram
    MachineConfig(issue_width=10**9, decode_width=16, ruu_size=8,
                  n_ialu=16, n_memports=16, n_imult=4),
], ids=["default", "pfu1", "pfu16", "unlimited", "bitstream", "mapped",
        "narrow", "wider_than_ruu"])
def test_matches_reference(config, calls):
    program, defs, trace = _rewritten()
    got = OoOSimulator(program, config, ext_defs=defs).simulate(trace)
    assert vars(got) == _reference(program, defs, trace, config)
    if native.available():
        assert calls == ["replayed"]


def test_horizon_overflow_retries_with_larger_rings(monkeypatch, calls):
    if not native.available():
        pytest.skip("native kernel unavailable")
    program, defs, trace = _rewritten()
    config = MachineConfig(n_pfus=1, reconfig_latency=500)
    monkeypatch.setattr(OoOSimulator, "_initial_horizon", lambda self: 4)
    got = OoOSimulator(program, config, ext_defs=defs).simulate(trace)
    assert vars(got) == _reference(program, defs, trace, config)
    assert calls[0] is native.OVERFLOW and calls[-1] == "replayed"


@pytest.mark.parametrize("name", ["gsm_encode", "unepic"])
def test_observed_streams_match_reference(name):
    """A live recorder's stall attribution, issue-width histogram and
    reconfiguration spans, through the kernel."""
    program, defs, trace = _rewritten(name)
    for config in (MachineConfig(n_pfus=2, reconfig_latency=10),
                   MachineConfig(n_pfus=None, reconfig_latency=10)):
        runs = _observed_runs(program, defs, trace, config)
        assert runs[0] == runs[1], (name, config)


# ----------------------------------------------------------------------
# inputs refused before the loop


def _columns(trace, n=2000):
    return array("i", trace.indices[:n]), array("q", trace.addrs[:n])


@pytest.mark.parametrize("case", [
    "negative_index", "index_past_text", "short_addrs", "list_columns",
])
def test_bad_columns_take_the_python_path(case, monkeypatch, calls):
    program, defs, trace = _rewritten()
    indices, addrs = _columns(trace)
    if case == "negative_index":
        indices[100] = -1
    elif case == "index_past_text":
        indices[100] = len(program.text) + 3
    elif case == "short_addrs":
        addrs = addrs[:len(addrs) // 2]
    else:
        indices, addrs = list(indices), list(addrs)
    config = MachineConfig()
    got = _outcome(program, defs, DynTrace(indices=indices, addrs=addrs),
                   config)
    assert native.OVERFLOW not in calls and "replayed" not in calls
    monkeypatch.setattr(native, "ENABLED", False)
    want = _outcome(program, defs, DynTrace(indices=indices, addrs=addrs),
                    config)
    assert got == want


def test_kernel_refuses_indices_outside_the_table():
    if not native.available():
        pytest.skip("native kernel unavailable")
    program, defs, trace = _rewritten()
    sim = OoOSimulator(program, MachineConfig(), ext_defs=defs)
    indices, addrs = _columns(trace)
    pre = sim._prepass(DynTrace(indices=indices, addrs=addrs), None)
    tab, confs = sim._native_tab(trace)
    params = array("q", (4, 4, 4, 64, 4, 1, 2, 2, len(confs),
                         sim._initial_horizon()))
    conf_lat = array("q", [10] * len(confs))

    def replay(indices, addrs, tab=tab):
        return native.replay(indices, addrs, array("q", pre.fcyc),
                             pre.mlat, tab, params, conf_lat, False)

    assert isinstance(replay(indices, addrs), native.Replay)
    for bad in (-1, len(program.text), 2**31 - 1):
        wrong = array("i", indices)
        wrong[-1] = bad
        assert replay(wrong, addrs) is None, bad
    assert replay(indices, addrs[:-1]) is None
    assert replay(list(indices), addrs) is None
    assert replay(indices, array("l", addrs)) is None
    bad_tab = array("i", tab)
    bad_tab[2] = 32                       # a source register past $31
    assert replay(indices, addrs, bad_tab) is None


def _bad_columns(case, program, trace):
    """The first 2000 instructions' columns, spoiled as ``case`` says."""
    indices, addrs = _columns(trace)
    if case == "negative_index":
        indices[100] = -1
    elif case == "index_past_text":
        indices[100] = len(program.text) + 3
    elif case == "index_max":
        indices[-1] = 2**31 - 1
    elif case == "short_addrs":
        addrs = addrs[:len(addrs) // 2]
    elif case == "empty":
        indices, addrs = array("i"), array("q")
    elif case == "list_indices":
        indices = list(indices)
    elif case == "list_addrs":
        addrs = list(addrs)
    elif case == "typecode_indices":
        indices = array("l", indices)
    elif case == "typecode_addrs":
        addrs = array("l", addrs)
    elif case == "extreme_addrs":
        for k in range(0, len(addrs), 3):
            addrs[k] = _EXTREME[k % len(_EXTREME)]
    else:
        assert case == "ok"
    return indices, addrs


_COLUMN_CASES = [
    "ok", "negative_index", "index_past_text", "index_max", "short_addrs",
    "empty", "list_indices", "list_addrs", "typecode_indices",
    "typecode_addrs",
]


@pytest.mark.parametrize("case", _COLUMN_CASES)
def test_replay_and_prepass_refuse_the_same_columns(case):
    """A replay through the kernel always has a pre-pass the kernel
    built: the two refuse exactly the same columns."""
    if not native.available():
        pytest.skip("native kernel unavailable")
    program, defs, trace = _rewritten()
    sim = OoOSimulator(program, MachineConfig(), ext_defs=defs)
    indices, addrs = _bad_columns(case, program, trace)
    pre = native.prepass(sim._events, indices, addrs,
                         sim.config.hierarchy, sim.config.fetch_width)
    tab, confs = sim._native_tab(trace)
    n = len(indices)
    got = native.replay(
        indices, addrs, array("q", [1]) * n, array("i", [1]) * n, tab,
        array("q", (4, 4, 4, 64, 4, 1, 2, 2, len(confs), 1 << 12)),
        array("q", [10] * len(confs)), False)
    assert (pre is None) == (got is None) == (case != "ok")


def _prepass_outcome(build, *args):
    try:
        pre = build(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "ok", list(pre.fcyc), pre.mlat, pre.fetch_stall, pre.cache


_EXTREME = (-2**63, 2**63 - 1, -1, -4096, -2**40 - 3, 2**62 + 17)


@pytest.mark.parametrize("case", _COLUMN_CASES[1:] + ["extreme_addrs"])
def test_prepass_refusals_match_python(case, monkeypatch):
    """Refused columns fall back to ``build_prepass``, which answers or
    raises as it always did; negative and extreme int64 addresses are
    taken, and shift and mask as Python ints do."""
    program, defs, trace = _rewritten()
    events = OoOSimulator(program, ext_defs=defs)._events
    indices, addrs = _bad_columns(case, program, trace)
    args = (events, indices, addrs, HierarchyConfig(), 4)
    if native.available():
        assert (native.prepass(*args) is None) == (case != "extreme_addrs")
    want = _prepass_outcome(build_prepass, *args)
    assert _prepass_outcome(pipeline._build_prepass, *args) == want
    monkeypatch.setattr(native, "ENABLED", False)
    assert _prepass_outcome(pipeline._build_prepass, *args) == want


def test_extreme_addresses_match_reference():
    program, defs, trace = _rewritten()
    indices, addrs = _bad_columns("extreme_addrs", program, trace)
    config = MachineConfig(n_pfus=2, reconfig_latency=10)
    got = OoOSimulator(program, config, ext_defs=defs).simulate(
        DynTrace(indices=indices, addrs=addrs))
    assert vars(got) == _reference(
        program, defs, DynTrace(indices=indices, addrs=addrs), config)


def _hierarchy(**fields):
    base = HierarchyConfig()
    return dataclasses.replace(base, **fields)


@pytest.mark.parametrize("case", [
    "latency_past_cap", "negative_penalty", "page_not_pow2",
    "mlat_overflow", "past_int64",
])
def test_hierarchies_the_kernel_refuses(case, calls, monkeypatch):
    """A hierarchy the pre-pass kernel does not model is built by
    ``build_prepass``, which answers or raises as it always did; a
    replay then refuses that pre-pass and runs the Python loop, or, for
    a load latency past the int32 latency column, the reference loop.
    Either way ``simulate`` answers what the reference loop answers."""
    program, defs, trace = _rewritten()
    hierarchy = {
        "latency_past_cap": _hierarchy(mem_latency=2**24 + 1),
        "negative_penalty": _hierarchy(
            dtlb=TLBConfig("dtlb", entries=128, assoc=4, miss_penalty=-3)),
        "page_not_pow2": _hierarchy(
            itlb=TLBConfig("itlb", entries=64, assoc=4, page_size=3000)),
        "mlat_overflow": _hierarchy(mem_latency=2**40),
        "past_int64": _hierarchy(mem_latency=2**70),
    }[case]
    events = OoOSimulator(program, ext_defs=defs)._events
    indices, addrs = _columns(trace)
    args = (events, indices, addrs, hierarchy, 4)
    assert native.prepass(*args) is None
    assert _prepass_outcome(pipeline._build_prepass, *args) == \
        _prepass_outcome(build_prepass, *args)
    config = MachineConfig(hierarchy=hierarchy)
    got = _outcome(program, defs, DynTrace(indices=indices, addrs=addrs),
                   config)
    assert "replayed" not in calls
    assert got == _outcome(
        program, defs, DynTrace(indices=indices, addrs=addrs),
        dataclasses.replace(config, sim_fast_path=False))
    if case in ("mlat_overflow", "past_int64"):
        assert got[0] == "ok"
    monkeypatch.setattr(native, "ENABLED", False)
    assert got == _outcome(program, defs,
                           DynTrace(indices=indices, addrs=addrs), config)


# ----------------------------------------------------------------------
# build cache and fallback


def test_importing_the_simulator_loads_no_build_modules():
    """``ctypes``, ``hashlib``, ``subprocess`` and ``sysconfig`` are for
    building and loading the library: importing the simulator must not
    load them."""
    import subprocess
    import sys

    code = ("import sys, repro.sim.ooo\n"
            "print(sorted({'ctypes', 'hashlib', 'subprocess', 'sysconfig'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cache_key_covers_every_source(monkeypatch, tmp_path):
    key = native.cache_key()
    for source in native.SOURCES:
        copy = tmp_path / source.name
        copy.write_bytes(source.read_bytes() + b"\n")
        edited = [copy if s is source else s for s in native.SOURCES]
        monkeypatch.setattr(native, "SOURCES", tuple(edited))
        assert native.cache_key() != key, source.name
        monkeypatch.undo()


def test_cache_location_and_key(monkeypatch, tmp_path):
    monkeypatch.setenv("T1000_CACHE_DIR", str(tmp_path / "store"))
    assert native.cache_dirs()[0] == tmp_path / "store" / "native"
    monkeypatch.delenv("T1000_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert native.cache_dirs()[0] == tmp_path / "xdg" / "t1000" / "native"
    assert native.cache_dirs()[-1].name == f"t1000-native-{os.getuid()}"
    key = native.cache_key()
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g",))
    assert native.cache_key() != key
    monkeypatch.setattr(native, "platform_tag", lambda: "elsewhere")
    assert len({key, native.cache_key()}) == 2


def _fall_back(monkeypatch, tmp_path, cc):
    monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(native, "compiler", lambda: cc)
    assert native.kernel() is None
    program, defs, trace = _rewritten()
    config = MachineConfig(n_pfus=1, reconfig_latency=20)
    got = OoOSimulator(program, config, ext_defs=defs).simulate(trace)
    assert vars(got) == _reference(program, defs, trace, config)


def test_failed_build_falls_back(monkeypatch, tmp_path, fresh_kernel,
                                 calls):
    failing = tmp_path / "cc"
    failing.write_text("#!/bin/sh\nexit 1\n")
    failing.chmod(0o755)
    _fall_back(monkeypatch, tmp_path, str(failing))
    assert calls == []                 # the kernel was never asked
    assert not list(tmp_path.glob("replay-*"))     # no temp file left


def test_no_compiler_falls_back(monkeypatch, tmp_path, fresh_kernel):
    _fall_back(monkeypatch, tmp_path, None)


def test_corrupt_cached_library_falls_back_or_is_rebuilt(
        monkeypatch, tmp_path, fresh_kernel):
    cached = tmp_path / f"replay-{native.cache_key()[:32]}.so"
    cached.write_bytes(b"\x7fELF not really a shared library")
    _fall_back(monkeypatch, tmp_path, None)
    cc = native.compiler()
    if cc is None:
        return
    native.kernel.cache_clear()
    monkeypatch.setattr(native, "compiler", lambda: cc)
    assert native.kernel() is not None            # rebuilt in place
    assert cached.read_bytes()[:4] == b"\x7fELF"
    assert b"not really" not in cached.read_bytes()


@pytest.mark.parametrize("case", [
    "foreign_dir", "group_writable_dir", "world_writable_dir",
    "writable_library", "symlinked_library",
])
def test_planted_library_is_never_loaded(case, monkeypatch, tmp_path,
                                         fresh_kernel):
    directory = tmp_path / "native"
    directory.mkdir(mode=0o700)
    planted = directory / f"replay-{native.cache_key()[:32]}.so"
    if case == "symlinked_library":
        elsewhere = tmp_path / "elsewhere.so"
        elsewhere.write_bytes(b"planted")
        planted.symlink_to(elsewhere)
    else:
        planted.write_bytes(b"planted")
        planted.chmod(0o644)
    if case == "foreign_dir":
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    elif case == "group_writable_dir":
        directory.chmod(0o770)
    elif case == "world_writable_dir":
        directory.chmod(0o777)
    elif case == "writable_library":
        planted.chmod(0o666)
    cc = native.compiler()
    loaded = []
    load = native._load
    monkeypatch.setattr(native, "_load",
                        lambda path: loaded.append(path) or load(path))
    monkeypatch.setattr(native, "cache_dirs", lambda: [directory])
    monkeypatch.setattr(native, "compiler", lambda: None)
    assert native.kernel() is None
    assert loaded == []
    if cc is None:
        return
    # with a compiler: a refused directory is not built into either; a
    # refused library is rebuilt private, whatever the umask
    native.kernel.cache_clear()
    monkeypatch.setattr(native, "compiler", lambda: cc)
    umask = os.umask(0o002)
    try:
        got = native.kernel()
    finally:
        os.umask(umask)
    if case.endswith("_dir"):
        assert got is None and loaded == []
        assert [p.name for p in directory.iterdir()] == [planted.name]
    else:
        assert got is not None and loaded == [planted]
        assert native._private(planted, False)


def test_cache_directory_is_created_private(monkeypatch, tmp_path,
                                            fresh_kernel):
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    directory = tmp_path / "cache" / "native"
    monkeypatch.setattr(native, "cache_dirs", lambda: [directory])
    umask = os.umask(0o002)
    try:
        assert native.kernel() is not None
    finally:
        os.umask(umask)
    assert directory.stat().st_mode & 0o777 == 0o700
