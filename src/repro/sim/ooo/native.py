"""The native kernels: ``_replay.c``, ``_prepass.c`` and
``_functional.c``, built into one library once per host and called
through :mod:`ctypes`.

``t1000_replay`` computes what the generated Python fast loop computes
(:func:`repro.sim.ooo.pipeline._fast_loop_source`) for any machine, at
about 20 ns per instruction instead of about 900. ``t1000_prepass``
computes what :func:`repro.sim.ooo.prepass.build_prepass` computes, at
a few ns per instruction instead of about 250. ``t1000_functional``
runs a program as :class:`~repro.sim.functional.FunctionalSimulator`'s
reference loop does, at about 10–20 ns per instruction instead of
about 1,200–1,900 (500–700 block-compiled). The OoO simulator uses the
pre-pass kernel for every pre-pass and the replay kernel for every
fast-path replay that records no timeline; the functional simulator
uses the functional kernel for every fast-path run it accepts (see
docs/simulator.md, "Native pre-pass", "Native replay kernel" and
"Native functional kernel").

The shared library is built by the system C compiler on first use and
cached under ``$T1000_CACHE_DIR/native/`` if that is set, else under the
user's cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``)
``/t1000/native/``, else under ``<tmp>/t1000-native-<uid>/``. Its file
name carries the sha256 of every kernel source, the compiler flags and
the platform tag, so an edited source or another platform never loads a
stale build. The build writes a temp file and renames it into place, so
concurrent builders are safe. A directory or library that is not this
user's own, or that another user could write to, is never built into or
loaded from (:func:`_private`): the temp directory's name is
predictable, so anyone could create it first. With no compiler, or a
build or load that fails, :func:`kernel` returns None and functional
runs, the pre-pass and replay stay in Python.

``ctypes``, ``hashlib``, ``subprocess`` and ``sysconfig`` are imported
only by the functions that build and load the library, so importing the
simulator does not pay for them.
"""

from __future__ import annotations

import os
import shutil
import stat
import tempfile
from array import array
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.isa.encoding import TEXT_BASE
from repro.sim.cache.cache import CacheStats
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.sim.memory import PAGE_BITS, PAGE_SIZE
from repro.sim.ooo.prepass import LEVELS, Prepass

#: The library's sources: the header first, then one file per kernel.
SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_kernel.h", "_replay.c", "_prepass.c",
                             "_functional.c"))
CFLAGS = ("-O2", "-shared", "-fPIC")

#: Run functional runs, the pre-pass and replays through the kernels
#: when they are available. Setting this to False keeps all three in
#: Python.
ENABLED = True

#: :func:`replay`'s answer when the issue cycle drifted ``horizon`` or
#: more cycles past dispatch: retry with larger rings.
OVERFLOW = "overflow"

_R_OK, _R_HORIZON, _R_NOMEM, _R_BADINPUT = range(4)
#: ``out`` layout (``_replay.c``): 4 counters, 8 class counts, 8 stall
#: totals, the reconfiguration count, then the issue-width histogram
_O_CLASS, _O_STALL, _O_RECONFIGS, _O_HIST = 4, 12, 20, 21
#: reconfiguration records the first observed attempt has room for
_RECONFIG_CAP = 256
#: ``CacheStats`` fields, in the order ``_prepass.c`` writes them
_STAT_FIELDS = tuple(f.name for f in fields(CacheStats))


class Kernel(NamedTuple):
    """The library's three entry points."""

    replay: object
    prepass: object
    functional: object


class Replay(NamedTuple):
    """One kernel run's results."""

    cycles: int
    pfu_hits: int
    pfu_misses: int
    reconfig_cycles: int
    #: per instruction class (``pipeline._CLASS_NAMES`` order)
    class_counts: list[int]
    #: stall cycles per reason, in ``pipeline``'s order after fetch
    stalls: list[int]
    #: ``widths[w]``: cycles in which exactly ``w`` ops issued (w >= 1)
    widths: list[int]
    #: ``(dense conf, slot or -1, start, ready)`` per reconfiguration,
    #: filled only when asked for
    reconfigs: list[tuple[int, int, int, int]]


def platform_tag() -> str:
    import sysconfig

    return sysconfig.get_platform()


def cache_key() -> str:
    import hashlib

    digest = hashlib.sha256()
    for source in SOURCES:
        digest.update(source.name.encode() + b"\0")
        digest.update(source.read_bytes() + b"\0")
    digest.update("\0".join(CFLAGS).encode())
    digest.update(b"\0" + platform_tag().encode())
    return digest.hexdigest()


def cache_dirs() -> list[Path]:
    """Where the built library may live, in order of preference."""
    dirs = []
    root = os.environ.get("T1000_CACHE_DIR")
    if root:
        dirs.append(Path(root).expanduser() / "native")
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        try:
            base = Path(xdg) if xdg else Path.home() / ".cache"
            dirs.append(base / "t1000" / "native")
        except RuntimeError:        # no home directory
            pass
    if hasattr(os, "getuid"):
        # directly in the (sticky) temp directory, so no other user can
        # rename it away once it is this user's
        dirs.append(Path(tempfile.gettempdir())
                    / f"t1000-native-{os.getuid()}")
    return dirs


def _private(path: Path, directory: bool) -> bool:
    """True when ``path`` is a directory (else a regular file), not a
    symlink, owned by this user and writable by no other user. Never
    where there is no file ownership to check (no ``os.getuid``)."""
    if not hasattr(os, "getuid"):
        return False
    try:
        st = os.lstat(path)
    except OSError:
        return False
    kind = stat.S_ISDIR if directory else stat.S_ISREG
    return (kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & 0o022)


def compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def build(cc: str, target: Path) -> None:
    """Compile the kernels to ``target`` (temp file, then rename). The
    caller has checked that ``target.parent`` is :func:`_private`."""
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                               suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *CFLAGS, "-o", tmp,
             *(str(src) for src in SOURCES if src.suffix == ".c")],
            check=True, capture_output=True, timeout=120)
        os.chmod(tmp, 0o700)        # the linker applies the umask
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path) -> Kernel:
    import ctypes

    # PyDLL keeps the GIL for the call, so no other thread can resize
    # or rewrite a column while a kernel reads it
    lib = ctypes.PyDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    replay = lib.t1000_replay
    replay.restype = ctypes.c_int
    replay.argtypes = [
        i64, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, i64, ptr, i64,
    ]
    prepass = lib.t1000_prepass
    prepass.restype = ctypes.c_int
    prepass.argtypes = [i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr]
    functional = lib.t1000_functional
    functional.restype = ctypes.c_int
    functional.argtypes = [
        ptr, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
    ]
    return Kernel(replay, prepass, functional)


@lru_cache(maxsize=1)
def kernel() -> Kernel | None:
    """The loaded kernels, or None. Only a :func:`_private` directory is
    built into or loaded from, and only a :func:`_private` library is
    loaded; a cached library that is not, or that fails to load, is
    rebuilt once."""
    import subprocess

    name = f"replay-{cache_key()[:32]}.so"
    cc = compiler()
    for directory in cache_dirs():
        path = directory / name
        try:
            if cc is not None:
                directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(directory, True):
                continue
            if _private(path, False):
                try:
                    return _load(path)
                except (OSError, AttributeError):
                    pass            # corrupt: rebuild it below
            if cc is None:
                continue
            build(cc, path)
            return _load(path)
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue
    return None


def available() -> bool:
    """True when functional runs, the pre-pass and replays go through
    the kernels."""
    return ENABLED and kernel() is not None


@contextmanager
def disabled() -> Iterator[None]:
    """Keep functional runs, the pre-pass and replays in Python inside
    the block (not thread-safe: it flips :data:`ENABLED`)."""
    global ENABLED
    before, ENABLED = ENABLED, False
    try:
        yield
    finally:
        ENABLED = before


def _address(column, typecode: str) -> int | None:
    """Address of an ``array`` column of ``typecode``, else None."""
    if type(column) is not array or column.typecode != typecode:
        return None
    return column.buffer_info()[0]


def _geometry(hierarchy: HierarchyConfig, fetch_width: int) -> array:
    """``_prepass.c``'s ``geom`` layout; OverflowError when a value is
    no int64."""
    values = []
    for level in LEVELS:
        cfg = getattr(hierarchy, level)
        if level.endswith("tlb"):
            values += (cfg.entries // cfg.assoc, cfg.assoc, cfg.page_size,
                       cfg.miss_penalty)
        else:
            values += (cfg.nsets, cfg.assoc, cfg.line_size, cfg.hit_latency)
    values += (hierarchy.mem_latency, TEXT_BASE, fetch_width)
    return array("q", values)


def prepass(events, indices, addrs, hierarchy: HierarchyConfig,
            fetch_width: int) -> Prepass | None:
    """:func:`~repro.sim.ooo.prepass.build_prepass` through the kernel,
    with ``fcyc`` an ``array("q")``; None when the kernel is unavailable
    or an input fails its checks (the caller then runs
    ``build_prepass``, which answers or raises as it always did).

    The kernel refuses exactly the columns :func:`replay` refuses, and
    also a level that is no power-of-two geometry, larger than it
    allocates, or with a latency outside ``[0, 2**24]``, and a
    ``fetch_width`` below 1.
    """
    fn = kernel() if ENABLED else None
    idx_at, addr_at = _address(indices, "i"), _address(addrs, "q")
    if fn is None or idx_at is None or addr_at is None:
        return None
    try:
        geom = _geometry(hierarchy, fetch_width)
    except OverflowError:
        return None
    table = array("B", events)
    n = len(indices)
    fcyc = array("q", [0]) * n
    mlat = array("i", [0]) * n
    out = array("q", bytes(8 * (1 + len(LEVELS) * len(_STAT_FIELDS))))
    code = fn.prepass(
        n, idx_at, addr_at, len(addrs), table.buffer_info()[0], len(table),
        geom.buffer_info()[0], fcyc.buffer_info()[0], mlat.buffer_info()[0],
        out.buffer_info()[0],
    )
    if code != _R_OK:
        return None
    width = len(_STAT_FIELDS)
    cache = {
        level: dict(zip(_STAT_FIELDS, out[1 + i * width:1 + (i + 1) * width]))
        for i, level in enumerate(LEVELS)
    }
    return Prepass(fcyc, mlat, out[0], cache)


def replay(
    indices, addrs, fcyc: array, mlat: array, tab: array,
    params: array, conf_lat: array, observed: bool,
) -> Replay | str | None:
    """Replay one trace; None when the kernel is unavailable or an input
    fails its checks (the caller then runs the Python loop, which
    raises what it always raised), :data:`OVERFLOW` when the rings were
    too small.

    ``indices``/``addrs`` are the trace columns (read in place),
    ``fcyc``/``mlat`` the pre-pass's fetch cycles (``"q"``) and load
    latencies (``"i"``) as :func:`prepass` writes them (a pre-pass built
    in Python is refused), ``tab`` six ``"i"`` values per static
    instruction, ``params`` the machine (``"q"``, ``_replay.c`` layout)
    and ``conf_lat`` each dense configuration's load latency. With
    ``observed`` the reconfigurations are recorded too.
    """
    fn = kernel() if ENABLED else None
    n = len(indices)
    idx_at, addr_at = _address(indices, "i"), _address(addrs, "q")
    fcyc_at, mlat_at = _address(fcyc, "q"), _address(mlat, "i")
    if fn is None or idx_at is None or addr_at is None or fcyc_at is None \
            or mlat_at is None or len(fcyc) != n or len(mlat) != n \
            or len(tab) % 6:
        return None
    # the histogram runs to the widest possible cycle (``_replay.c``)
    out = array("q", bytes(8 * (_O_HIST + min(params[0], params[3], n) + 1)))
    cap = _RECONFIG_CAP if observed else 0
    while True:
        recs = array("q", bytes(32 * cap))
        code = fn.replay(
            n, idx_at, addr_at, len(addrs), fcyc_at, mlat_at,
            tab.buffer_info()[0], len(tab) // 6,
            params.buffer_info()[0],
            conf_lat.buffer_info()[0] if conf_lat else None,
            out.buffer_info()[0], len(out),
            recs.buffer_info()[0] if cap else None, cap,
        )
        if code == _R_HORIZON:
            return OVERFLOW
        if code != _R_OK:
            return None
        n_recs = out[_O_RECONFIGS]
        if n_recs <= cap or not observed:
            break
        cap = n_recs
    return Replay(
        out[0], out[1], out[2], out[3],
        out[_O_CLASS:_O_STALL].tolist(), out[_O_STALL:_O_RECONFIGS].tolist(),
        out[_O_HIST:].tolist(),
        [tuple(recs[i:i + 4]) for i in range(0, 4 * n_recs, 4)]
        if observed else [],
    )


#: :func:`functional`'s statuses: ``_kernel.h``'s ``R_OK`` for a halt,
#: then ``_functional.c``'s fault codes
F_HALTED, F_STEPS, F_PC, F_BADTEXT, F_MISALIGNED, F_UNMAPPED = (
    _R_OK, 4, 5, 6, 7, 8)
_F_NEEDPAGE, _F_TRACEFULL = 9, 10
#: ``_functional.c``'s ``state`` layout: scalars, then the 32 registers
(S_PC, S_STEPS, S_MAX_STEPS, S_STRICT, S_TEXT_BASE, S_TLEN, S_TCAP, S_AUX,
 S_AUX2, S_REGS) = range(10)
#: values per static instruction in the code table
CODE_WIDTH = 6
#: values per ext node in the node table
NODE_WIDTH = 5
#: trace entries the columns start with; they double whenever full
_TRACE_START = 1 << 13
_INT64_MAX = 2**63 - 1


class FunctionalRun(NamedTuple):
    """One finished :func:`functional` call."""

    #: :data:`F_HALTED` or the fault the run stopped at
    status: int
    #: the final ``state`` (``S_*`` layout): pc, steps, the fault's
    #: address (and access size), registers
    state: array
    #: the ``(indices, addrs)`` trace columns, when asked for
    trace: tuple[array, array] | None
    #: per-instruction exec counts, when profiling
    counts: array | None
    #: per-instruction ``(max operand, max result)`` widths, when profiling
    widths: tuple[array, array] | None


def functional(code: array, nodes: array, spans: array, memory, regs,
               pc: int, max_steps: int, collect_trace: bool,
               profile: bool) -> FunctionalRun | None:
    """Run a program through ``t1000_functional``; None when the kernel
    is unavailable or refuses the inputs (then nothing has run, and the
    caller takes its Python path).

    ``code`` is the program's instruction table (:data:`CODE_WIDTH`
    ``"q"`` values per static instruction), ``nodes``/``spans`` the ext
    configurations' node table and per-configuration ``(first node,
    count)`` (``_functional.c`` layouts). ``memory`` is the
    :class:`~repro.sim.memory.Memory` the run reads and writes in place:
    when a store needs a page it does not have, the kernel returns, this
    function allocates the page through ``memory`` and resumes; likewise
    it doubles the trace columns whenever they fill up, and cuts them to
    the run's length at the end.
    """
    fn = kernel() if ENABLED else None
    if fn is None or not isinstance(max_steps, int):
        return None
    import ctypes

    table = (ctypes.c_void_p * (1 << (32 - PAGE_BITS)))()

    def map_page(number: int, page: bytearray) -> None:
        table[number] = ctypes.addressof(ctypes.c_char.from_buffer(page))

    for number, page in memory._pages.items():
        if not 0 <= number < len(table) or type(page) is not bytearray \
                or len(page) != PAGE_SIZE:
            return None
        map_page(number, page)

    state = array("q", [0]) * (S_REGS + 32)
    state[S_PC] = pc
    # a budget past int64 is never reached, and one below zero runs
    # nothing, like a zero budget
    state[S_MAX_STEPS] = min(max(max_steps, 0), _INT64_MAX)
    state[S_STRICT] = bool(memory.strict)
    state[S_TEXT_BASE] = TEXT_BASE
    state[S_REGS:] = array("q", regs)
    trace = counts = widths = None
    if collect_trace:
        cap = max(1, min(_TRACE_START, state[S_MAX_STEPS]))
        trace = (array("i", [0]) * cap, array("q", [0]) * cap)
        state[S_TCAP] = cap
    n_static = len(code) // CODE_WIDTH
    if profile:
        counts = array("q", [0]) * n_static
        widths = (array("i", [0]) * n_static, array("i", [0]) * n_static)

    def at(column):
        return None if column is None else column.buffer_info()[0]

    while True:
        status = fn.functional(
            code.buffer_info()[0], n_static,
            at(nodes), len(nodes) // NODE_WIDTH,
            at(spans), len(spans) // 2,
            ctypes.addressof(table), state.buffer_info()[0],
            *(at(c) for c in trace or (None, None)), at(counts),
            *(at(c) for c in widths or (None, None)),
        )
        if status == _F_NEEDPAGE:
            number = state[S_AUX]
            map_page(number,
                     memory._page_for_write(number << PAGE_BITS))
        elif status == _F_TRACEFULL:
            for column in trace:
                column *= 2
            state[S_TCAP] = len(trace[0])
        elif status == _R_BADINPUT:
            # checked before the first instruction, and every state the
            # kernel writes back passes the check
            assert state[S_STEPS] == 0
            return None
        else:
            break
    if trace is not None:
        for column in trace:
            del column[state[S_TLEN]:]
    return FunctionalRun(status, state, trace, counts, widths)
