"""Event-driven cache/TLB/fetch pre-pass: the oracle of ``_prepass.c``.

With perfect branch prediction the memory hierarchy's access sequence
and the fetch schedule are pure functions of the trace: fetch has no
feedback from the out-of-order core, so instruction-line transitions
and load/store addresses reach the caches in program order whatever the
core parameters are. One walk over the trace therefore yields, for
every dynamic instruction, its fetch cycle and (for loads) its memory
latency, plus the final per-level cache statistics. The native replay
kernel consumes these instead of modelling fetch and the caches itself.
The native pre-pass kernel builds them for every replay;
:func:`build_prepass` is its Python oracle, run by the tests and
:mod:`repro.fuzz`, not by the simulator.

The walk touches the hierarchy only at events — a fetch-line change, a
load or a store — and serves most of them inline through a per-set
*MRU mirror*: for every set of il1, dl1 and both TLBs it remembers the
line (or page) it last placed there, which is that set's most recently
used entry. A hit on a set's MRU entry leaves its LRU order unchanged
(the entry already holds the set's newest stamp), so such a hit changes
only the level's ``accesses``/``hits`` counts and, for a store, the
line's dirty bit. The walk counts those hits itself and lets every
other access — misses, non-MRU hits, the first store to a clean MRU
line — run through :class:`~repro.sim.cache.hierarchy.MemoryHierarchy`,
so the LRU, eviction and writeback logic stays in one place and the
result is exactly what a per-access walk through the hierarchy gives.
The dtlb and dl1 legs of a data access are judged apart: when only the
page is its set's MRU entry, the translation is an inline hit and only
the dl1 leg goes through the hierarchy.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence

from repro.isa.encoding import TEXT_BASE
from repro.sim.cache.hierarchy import HierarchyConfig, MemoryHierarchy

#: Per-static-instruction event kinds the walk dispatches on.
EV_NONE, EV_LOAD, EV_STORE, EV_CTRL = range(4)

LEVELS = ("il1", "dl1", "ul2", "itlb", "dtlb")


class Prepass(NamedTuple):
    """Everything the replay needs from fetch and the memory hierarchy."""

    #: fetch cycle of every dynamic instruction: a list, or an
    #: ``array("q")`` when the native kernel built it
    fcyc: Sequence[int]
    #: load latency of every dynamic load (0 for other instructions)
    mlat: array
    #: total fetch stall cycles charged to I-cache/ITLB misses
    fetch_stall: int
    #: final statistics per level, as ``vars(CacheStats)`` dicts
    cache: dict[str, dict[str, int]]


def _bits(n: int) -> int:
    return n.bit_length() - 1


def build_prepass(
    events: Sequence[int],
    indices: Sequence[int],
    addrs: Sequence[int],
    hierarchy: HierarchyConfig,
    fetch_width: int,
) -> Prepass:
    """Walk a trace once through fetch and the memory hierarchy.

    ``events[si]`` is the ``EV_*`` kind of static instruction ``si``;
    ``indices``/``addrs`` are the trace columns. A control transfer is
    taken when the next dynamic instruction is not its fall-through: it
    ends the fetch group and forces a refetch of the target line.
    """
    hier = MemoryHierarchy(hierarchy)
    ifetch, access, translate = hier.ifetch, hier._access, hier.dtlb.translate
    dl1_cache = hier.dl1
    il1, dl1 = hierarchy.il1, hierarchy.dl1
    itlb, dtlb = hierarchy.itlb, hierarchy.dtlb
    ish = _bits(il1.line_size)
    imask = il1.nsets - 1
    itsh = _bits(itlb.page_size)
    itsets = itlb.entries // itlb.assoc
    itmask = itsets - 1
    dsh = _bits(dl1.line_size)
    dmask = dl1.nsets - 1
    dtsh = _bits(dtlb.page_size)
    dtsets = dtlb.entries // dtlb.assoc
    dtmask = dtsets - 1
    # MRU mirrors (None: unknown; trace addresses may be any int);
    # ddirty[s] names the MRU line of dl1 set s only while that line is
    # known to be dirty
    imru = [None] * il1.nsets
    itmru = [None] * itsets
    dmru = [None] * dl1.nsets
    ddirty = [None] * dl1.nsets
    dtmru = [None] * dtsets
    iline = [(TEXT_BASE + 4 * si) >> ish for si in range(len(events))]
    ihit_extra = il1.hit_latency - 1
    dhit_lat = dl1.hit_latency

    def fetch_slow(pc: int, line: int, page: int) -> int:
        imru[line & imask] = line
        itmru[page & itmask] = page
        return ifetch(pc) - 1

    def data_l1(addr: int, line: int, store: bool) -> int:
        """The dl1 leg of a data access, through the hierarchy; the
        caller has translated (or inline-hit) its page."""
        s = line & dmask
        if store:
            ddirty[s] = line
        elif dmru[s] != line:
            ddirty[s] = None
        dmru[s] = line
        return access(dl1_cache, addr, store)

    def data_slow(addr: int, line: int, page: int, store: bool) -> int:
        dtmru[page & dtmask] = page
        return translate(addr) + data_l1(addr, line, store)

    n = len(indices)
    last = n - 1
    fcyc = [0] * n
    mlat = array("i", bytes(4 * n))
    inline_fetch = inline_data = inline_dtlb = 0
    fc = 1              # fetch cycle of the current fetch group
    full = fetch_width  # dynamic index at which that group is full
    cur = None          # line the group fetches from (None: refetch)
    stall = 0
    for k, si in enumerate(indices):
        if k == full:
            fc += 1
            full = k + fetch_width
        line = iline[si]
        if line != cur:
            cur = line
            pc = TEXT_BASE + 4 * si
            page = pc >> itsh
            if imru[line & imask] == line and itmru[page & itmask] == page:
                inline_fetch += 1
                extra = ihit_extra
            else:
                extra = fetch_slow(pc, line, page)
            if extra > 0:
                fc += extra
                stall += extra
                full = k + fetch_width
        fcyc[k] = fc
        ev = events[si]
        if not ev:
            continue
        if ev == EV_CTRL:
            if k < last and indices[k + 1] != si + 1:
                # taken: the group ends here and the target line refetches
                fc += 1
                full = k + 1 + fetch_width
                cur = None
            continue
        a = addrs[k]
        line = a >> dsh
        page = a >> dtsh
        if ev == EV_LOAD:
            if dtmru[page & dtmask] != page:
                mlat[k] = data_slow(a, line, page, False)
            elif dmru[line & dmask] == line:
                inline_data += 1
                mlat[k] = dhit_lat
            else:
                inline_dtlb += 1
                mlat[k] = data_l1(a, line, False)
        elif dtmru[page & dtmask] != page:
            data_slow(a, line, page, True)
        elif ddirty[line & dmask] == line:
            inline_data += 1
        else:
            inline_dtlb += 1
            data_l1(a, line, True)

    for level, inline in (
        (hier.il1, inline_fetch), (hier.itlb, inline_fetch),
        (hier.dl1, inline_data), (hier.dtlb, inline_data + inline_dtlb),
    ):
        level.stats.accesses += inline
        level.stats.hits += inline
    cache = {level: vars(getattr(hier, level).stats).copy()
             for level in LEVELS}
    return Prepass(fcyc, mlat, stall, cache)
