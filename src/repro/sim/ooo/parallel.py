"""Split one trace's machine grid across forked processes.

:func:`~repro.sim.ooo.simulate_many` replays one trace under many
machine configurations, and every configuration is independent. Here
that grid is cut into contiguous shards (:func:`split_grid`) and each
extra shard runs in a forked child (:func:`run_forked`). Children
inherit the trace, the program, the loaded kernel and the cached
pre-pass and kernel table copy-on-write, so no input is pickled; each sends back its pickled
``list[SimStats]`` over a pipe. Forking is used only where it is safe
and pays (:func:`worker_count`).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import Callable, NamedTuple, Sequence

from repro.obs import get_recorder

class GridCosts(NamedTuple):
    """How one replay path weighs a grid: ``replay`` per configuration
    and ``prepass`` per pre-pass built, and ``floor``, the work (trace
    length × :func:`grid_cost`) below which an automatic (``jobs=None``)
    call stays serial. The three are in one unit, chosen per path so
    that both weights are whole numbers. A grid replays either on the
    native kernels (:data:`NATIVE`) or on the reference loop
    (:data:`REFERENCE`)."""

    replay: int
    prepass: int
    floor: int


#: The native kernels, in half replays. Measured on a 2-core Intel Xeon
#: VM under CPython 3.11 with the 194k-instruction ``unepic@2``
#: selective trace, medians of 15 runs each: a pre-pass through the
#: pre-pass kernel takes 1.5 ms, about 8 ns per instruction, and a
#: replay through the replay kernel, simulator construction included,
#: 2.7-2.8 ms, about 14 ns per instruction, on both a 2-PFU and an
#: unlimited-PFU machine. On fresh 10k- and 20k-instruction prefixes,
#: two pre-passes and two replays took 0.83 and 1.27 ms serially
#: against 0.26 and 0.41 ms per cached replay, so a pre-pass is about
#: half a replay at every length (0.53-0.60). The floor, same method,
#: 15 alternating serial/split runs per point, two rounds, on a VM
#: whose second core was not always free: splitting 2 replays of the
#: full trace (388k) lost both rounds (0 and 3 of 15), 3 replays (582k)
#: lost one round and won the other (1 and 13 of 15), 4 (776k) and
#: 5 (970k) likewise, and 6 (1.16M) won both (13 and 11 of 15). On
#: fresh prefixes with two pre-passes and two replays, the split lost
#: at 80k (160k replays plus the pre-passes, ~240k), and broke about
#: even at 160k (~480k: 8 and 5 of 15). A split's fixed cost (fork,
#: copy-on-write faults, pickling the stats back) is ~4-9 ms. The
#: split breaks even at ~600k replayed instructions; the floor sits at
#: about twice that, 1.2M, where a split saves about as much as it pays.
NATIVE = GridCosts(replay=2, prepass=1, floor=2_400_000)

#: The reference loop (no compiler, a ``record_window``,
#: ``sim_fast_path=False``, a bimodal predictor, ``REPRO_SIM_REFERENCE=1``,
#: a kernel refusal), in replays: it builds no pre-pass. The floor is
#: 50,000 instruction replays. It was measured for a Python replay loop
#: about 3x faster than the reference loop (with 2 configurations,
#: medians of 41 alternating serial/split runs, the split broke even at
#: 10-12k instructions per configuration, and the floor sat at about
#: twice that), so it is conservative here: a split's fixed cost is the
#: same and a reference replay costs more.
REFERENCE = GridCosts(replay=1, prepass=0, floor=50_000)


def usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _os_threads() -> int:
    """Threads of this process, native ones included (Linux), else 1."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def _fork_safe() -> bool:
    """True when forking this process cannot deadlock a child or lose
    observability: the main thread is the only thread, this is not a
    ``multiprocessing`` child (an engine pool worker), and no
    :mod:`repro.obs` recorder is live (a child's spans and counters
    would be lost)."""
    mp = sys.modules.get("multiprocessing")
    return (
        hasattr(os, "fork")
        and threading.current_thread() is threading.main_thread()
        and threading.active_count() == 1
        and _os_threads() <= 1
        and (mp is None or mp.parent_process() is None)
        and not get_recorder().enabled
    )


def worker_count(jobs: int | None, n_configs: int, work: int,
                 floor: int) -> int:
    """Processes for a grid of ``n_configs`` doing ``work`` (see
    :class:`GridCosts`). ``jobs=None`` is automatic: every usable core,
    once the work clears ``floor``. An explicit ``jobs`` skips
    the floor. Either way the count is capped at the usable cores and
    the number of configurations, and is 1 whenever forking is unsafe
    (:func:`_fork_safe`)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n_configs < 2 or jobs == 1:
        return 1
    if jobs is None and work < floor:
        return 1
    if not _fork_safe():
        return 1
    cap = min(usable_cores(), n_configs)
    return cap if jobs is None else min(jobs, cap)


def grid_cost(labels: Sequence[int], free_label: int | None,
              costs: GridCosts, start: int = 0,
              end: int | None = None) -> int:
    """Cost of replaying positions ``start..end`` of a grid in one
    process: ``costs.replay`` per position plus ``costs.prepass`` per
    distinct pre-pass it must build.

    ``labels`` is each position's pre-pass group, non-decreasing. A
    slice whose first group is ``free_label`` (the pre-pass already
    cached on the trace, which a child inherits) does not build that
    one.
    """
    end = len(labels) if end is None else end
    builds = labels[end - 1] - labels[start] + 1
    if labels[start] == free_label:
        builds -= 1
    return costs.replay * (end - start) + costs.prepass * builds


def split_grid(
    labels: Sequence[int], free_label: int | None, procs: int,
    costs: GridCosts,
) -> list[tuple[int, int]]:
    """Cut positions ``0..len(labels)`` into at most ``procs`` contiguous
    ``(start, end)`` slices with the smallest largest
    :func:`grid_cost`."""
    n = len(labels)

    def greedy(limit: int) -> list[tuple[int, int]] | None:
        slices: list[tuple[int, int]] = []
        start = 0
        while start < n:
            end = start
            while end < n and grid_cost(labels, free_label, costs,
                                        start, end + 1) <= limit:
                end += 1
            if end == start or len(slices) == procs:
                return None
            slices.append((start, end))
            start = end
        return slices

    lo, hi = 0, grid_cost(labels, free_label, costs)
    while lo < hi:
        mid = (lo + hi) // 2
        if greedy(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return greedy(lo)


def run_forked(shards: Sequence, run: Callable[[object], list]) -> list[list]:
    """``[run(shard) for shard in shards]``, with every shard but the
    first run in a forked child.

    Each child sends its pickled result back over a pipe and ends with
    ``os._exit``, so it runs no atexit handlers and flushes no inherited
    stdio buffers. A child that dies, fails or sends a short payload has
    its shard re-run here, so an exception is the one ``run`` raises in
    this process; shards that could not be forked run here too. Every
    child is reaped before this returns or raises.
    """
    live: list[tuple[int, int]] = []       # (pid, read end), unreaped
    try:
        for shard in shards[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:         # out of processes: run the rest here
                os.close(rfd)
                os.close(wfd)
                break
            if pid == 0:                        # pragma: no cover (child)
                _child(rfd, wfd, run, shard)
            os.close(wfd)
            live.append((pid, rfd))
        forked = len(live)
        results = [run(shards[0])]
        for shard in shards[1:1 + forked]:
            pid, rfd = live.pop(0)
            try:
                with open(rfd, "rb") as pipe:
                    payload = pipe.read()
            finally:
                _kill_and_reap(pid)
            try:
                got = pickle.loads(payload)
            except Exception:
                got = None
            if not isinstance(got, list) or len(got) != len(shard):
                got = run(shard)
            results.append(got)
        results.extend(run(shard) for shard in shards[1 + forked:])
        return results
    finally:
        for pid, rfd in live:
            os.close(rfd)
            _kill_and_reap(pid)


def _child(rfd: int, wfd: int, run, shard) -> None:   # pragma: no cover
    code = 1
    try:
        os.close(rfd)
        payload = pickle.dumps(run(shard), pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _kill_and_reap(pid: int) -> None:
    """End a child that has sent its payload (or never will) and reap it.
    The pid is still unreaped here, so it cannot name another process."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
