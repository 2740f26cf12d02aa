"""Split one trace's machine grid across forked processes.

:func:`~repro.sim.ooo.simulate_many` replays one trace under many
machine configurations, and every configuration is independent. Here
that grid is cut into contiguous shards (:func:`split_grid`) and each
extra shard runs in a forked child (:func:`run_forked`). Children
inherit the trace, the program and the cached replay table
copy-on-write, so no input is pickled; each sends back its pickled
``list[SimStats]`` over a pipe. Forking is used only where it is safe
and pays (:func:`worker_count`).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import Callable, Sequence

from repro.obs import get_recorder

#: Below this many instruction replays (trace length × configurations)
#: an automatic (``jobs=None``) call stays serial. Measured on a 2-core
#: Intel Xeon VM under CPython 3.11 with prefixes of the 194k-instruction
#: ``unepic@2`` selective trace, 2 configurations, medians of 41
#: alternating runs: a bare fork, exit and reap of the ~30 MB process
#: takes 2.8 ms, and the copy-on-write faults both processes then take
#: while replaying, plus pickling the child's ``SimStats`` back, bring
#: the fixed cost of a split to 8-10 ms. The split broke even at 12k
#: instructions per configuration (24k replays: 21.4 ms serial, 18.8 ms
#: split). The floor sits at about twice that, where a split saves
#: about as much as it pays. Re-measured once the replay loop was
#: specialised to the machine (same VM, same method, each run on a fresh
#: trace prefix so its pre-pass is built too; the host ran slower than
#: before, so absolute times are higher): the split broke even at 10k
#: instructions per configuration (20k replays: 35.0 ms serial,
#: 34.7 ms split, 21/41 runs won), as the parent did at 8-10k, and won
#: 40 of 41 runs at 48k replays. The break-even moved by less than the
#: noise and stays far below the floor.
WORK_FLOOR = 50_000


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


def worker_count(jobs: int | None, n_configs: int, work: int) -> int:
    """Processes for a grid of ``n_configs`` doing ``work`` instruction
    replays in total. ``jobs=None`` is automatic: every usable core,
    once the work clears :data:`WORK_FLOOR`. An explicit ``jobs`` skips
    the floor. Either way the count is capped at the usable cores and
    the number of configurations, and is 1 whenever forking is unsafe
    (:func:`_fork_safe`)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n_configs < 2 or jobs == 1:
        return 1
    if jobs is None and work < WORK_FLOOR:
        return 1
    if not _fork_safe():
        return 1
    cap = min(usable_cores(), n_configs)
    return cap if jobs is None else min(jobs, cap)


def split_grid(
    labels: Sequence[int], free_label: int | None, procs: int
) -> list[tuple[int, int]]:
    """Cut positions ``0..len(labels)`` into at most ``procs`` contiguous
    ``(start, end)`` slices with the smallest largest cost.

    ``labels`` is each position's pre-pass group, non-decreasing. A
    slice costs one unit per replay plus half a unit per distinct
    pre-pass it must build. A slice whose first group is ``free_label``
    (the pre-pass already cached on the trace, which a child inherits)
    does not build that one.
    """
    n = len(labels)

    def cost2(start: int, end: int) -> int:   # in half units
        builds = labels[end - 1] - labels[start] + 1
        if labels[start] == free_label:
            builds -= 1
        return 2 * (end - start) + builds

    def greedy(limit: int) -> list[tuple[int, int]] | None:
        slices: list[tuple[int, int]] = []
        start = 0
        while start < n:
            end = start
            while end < n and cost2(start, end + 1) <= limit:
                end += 1
            if end == start or len(slices) == procs:
                return None
            slices.append((start, end))
            start = end
        return slices

    lo, hi = 0, cost2(0, n)
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
