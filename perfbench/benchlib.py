"""Shared pieces of the benchmark: statistics, memory, spans, results.

Only :func:`canonical` touches :mod:`repro`, and imports it lazily.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

# ----------------------------------------------------------------------
# statistics


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it,
    as ``(pct, value)``; ``(0, 0)`` when there are too few samples."""
    n = len(values)
    for pct in _TAILS:
        if n * (1.0 - pct / 100.0) >= beyond:
            return pct, percentile(values, pct)
    return 0.0, 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def histogram_quantile(row: dict, q: float) -> float:
    """Quantile of a ``repro.obs`` histogram snapshot row, interpolated
    linearly inside the bucket that holds it."""
    count = row.get("count") or 0
    if not count:
        return 0.0
    # Bucket i holds observations in (bounds[i-1], bounds[i]]; the last
    # one holds overflows.  Clamp the edges to the observed min and max.
    edges = [row["min"], *row["bounds"], row["max"]]
    target = q * count
    seen = 0
    for index, n in enumerate(row["bucket_counts"]):
        if n and seen + n >= target:
            lower = max(edges[index], row["min"])
            upper = min(edges[index + 1], row["max"])
            return lower + (upper - lower) * (target - seen) / n
        seen += n
    return row["max"]


def canonical(stats) -> str:
    """Byte-comparable form of a ``SimStats``: its full-fidelity JSON."""
    from repro.engine.store import stats_to_json

    return json.dumps(stats_to_json(stats), sort_keys=True)


def model_counts(stats: list) -> dict[str, float]:
    """Modelled totals over a list of ``SimStats``.  These are exact: a
    change to the simulator's speed must leave them identical."""
    cycles = sum(s.cycles for s in stats)
    instructions = sum(s.instructions for s in stats)
    dl1 = [s.cache.get("dl1", {}) for s in stats]
    accesses = sum(c.get("accesses", 0) for c in dl1)
    return {
        "model.cycles": cycles,
        "model.ipc": instructions / cycles if cycles else 0.0,
        "model.pfu_misses": sum(s.pfu_misses for s in stats),
        "model.reconfig_cycles": sum(s.reconfig_cycles for s in stats),
        "model.dl1_miss_rate": (
            sum(c.get("misses", 0) for c in dl1) / accesses
            if accesses else 0.0),
    }


# ----------------------------------------------------------------------
# memory


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def group_members(pgid: int) -> list[int]:
    """Live (not zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue        # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder for bench-side layer boundaries.

    A span has a name, start, end, parent span and an optional request
    id.  Parents are tracked per thread.  Spans are written out once, at
    the end of the run, as Chrome trace JSON.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Any = None, **args: Any):
        stack = self._stack()
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": stack[-1] if stack else None, "rid": rid,
            "tid": threading.get_ident(), "args": args,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, rid: Any = None, **args: Any) -> None:
        """Record a finished span that overlapped others on its thread
        (a pipelined request), so it cannot use :meth:`span`."""
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "rid": rid,
                "tid": threading.get_ident(), "args": args,
            })

    def mark(self) -> int:
        """Position to pass to the summaries below: only spans recorded
        after it are counted."""
        return len(self.spans)

    def _closed(self, since: int, until: int | None = None) -> list[dict]:
        return [s for s in self.spans[since:until] if s["end"] is not None]

    def totals(self, since: int = 0, until: int | None = None
               ) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds of the spans
        recorded between two marks.  Self time is the span's duration
        minus that of its direct children."""
        spans = self._closed(since, until)
        child_ms: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]) * 1000.0
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            ms = (s["end"] - s["start"]) * 1000.0
            row = out.setdefault(s["name"],
                                 {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += ms
            row["self_ms"] += ms - child_ms.get(s["id"], 0.0)
        return out

    def self_time_table(self) -> str:
        rows = sorted(self.totals().items(),
                      key=lambda item: -item[1]["self_ms"])
        lines = [f"{'span':<34} {'count':>7} {'total_ms':>11} {'self_ms':>11}"]
        for name, row in rows:
            lines.append(f"{name:<34} {row['count']:>7} "
                         f"{row['total_ms']:>11.1f} {row['self_ms']:>11.1f}")
        return "\n".join(lines)

    def write_chrome(self, path: str) -> None:
        tids: dict[int, int] = {}
        events = []
        for s in self._closed(0):
            tid = tids.setdefault(s["tid"], len(tids) + 1)
            args = {k: _plain(v) for k, v in s["args"].items()}
            args["span"] = s["id"]
            args["parent"] = s["parent"]
            if s["rid"] is not None:
                args["rid"] = _plain(s["rid"])
            events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                "ts": (s["start"] - self._epoch) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6, "args": args,
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def _plain(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Patches:
    """Wraps library entry points in tracer spans while active.

    ``add(owner, attr, span_name)`` replaces ``owner.attr`` (a module
    function or a class method) with a wrapper that runs the original
    inside a span; ``on_result(span_record, args, result)`` may attach
    what it needs from the call to the span.  Used as a context manager
    so traced and untraced ops can alternate in one run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._targets: list[tuple[Any, str, str, Callable | None]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def add(self, owner: Any, attr: str, span_name: str,
            on_result: Callable | None = None) -> "Patches":
        self._targets.append((owner, attr, span_name, on_result))
        return self

    def __enter__(self) -> "Patches":
        for owner, attr, span_name, on_result in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, span_name, on_result))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, span_name, on_result):
        tracer = self.tracer

        def traced(*args, **kwargs):
            with tracer.span(span_name) as record:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(record, args, result)
                return result

        traced.__wrapped__ = original
        return traced


# ----------------------------------------------------------------------
# host speed

#: Reference time, in ms, for the geometric mean of the two calibration
#: kernels below.  Every reported time is scaled to the host speed at
#: which that mean takes this long (the host this was built on measured
#: 16-23 ms).  Never change it: old and new numbers would stop comparing.
CAL_REF_MS = 13.0


def _cal_arith() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _cal_dict() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + (i * 7 ^ (i >> 3))
        total += table[key] & 255
    return total


class HostSpeed:
    """Fixed pure-Python calibration kernels, timed next to the ops.

    The host's speed changes by up to 60% in phases lasting from seconds
    to a minute, so whole runs land in one state or the other.  A time
    divided by the calibration taken just before and just after it, and
    multiplied by :data:`CAL_REF_MS`, is the time the op would take at
    the reference speed (see README.md, "Noise").
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []    # (taken at, ms)

    def sample(self) -> float:
        times = []
        for kernel in (_cal_arith, _cal_dict):
            start = time.perf_counter()
            kernel()
            times.append((time.perf_counter() - start) * 1000.0)
        ms = math.sqrt(times[0] * times[1])
        self.samples.append((time.perf_counter(), ms))
        return ms

    def age(self) -> float:
        """Seconds since the last sample (infinite before the first)."""
        if not self.samples:
            return math.inf
        return time.perf_counter() - self.samples[-1][0]

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for an interval: the last
        sample taken before ``start`` and the first one after ``end``."""
        before = [ms for t, ms in self.samples if t <= start]
        after = [ms for t, ms in self.samples if t >= end]
        bracket = before[-1:] + after[:1]
        return CAL_REF_MS / geomean(bracket) if bracket else 1.0

    def scaled_ms(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, end)`` interval in ms at the reference speed."""
        return [(end - start) * 1000.0 * self.factor(start, end)
                for start, end in intervals]


def raw_ms(intervals: list[tuple[float, float]]) -> list[float]:
    return [(end - start) * 1000.0 for start, end in intervals]


# ----------------------------------------------------------------------
# measuring loop


def timed_ops(seconds: float, op: Callable[[bool], None], speed: HostSpeed,
              alternate_traced: bool) -> int:
    """Call ``op(traced)`` back to back until ``seconds`` have passed,
    with a host-speed sample before each op and after the last.

    With ``alternate_traced`` every second op runs traced, so one run
    yields traced and untraced samples of the same op.  Returns the
    number of ops run.
    """
    deadline = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < deadline or count == 0:
        traced = alternate_traced and count % 2 == 1
        speed.sample()
        op(traced)
        count += 1
    speed.sample()
    return count


# ----------------------------------------------------------------------
# result line


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, dict]) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed), "metrics": metrics,
    })


def work_dir(root: str) -> str:
    """Scratch space inside the checkout for stores, logs and reports."""
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
