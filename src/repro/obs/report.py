"""Human-readable breakdown of exported metrics (``t1000 metrics report``).

Consumes one or more parsed JSONL exports (see
:func:`repro.obs.export.load_jsonl`) and renders the analyses the paper's
discussion leans on: per-stage stall breakdowns per workload, PFU
reconfiguration counts per selection algorithm, selection-decision
summaries, the timing model's pre-pass vs replay wall time, and engine
cache/job traffic.
"""

from __future__ import annotations

from collections import defaultdict

_STALL_PREFIX = "sim.stall."
_GROUP_LABELS = ("workload", "program")


def _series_key(row: dict) -> tuple[str, tuple]:
    return row["name"], tuple(sorted(row.get("labels", {}).items()))


def merge_metric_rows(datasets: list[dict]) -> list[dict]:
    """Fold metric rows from several exports (same series values add)."""
    merged: dict[tuple, dict] = {}
    for data in datasets:
        for row in data.get("metrics", []):
            key = _series_key(row)
            existing = merged.get(key)
            if existing is None:
                merged[key] = {**row, "labels": dict(row.get("labels", {}))}
            elif row["kind"] == "histogram":
                existing["count"] += row.get("count", 0)
                existing["sum"] += row.get("sum", 0)
            elif row["kind"] == "counter":
                existing["value"] += row.get("value", 0)
            else:                       # gauge: last export wins
                existing["value"] = row.get("value", existing["value"])
    return list(merged.values())


def _group_of(labels: dict) -> str:
    for key in _GROUP_LABELS:
        if labels.get(key):
            return str(labels[key])
    return "(unlabelled)"


def _algorithm_of(labels: dict) -> str:
    return str(labels.get("algorithm", "(none)"))


def _fmt_count(n: float) -> str:
    return f"{int(n):,}" if float(n).is_integer() else f"{n:,.2f}"


def render_metrics_report(datasets: list[dict], top: int = 6) -> str:
    """Render the report for one or more :func:`load_jsonl` results."""
    rows = merge_metric_rows(datasets)
    lines: list[str] = ["t1000 metrics report", "=" * 21]

    # ------------------------------------------------------- stalls
    stalls: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for row in rows:
        if not row["name"].startswith(_STALL_PREFIX) or row["kind"] != "counter":
            continue
        labels = row["labels"]
        key = (_group_of(labels), _algorithm_of(labels))
        reason = row["name"][len(_STALL_PREFIX):]
        stalls[key][reason] = stalls[key].get(reason, 0) + row["value"]
    if stalls:
        lines.append("")
        lines.append("per-stage stall cycles (top reasons per workload)")
        for (group, algorithm) in sorted(stalls):
            reasons = stalls[(group, algorithm)]
            total = sum(reasons.values())
            lines.append(f"  {group} [{algorithm}] — {_fmt_count(total)} stall cycles")
            ranked = sorted(reasons.items(), key=lambda kv: -kv[1])[:top]
            for reason, cycles in ranked:
                share = cycles / total if total else 0.0
                lines.append(
                    f"    {reason:<24} {_fmt_count(cycles):>14}  ({share:.1%})"
                )

    # ------------------------------------------------------- PFU reconfig
    reconfig: dict[tuple[str, str], dict[str, float]] = defaultdict(
        lambda: {"events": 0, "cycles": 0}
    )
    for row in rows:
        if row["kind"] != "counter":
            continue
        if row["name"] == "sim.pfu.reconfig":
            field = "events"
        elif row["name"] == "sim.pfu.reconfig_cycles":
            field = "cycles"
        else:
            continue
        labels = row["labels"]
        reconfig[(_group_of(labels), _algorithm_of(labels))][field] += row["value"]
    if reconfig:
        lines.append("")
        lines.append("PFU reconfigurations per selection algorithm")
        for (group, algorithm) in sorted(reconfig):
            data = reconfig[(group, algorithm)]
            lines.append(
                f"  {group} [{algorithm}]: "
                f"{_fmt_count(data['events'])} reconfiguration(s), "
                f"{_fmt_count(data['cycles'])} cycle(s) loading configurations"
            )

    # ------------------------------------------------------- selection
    decisions: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for row in rows:
        if row["kind"] != "counter" or not row["name"].startswith(
            "selection.candidates."
        ):
            continue
        labels = row["labels"]
        decision = row["name"].split(".", 2)[2]
        reason = labels.get("reason")
        label = f"{decision}({reason})" if reason else decision
        key = (_group_of(labels), _algorithm_of(labels))
        decisions[key][label] = decisions[key].get(label, 0) + row["value"]
    if decisions:
        lines.append("")
        lines.append("selection decisions (candidates considered)")
        for (group, algorithm) in sorted(decisions):
            parts = ", ".join(
                f"{label}={_fmt_count(n)}"
                for label, n in sorted(decisions[(group, algorithm)].items())
            )
            lines.append(f"  {group} [{algorithm}]: {parts}")

    # ------------------------------------------------------- issue width
    widths = [
        row for row in rows
        if row["name"] == "sim.issue.width" and row["kind"] == "histogram"
    ]
    if widths:
        lines.append("")
        lines.append("issue-width utilisation (mean instructions per issuing cycle)")
        for row in sorted(
            widths, key=lambda r: (_group_of(r["labels"]),
                                   _algorithm_of(r["labels"]))
        ):
            mean = row["sum"] / row["count"] if row.get("count") else 0.0
            lines.append(
                f"  {_group_of(row['labels'])} "
                f"[{_algorithm_of(row['labels'])}]: {mean:.2f}"
            )

    # ------------------------------------------------- timing-model time
    # from spans: a pre-pass span parented by a simulate call's span is
    # that call's pre-pass time, the rest of the call is replay.
    runs = builds = 0
    timing_s = prepass_s = nested_s = 0.0
    for data in datasets:
        spans = data.get("spans", [])
        timing = {s.span_id: s for s in spans if s.name == "sim.timing"}
        runs += len(timing)
        timing_s += sum(s.duration for s in timing.values())
        for sp in spans:
            if sp.name != "sim.timing.prepass":
                continue
            builds += 1
            prepass_s += sp.duration
            if sp.parent_id in timing:
                nested_s += sp.duration
    if runs or builds:
        lines.append("")
        lines.append("timing-model wall time (pre-pass vs replay)")
        lines.append(
            f"  fetch/cache pre-pass: {prepass_s * 1e3:,.1f} ms over "
            f"{_fmt_count(builds)} build(s)"
        )
        lines.append(
            f"  replay: {(timing_s - nested_s) * 1e3:,.1f} ms over "
            f"{_fmt_count(runs)} simulate call(s)"
        )

    # ------------------------------------------------------- explore
    sweeps: dict[str, dict[str, float]] = defaultdict(dict)
    for row in rows:
        if row["name"] != "explore.points" or row["kind"] != "counter":
            continue
        labels = row["labels"]
        sweep = str(labels.get("sweep", "(unnamed)"))
        status = str(labels.get("status", "(unknown)"))
        sweeps[sweep][status] = sweeps[sweep].get(status, 0) + row["value"]
    if sweeps:
        lines.append("")
        lines.append("design-space sweeps (points by outcome)")
        for sweep in sorted(sweeps):
            statuses = sweeps[sweep]
            total = sum(statuses.values())
            parts = ", ".join(
                f"{status}={_fmt_count(n)}"
                for status, n in sorted(statuses.items())
            )
            pruned = statuses.get("pruned", 0)
            saved = f" ({pruned / total:.1%} pruned)" if pruned else ""
            lines.append(
                f"  {sweep}: {_fmt_count(total)} point(s) — {parts}{saved}"
            )

    # --------------------------------------------- serve wire framing
    wire_bytes: dict[str, float] = defaultdict(float)
    cache_counts: dict[str, float] = defaultdict(float)
    for row in rows:
        name = row["name"]
        if row["kind"] != "counter":
            continue
        if name in ("serve.wire.rx_bytes", "serve.wire.tx_bytes"):
            wire_bytes[name] += row["value"]
        elif name.startswith("serve.trace_cache."):
            cache_counts[name.rsplit(".", 1)[1]] += row["value"]
    if wire_bytes or cache_counts:
        lines.append("")
        lines.append("serve (wire + trace cache)")
        if wire_bytes:
            lines.append(
                f"  wire traffic: "
                f"{_fmt_count(wire_bytes['serve.wire.rx_bytes'])} B in, "
                f"{_fmt_count(wire_bytes['serve.wire.tx_bytes'])} B out"
            )
        if cache_counts:
            hits = cache_counts.get("hits", 0)
            misses = cache_counts.get("misses", 0)
            looked = hits + misses
            rate = f" ({hits / looked:.1%} hit rate)" if looked else ""
            lines.append(
                f"  trace cache: {_fmt_count(hits)} hit(s), "
                f"{_fmt_count(misses)} miss(es){rate}, "
                f"{_fmt_count(cache_counts.get('evictions', 0))} "
                f"eviction(s), "
                f"{_fmt_count(cache_counts.get('need_trace', 0))} "
                f"need_trace round trip(s)"
            )

    # ------------------------------------------------------- gateway
    gw_requests: dict[str, float] = defaultdict(float)
    gw_outcomes: dict[str, float] = defaultdict(float)
    gw_classes: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "sum": 0}
    )
    gw_failovers: dict[str, float] = defaultdict(float)
    gw_imbalance = None
    gw_rejected: dict[str, float] = defaultdict(float)
    for row in rows:
        name = row["name"]
        if not name.startswith("gateway."):
            continue
        labels = row.get("labels", {})
        if name == "gateway.requests" and row["kind"] == "counter":
            gw_requests[str(labels.get("backend", "(none)"))] += row["value"]
            gw_outcomes[str(labels.get("outcome", "?"))] += row["value"]
        elif name == "gateway.failover" and row["kind"] == "counter":
            gw_failovers[str(labels.get("backend", "?"))] += row["value"]
        elif name == "gateway.rejected" and row["kind"] == "counter":
            key = (f"{labels.get('klass', '?')}"
                   f"[{labels.get('reason', '?')}]")
            gw_rejected[key] += row["value"]
        elif name == "gateway.ring.imbalance" and row["kind"] == "gauge":
            gw_imbalance = row["value"]
        elif name == "gateway.latency.ms" and row["kind"] == "histogram":
            klass = str(labels.get("klass", "?"))
            gw_classes[klass]["count"] += row.get("count", 0)
            gw_classes[klass]["sum"] += row.get("sum", 0)
    if gw_requests or gw_classes:
        lines.append("")
        lines.append("gateway (fleet routing)")
        total = sum(gw_requests.values())
        parts = ", ".join(
            f"{outcome}={_fmt_count(n)}"
            for outcome, n in sorted(gw_outcomes.items())
        )
        lines.append(
            f"  requests routed: {_fmt_count(total)}"
            + (f" — {parts}" if parts else "")
        )
        for backend, n in sorted(gw_requests.items(), key=lambda kv: -kv[1]):
            share = n / total if total else 0.0
            lines.append(
                f"    {backend:<24} {_fmt_count(n):>10}  ({share:.1%})"
            )
        if gw_imbalance is not None:
            lines.append(
                f"  ring imbalance: {gw_imbalance:.2f}x "
                f"(busiest backend vs even split; 1.00 = perfectly even)"
            )
        for klass in sorted(gw_classes):
            data = gw_classes[klass]
            if data["count"]:
                lines.append(
                    f"  {klass} latency: "
                    f"{data['sum'] / data['count']:.1f} ms mean "
                    f"over {_fmt_count(data['count'])} request(s)"
                )
        if gw_failovers:
            parts = ", ".join(
                f"{backend}={_fmt_count(n)}"
                for backend, n in sorted(gw_failovers.items())
            )
            lines.append(f"  failovers (replayed in-flight): {parts}")
        if gw_rejected:
            parts = ", ".join(
                f"{klass}={_fmt_count(n)}"
                for klass, n in sorted(gw_rejected.items())
            )
            lines.append(f"  admission rejections: {parts}")

    # ------------------------------------------------------- engine
    engine = [
        row for row in rows
        if row["name"].startswith("engine.") and row["kind"] == "counter"
    ]
    if engine:
        totals: dict[str, float] = defaultdict(float)
        for row in engine:
            totals[row["name"]] += row["value"]
        hits = sum(v for n, v in totals.items()
                   if n.startswith("engine.cache.hit"))
        misses = sum(v for n, v in totals.items()
                     if n.startswith("engine.cache.miss"))
        sims = sum(v for n, v in totals.items()
                   if n.startswith("engine.sim."))
        lines.append("")
        lines.append("engine")
        if hits or misses:
            rate = hits / (hits + misses) if hits + misses else 0.0
            lines.append(
                f"  artefact cache: {_fmt_count(hits)} hit(s) / "
                f"{_fmt_count(misses)} miss(es) ({rate:.1%} hit rate)"
            )
        if sims:
            lines.append(f"  simulations run: {_fmt_count(sims)}")
        for status in ("ok", "failed", "skipped"):
            n = totals.get(f"engine.jobs.{status}", 0)
            if n:
                lines.append(f"  jobs {status}: {_fmt_count(n)}")

    if len(lines) == 2:
        lines.append("")
        lines.append("(no metrics found — was the run made with --metrics-out?)")
    return "\n".join(lines)
