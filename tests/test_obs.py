"""The observability subsystem: recorder semantics, exporter round-trips,
and the instrumentation wired through the simulators and selection."""

import json

import pytest

from repro.asm import assemble
from repro.extinst import SelectionParams, greedy_select, selective_select
from repro.obs import (
    CYCLES,
    NULL_RECORDER,
    WALL,
    Recorder,
    export_jsonl,
    export_trace_events,
    get_recorder,
    load_jsonl,
    load_trace_events,
    merge_metric_rows,
    observed,
    render_metrics_report,
    trace_events,
)
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator

from conftest import loop_program


class TestRecorder:
    def test_null_recorder_is_disabled_and_records_nothing(self):
        assert NULL_RECORDER.enabled is False
        with NULL_RECORDER.span("x") as attrs:
            assert attrs is None
        NULL_RECORDER.event("e")
        NULL_RECORDER.add_span("s", 0, 10)
        assert NULL_RECORDER.spans == [] and NULL_RECORDER.events == []

    def test_default_process_recorder_is_disabled(self):
        assert get_recorder().enabled is False

    def test_span_nesting_records_parent(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        # inner closes first
        inner, outer = rec.spans
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_span_yields_mutable_attrs(self):
        rec = Recorder()
        with rec.span("work", n=1) as attrs:
            attrs["result"] = "ok"
        assert rec.spans[0].attrs == {"n": 1, "result": "ok"}

    def test_explicit_cycle_span_and_event(self):
        rec = Recorder()
        rec.add_span("pfu.reconfig", 100, 110, clock=CYCLES, track="pfu0")
        rec.event("done", ts=110.0, clock=CYCLES)
        assert rec.spans[0].clock == CYCLES
        assert rec.spans[0].duration == 10
        assert rec.events[0].ts == 110.0

    def test_max_records_drops_instead_of_growing(self):
        rec = Recorder(max_records=2)
        for _ in range(5):
            rec.event("e")
        assert len(rec.events) == 2
        assert rec.dropped == 3

    def test_scoped_labels_stamp_metrics(self):
        rec = Recorder()
        with rec.scoped(workload="epic"):
            rec.counter("sim.stall.issue", algorithm="greedy").inc(3)
        rec.counter("sim.stall.issue").inc(1)
        assert rec.metrics.value(
            "sim.stall.issue", workload="epic", algorithm="greedy"
        ) == 3
        assert rec.metrics.value("sim.stall.issue") == 1

    def test_observed_restores_previous_recorder(self):
        before = get_recorder()
        with observed() as rec:
            assert get_recorder() is rec and rec.enabled
        assert get_recorder() is before

    def test_metric_kind_conflict_raises(self):
        rec = Recorder()
        rec.counter("x").inc()
        with pytest.raises(TypeError):
            rec.gauge("x")


class TestExporters:
    def _populated(self) -> Recorder:
        rec = Recorder()
        with rec.span("job", track="engine", kind="experiment") as attrs:
            attrs["status"] = "ok"
        rec.add_span("pfu.reconfig", 50, 60, clock=CYCLES, track="pfu1", conf=3)
        rec.event("selection.done", configs=2)
        rec.counter("sim.stall.issue.operands", workload="epic").inc(41)
        rec.gauge("engine.active_jobs").set(2.0)
        rec.histogram("engine.job.wall_time").observe(0.25)
        return rec

    def test_jsonl_round_trip(self, tmp_path):
        rec = self._populated()
        path = str(tmp_path / "metrics.jsonl")
        n = export_jsonl(rec, path)
        data = load_jsonl(path)
        assert n == 1 + 3 + 2 + 1          # meta + metrics + spans + events
        assert data["meta"]["version"] == 1
        assert len(data["spans"]) == len(rec.spans)
        assert len(data["events"]) == len(rec.events)
        loaded = {(s.name, s.clock, s.track) for s in data["spans"]}
        assert loaded == {("job", WALL, "engine"),
                          ("pfu.reconfig", CYCLES, "pfu1")}
        by_name = {row["name"]: row for row in data["metrics"]}
        assert by_name["sim.stall.issue.operands"]["value"] == 41
        assert by_name["sim.stall.issue.operands"]["labels"] == {
            "workload": "epic"
        }
        assert by_name["engine.job.wall_time"]["count"] == 1
        assert by_name["engine.job.wall_time"]["sum"] == 0.25
        assert data["events"][0].attrs == {"configs": 2}

    def test_trace_event_schema(self, tmp_path):
        rec = self._populated()
        path = str(tmp_path / "trace.json")
        export_trace_events(rec, path)
        payload = load_trace_events(path)
        events = payload["traceEvents"]
        assert all({"ph", "pid", "name"} <= set(e) for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        # wall spans in pid 1 (µs), cycle spans in pid 2 (1 µs per cycle)
        wall = next(e for e in complete if e["name"] == "job")
        cyc = next(e for e in complete if e["name"] == "pfu.reconfig")
        assert wall["pid"] == 1 and cyc["pid"] == 2
        assert cyc["ts"] == 50 and cyc["dur"] == 10
        assert wall["args"]["status"] == "ok"
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert names == {"t1000 wall clock", "simulated cycles"}
        # the file itself is plain JSON Chrome can open
        with open(path) as fh:
            assert "traceEvents" in json.load(fh)

    def test_load_trace_events_rejects_non_trace(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_trace_events(str(path))

    def test_trace_events_assign_one_tid_per_track(self):
        rec = Recorder()
        rec.add_span("a", 0, 1, clock=CYCLES, track="pfu0")
        rec.add_span("b", 1, 2, clock=CYCLES, track="pfu1")
        rec.add_span("c", 2, 3, clock=CYCLES, track="pfu0")
        evs = [e for e in trace_events(rec) if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in evs}
        assert tids["a"] == tids["c"] != tids["b"]

    def test_merge_metric_rows_adds_counters_and_histograms(self, tmp_path):
        paths = []
        for i in range(2):
            rec = Recorder()
            rec.counter("sim.stall.x", workload="w").inc(10)
            rec.histogram("h").observe(2.0)
            rec.gauge("g").set(float(i))
            path = str(tmp_path / f"m{i}.jsonl")
            export_jsonl(rec, path)
            paths.append(path)
        rows = merge_metric_rows([load_jsonl(p) for p in paths])
        by_name = {row["name"]: row for row in rows}
        assert by_name["sim.stall.x"]["value"] == 20
        assert by_name["h"]["count"] == 2 and by_name["h"]["sum"] == 4.0
        assert by_name["g"]["value"] == 1.0   # gauge: last wins


def _timed(source: str, machine=None, ext_defs=None):
    program = assemble(source)
    trace = FunctionalSimulator(program, ext_defs=ext_defs).run(
        collect_trace=True
    ).trace
    sim = OoOSimulator(program, machine, ext_defs=ext_defs)
    return sim.simulate(trace)


class TestSimInstrumentation:
    SRC = loop_program(["lw $t0, 0($sp)", "addu $t1, $t1, $t0",
                        "xor $t2, $t1, $t0"], iterations=200)

    def test_disabled_keeps_stall_dict_empty(self):
        stats = _timed(self.SRC)
        assert stats.stall_cycles == {}

    def test_enabled_populates_stalls_and_metrics(self):
        with observed() as rec:
            stats = _timed(self.SRC)
        assert stats.stall_cycles
        assert all(v > 0 for v in stats.stall_cycles.values())
        # the counters mirror the per-run dict
        for reason, cycles in stats.stall_cycles.items():
            assert rec.metrics.value(
                f"sim.stall.{reason}", program="program"
            ) == cycles
        width = rec.metrics.value("sim.issue.width", program="program")
        assert width.count > 0
        assert 1.0 <= width.mean <= 4.0
        timing = [s for s in rec.spans if s.name == "sim.timing"]
        assert timing and timing[0].attrs["cycles"] == stats.cycles

    def test_cycles_identical_enabled_vs_disabled(self):
        baseline = _timed(self.SRC)
        with observed():
            watched = _timed(self.SRC)
        assert watched.cycles == baseline.cycles
        assert watched.instructions == baseline.instructions

    def test_functional_sim_span_and_counters(self):
        program = assemble(self.SRC)
        with observed() as rec:
            result = FunctionalSimulator(program).run()
        span = next(s for s in rec.spans if s.name == "sim.functional")
        assert span.attrs["steps"] == result.steps
        name = program.name
        assert rec.metrics.value("sim.functional.runs", program=name) == 1
        assert rec.metrics.value(
            "sim.functional.steps", program=name
        ) == result.steps


class TestPFUInstrumentation:
    def test_reconfig_metric_matches_stats(self, gsm_encode_lab):
        program, defs = gsm_encode_lab.rewritten(SelectionParams("greedy"))
        machine = MachineConfig(n_pfus=2, reconfig_latency=10)
        with observed() as rec:
            trace = FunctionalSimulator(program, ext_defs=defs).run(
                collect_trace=True
            ).trace
            stats = OoOSimulator(program, machine, ext_defs=defs).simulate(
                trace
            )
        assert stats.pfu_misses > 0
        name = program.name
        assert rec.metrics.value(
            "sim.pfu.reconfig", program=name
        ) == stats.pfu_misses
        assert rec.metrics.value(
            "sim.pfu.reconfig_cycles", program=name
        ) == stats.pfu_misses * machine.reconfig_latency
        reconfigs = [s for s in rec.spans if s.name == "pfu.reconfig"]
        assert len(reconfigs) == stats.pfu_misses
        span = reconfigs[0]
        assert span.clock == CYCLES
        assert span.duration == machine.reconfig_latency


class TestSelectionInstrumentation:
    def test_greedy_decisions(self, gsm_encode_lab):
        with observed() as rec:
            selection = greedy_select(gsm_encode_lab.profile)
        considered = rec.metrics.value(
            "selection.candidates.considered", algorithm="greedy",
            program=gsm_encode_lab.program.name,
        )
        accepted = rec.metrics.value(
            "selection.candidates.accepted", algorithm="greedy",
            program=gsm_encode_lab.program.name,
        )
        # greedy accepts every maximal sequence; several may share a config
        assert accepted == len(selection.sites)
        assert considered >= selection.n_configs
        assert any(e.name == "selection.done" for e in rec.events)

    def test_selective_rejections_have_reasons(self, gsm_encode_lab):
        with observed() as rec:
            selection = selective_select(gsm_encode_lab.profile, n_pfus=2)
        name = gsm_encode_lab.program.name
        accepted = rec.metrics.value(
            "selection.candidates.accepted", algorithm="selective",
            program=name,
        )
        budget = rec.metrics.value(
            "selection.candidates.rejected", algorithm="selective",
            program=name, reason="pfu_budget",
        )
        assert accepted == len(selection.sites)
        assert budget and budget > 0


class TestReport:
    def test_report_renders_required_sections(self, tmp_path, gsm_encode_lab):
        machine = MachineConfig(n_pfus=2, reconfig_latency=10)
        with observed() as rec:
            with rec.scoped(workload="gsm_encode", algorithm="greedy"):
                program, defs = gsm_encode_lab.rewritten(
                    SelectionParams("greedy"))
                trace = FunctionalSimulator(program, ext_defs=defs).run(
                    collect_trace=True
                ).trace
                OoOSimulator(program, machine, ext_defs=defs).simulate(trace)
        path = str(tmp_path / "m.jsonl")
        export_jsonl(rec, path)
        text = render_metrics_report([load_jsonl(path)])
        assert "per-stage stall cycles" in text
        assert "gsm_encode [greedy]" in text
        assert "PFU reconfigurations per selection algorithm" in text
        assert "issue-width utilisation" in text

    def test_empty_report_degrades_gracefully(self):
        text = render_metrics_report([{"metrics": []}])
        assert "no metrics found" in text
