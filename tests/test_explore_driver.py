"""Integration tests for the sweep driver: caching, resume, pruning
exactness, parallel parity, the Fig. 6 regime, and the CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import EngineConfig, ExperimentEngine, make_spec
from repro.engine import pipeline as pipeline_module
from repro.explore import SweepSpec, frontier_pairs, run_sweep
from repro.harness import cli, figures
from repro.utils.tables import format_table

FIG6_SPEC = os.path.join(os.path.dirname(__file__), "data",
                         "fig6_hard_regime.json")


def small_spec(**overrides) -> SweepSpec:
    data = {
        "name": "small",
        "workloads": ["gsm_encode"],
        "axes": {
            "algorithm": ["selective"],
            "n_pfus": [1, 2],
            "reconfig_latency": [0, 100],
        },
    }
    data.update(overrides)
    return SweepSpec.from_json(data)


def engine_for(tmp_path, **kwargs) -> ExperimentEngine:
    return ExperimentEngine(
        EngineConfig(cache_dir=str(tmp_path / "cache"), **kwargs)
    )


class TestDriver:
    def test_counts_pruning_and_logging(self, tmp_path):
        outcome = run_sweep(small_spec(), engine_for(tmp_path))
        # 4 selective points + 1 shared baseline; one latency pruned
        # per (pfus) group
        assert outcome.n_points == 5
        assert outcome.n_simulated == 3
        assert outcome.n_warm == 0
        assert outcome.n_pruned == 2
        # every skip is logged, naming its dominator and the bound
        prune_lines = [l for l in outcome.log_lines if l.startswith("prune:")]
        assert len(prune_lines) == outcome.n_pruned
        assert all("dominated by" in l for l in prune_lines)
        assert all("speedup <=" in l for l in prune_lines)
        assert outcome.state_path and os.path.exists(outcome.state_path)

    def test_rerun_is_all_warm_zero_simulations(self, tmp_path):
        run_sweep(small_spec(), engine_for(tmp_path))
        engine = engine_for(tmp_path)
        again = run_sweep(small_spec(), engine)
        assert again.n_simulated == 0
        assert again.n_warm == 3
        assert engine.telemetry.total("sim") == 0
        # identical results either way
        first = run_sweep(small_spec(), engine_for(tmp_path))
        assert {r.point_id: r.speedup for r in again.results} == {
            r.point_id: r.speedup for r in first.results
        }

    def test_resume_after_partial_run_repeats_nothing(self, tmp_path):
        # Simulate a mid-sweep kill: only part of the grid is warm.
        partial = small_spec()
        partial = SweepSpec.from_json({
            **partial.to_json(),
            "axes": {**dict(partial.to_json()["axes"]), "n_pfus": [1]},
        })
        run_sweep(partial, engine_for(tmp_path))
        engine = engine_for(tmp_path)
        resumed = run_sweep(small_spec(), engine)
        # the n_pfus=1 half (and the baseline) is warm; only the
        # n_pfus=2 group's non-dominated point is simulated
        assert resumed.n_warm == 2
        assert resumed.n_simulated == 1
        # exactly one timing replay ran; the warm half re-ran nothing
        # (the functional trace for the new select_pfus=2 rewrite is new
        # work, not a repeat)
        assert engine.telemetry.total("sim.timing") == 1

    def test_pruned_frontier_exact_vs_unpruned(self, tmp_path):
        spec = small_spec(workloads=["gsm_encode", "epic"])
        pruned = run_sweep(spec, engine_for(tmp_path))
        assert pruned.n_pruned > 0
        unpruned = run_sweep(spec, engine_for(tmp_path), prune=False)
        assert unpruned.n_pruned == 0
        assert len(unpruned.results) == pruned.n_points
        assert frontier_pairs(pruned.results) == frontier_pairs(
            unpruned.results
        )

    def test_parallel_jobs_match_serial(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, engine_for(tmp_path / "a"))
        parallel = run_sweep(spec, engine_for(tmp_path / "b", jobs=2))
        assert {r.point_id: (r.cycles, r.baseline_cycles, r.area_luts)
                for r in serial.results} == {
            r.point_id: (r.cycles, r.baseline_cycles, r.area_luts)
            for r in parallel.results
        }

    def test_storeless_engine_runs_and_reports_nothing_warm(self):
        engine = ExperimentEngine(EngineConfig())
        outcome = run_sweep(small_spec(), engine)
        assert outcome.n_simulated == 3
        assert outcome.n_warm == 0
        assert outcome.state_path is None


def rows(outcome) -> dict[str, dict]:
    """Point results by id, without the cold/warm status."""
    out = {}
    for result in outcome.results:
        row = result.to_json()
        del row["status"]
        out[result.point_id] = row
    return out


@pytest.fixture
def engine_calls(monkeypatch):
    """Every key an :class:`ArtifactStore` is asked for, checked for or
    given, the size of every job graph a :class:`Scheduler` runs, and
    every workload the pipeline builds."""
    from repro.engine import ArtifactStore, Scheduler

    log = {"gets": [], "contains": [], "puts": [], "jobs": [], "builds": []}
    real_get, real_put = ArtifactStore.get, ArtifactStore.put
    real_contains = ArtifactStore.contains
    real_run = Scheduler.run
    real_build = pipeline_module.build_workload

    def get(self, key):
        log["gets"].append(key)
        return real_get(self, key)

    def contains(self, key):
        log["contains"].append(key)
        return real_contains(self, key)

    def put(self, key, value):
        log["puts"].append(key)
        return real_put(self, key, value)

    def run(self, graph, runner):
        log["jobs"].append(len(graph))
        return real_run(self, graph, runner)

    def build(name, scale=1):
        log["builds"].append((name, scale))
        return real_build(name, scale)

    monkeypatch.setattr(ArtifactStore, "get", get)
    monkeypatch.setattr(ArtifactStore, "contains", contains)
    monkeypatch.setattr(ArtifactStore, "put", put)
    monkeypatch.setattr(Scheduler, "run", run)
    monkeypatch.setattr(pipeline_module, "build_workload", build)
    return log


def clear(log):
    for calls in log.values():
        calls.clear()


class TestWarmPath:
    """A warm point is read back in process: no scheduler job, no
    workload build, and no store read beyond its program fingerprint,
    its timings and its selection (call counts, no timing)."""

    def test_fully_warm_sweep_runs_no_job_and_reads_answers_only(
        self, tmp_path, engine_calls
    ):
        spec = small_spec(workloads=["gsm_encode", "epic"])
        cold = run_sweep(spec, engine_for(tmp_path))
        clear(engine_calls)
        warm = run_sweep(spec, engine_for(tmp_path))
        assert warm.n_simulated == 0 and warm.n_warm == cold.n_simulated
        assert sum(engine_calls["jobs"]) == 0
        assert engine_calls["builds"] == []
        kinds = {key.kind for key in engine_calls["gets"]}
        assert kinds == {"timing", "selection", "fingerprint"}
        fingerprints = [(key.workload, key.scale)
                        for key in engine_calls["gets"]
                        if key.kind == "fingerprint"]
        assert sorted(fingerprints) == [("epic", 1), ("gsm_encode", 1)]
        # one key per point, the baseline points' keys being the one
        # baseline every other point shares: the check asks once each
        checked = engine_calls["contains"]
        assert len(checked) == len(set(checked)) == warm.n_points
        assert rows(warm) == rows(cold)

    def test_edited_build_sources_rebuild_once_and_stay_warm(
        self, tmp_path, engine_calls, monkeypatch
    ):
        spec = small_spec()
        cold = run_sweep(spec, engine_for(tmp_path))
        run_sweep(spec, engine_for(tmp_path))
        warm_timings = {key for key in engine_calls["gets"]
                        if key.kind == "timing"}
        clear(engine_calls)
        monkeypatch.setattr(pipeline_module, "build_source_digest",
                            lambda: "edited-sources")
        edited = run_sweep(spec, engine_for(tmp_path))
        assert engine_calls["builds"] == [("gsm_encode", 1)]
        assert [key.kind for key in engine_calls["puts"]] == ["fingerprint"]
        assert engine_calls["puts"][0].fingerprint == "edited-sources"
        assert {key for key in engine_calls["gets"]
                if key.kind == "timing"} == warm_timings
        assert edited.n_simulated == 0 and edited.n_warm == cold.n_simulated
        assert rows(edited) == rows(cold)

    def test_corrupt_fingerprint_entry_is_a_miss(self, tmp_path,
                                                 engine_calls):
        spec = small_spec()
        cold = run_sweep(spec, engine_for(tmp_path))
        (entry,) = (tmp_path / "cache" / "objects").glob("*/fingerprint-*")
        entry.write_text('{"payload": 7')
        clear(engine_calls)
        engine = engine_for(tmp_path)
        again = run_sweep(spec, engine)
        assert engine.telemetry.total("cache.corrupt.fingerprint") == 1
        assert engine_calls["builds"] == [("gsm_encode", 1)]
        assert [key.kind for key in engine_calls["puts"]] == ["fingerprint"]
        assert again.n_simulated == 0 and rows(again) == rows(cold)

    def test_resumed_sweep_loads_only_cold_selections(
        self, tmp_path, engine_calls
    ):
        partial = SweepSpec.from_json({
            **small_spec().to_json(),
            "axes": {**small_spec().to_json()["axes"], "n_pfus": [1]},
        })
        run_sweep(partial, engine_for(tmp_path))
        engine_calls["gets"].clear()
        resumed = run_sweep(small_spec(), engine_for(tmp_path))
        cold = {
            (r.algorithm, r.select_pfus)
            for r in resumed.results if r.status == "simulated"
        }
        assert resumed.n_warm == 2 and cold == {("selective", 2)}
        loaded = [
            key for key in engine_calls["gets"]
            if key.kind in ("trace", "rewrite")
        ]
        assert {key.kind for key in loaded} == {"trace", "rewrite"}
        for key in loaded:
            params = dict(key.params)
            assert (params["algorithm"], params.get("select_pfus")) in cold

    def test_parallel_warm_sweep_matches_serial(self, tmp_path, engine_calls):
        spec = small_spec()
        run_sweep(spec, engine_for(tmp_path))
        serial = run_sweep(spec, engine_for(tmp_path))
        engine_calls["jobs"].clear()
        parallel = run_sweep(spec, engine_for(tmp_path, jobs=2))
        assert parallel.n_simulated == 0
        assert sum(engine_calls["jobs"]) == 0
        assert rows(parallel) == rows(serial)

    def test_warm_batch_runs_no_job(self, tmp_path, engine_calls):
        specs = [make_spec("gsm_encode", "selective", 2, 10),
                 make_spec("gsm_encode", "baseline", None, 0)]
        cold = engine_for(tmp_path).run_batch(specs)
        clear(engine_calls)
        warm = engine_for(tmp_path).run_batch(specs)
        assert sum(engine_calls["jobs"]) == 0
        assert engine_calls["builds"] == []
        assert {key.kind for key in engine_calls["gets"]} == {
            "timing", "selection", "fingerprint"
        }
        assert [(r.stats, r.baseline_cycles, r.n_configs) for r in warm] == [
            (r.stats, r.baseline_cycles, r.n_configs) for r in cold
        ]

    def test_evicted_selection_is_recomputed_in_process(self, tmp_path):
        spec = small_spec()
        cold = run_sweep(spec, engine_for(tmp_path))
        # gc took the selections but left every timing: the points stay
        # warm, and their n_configs come from a selection made inline
        for path in (tmp_path / "cache" / "objects").glob("*/selection-*"):
            path.unlink()
        engine = engine_for(tmp_path)
        again = run_sweep(spec, engine)
        assert again.n_warm == cold.n_simulated
        assert engine.telemetry.total("compute.selection") > 0
        assert engine.telemetry.total("sim") == 0
        assert rows(again) == rows(cold)


class TestFig6Regime:
    """The paper's hard regime through the new subsystem, byte-for-byte
    against the existing figures drivers on one shared cache."""

    @pytest.fixture(scope="class")
    def shared(self, tmp_path_factory):
        cache = str(tmp_path_factory.mktemp("fig6") / "cache")
        spec = SweepSpec.load(FIG6_SPEC)
        outcome = run_sweep(
            spec, ExperimentEngine(EngineConfig(cache_dir=cache))
        )
        return cache, spec, outcome

    def test_fixture_simulates_every_point(self, shared):
        _, spec, outcome = shared
        assert spec.prune is False
        # 2 workloads x (4 greedy + 4 selective) + 2 baselines
        assert outcome.n_pruned == 0
        assert outcome.n_simulated == 18

    def test_selective_table_matches_figures_byte_for_byte(self, shared):
        cache, spec, outcome = shared
        latencies = (0, 10, 100, 500)
        engine = ExperimentEngine(EngineConfig(cache_dir=cache))
        expected = format_table(*figures.reconfig_sweep(
            1, spec.workloads, latencies=latencies, n_pfus=2, engine=engine
        ))
        # the figures driver found every artefact warm in the sweep's cache
        assert engine.telemetry.total("sim") == 0
        by_point = {
            (r.workload, r.reconfig_latency): r.speedup
            for r in outcome.results if r.algorithm == "selective"
        }
        headers = ["workload"] + [f"reconf={lat}" for lat in latencies]
        rows = [
            [name] + [by_point[(name, lat)] for lat in latencies]
            for name in spec.workloads
        ]
        assert format_table(headers, rows) == expected

    def test_greedy_points_match_engine_results(self, shared):
        cache, spec, outcome = shared
        engine = ExperimentEngine(EngineConfig(cache_dir=cache))
        specs = [
            make_spec(name, "greedy", 2, lat)
            for name in spec.workloads for lat in (0, 10, 100, 500)
        ]
        results = engine.run_batch(specs)
        assert engine.telemetry.total("sim") == 0
        expected = {
            (s.workload, s.reconfig_latency): r.speedup
            for s, r in zip(specs, results)
        }
        actual = {
            (r.workload, r.reconfig_latency): r.speedup
            for r in outcome.results if r.algorithm == "greedy"
        }
        assert actual == expected


class TestCli:
    def spec_path(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(small_spec().to_json()))
        return str(path)

    def test_run_status_frontier(self, tmp_path, capsys):
        spec_path = self.spec_path(tmp_path)
        cache = str(tmp_path / "cache")
        out_dir = str(tmp_path / "out")

        assert cli.main(["explore", "run", spec_path, "--cache-dir", cache,
                         "--out", out_dir]) == 0
        run_out = capsys.readouterr().out
        assert "simulated 3" in run_out and "pruned 2" in run_out
        assert "Pareto frontier" in run_out
        assert os.path.exists(os.path.join(out_dir, "frontier.json"))
        assert os.path.exists(os.path.join(out_dir, "points.csv"))
        with open(os.path.join(out_dir, "frontier.json")) as fh:
            data = json.load(fh)
        assert data["frontier"] and data["skipped"]

        assert cli.main(["explore", "status", spec_path,
                         "--cache-dir", cache]) == 0
        status_out = capsys.readouterr().out
        assert "pending 0" in status_out
        assert status_out.count("pruned:") == 2

        assert cli.main(["explore", "frontier", spec_path,
                         "--cache-dir", cache, "--verify"]) == 0
        frontier_out = capsys.readouterr().out
        assert "frontier verified" in frontier_out

    def test_resume_runs_nothing_twice(self, tmp_path, capsys):
        spec_path = self.spec_path(tmp_path)
        cache = str(tmp_path / "cache")
        assert cli.main(["explore", "run", spec_path,
                         "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert cli.main(["explore", "resume", spec_path,
                         "--cache-dir", cache]) == 0
        resume_out = capsys.readouterr().out
        assert "simulated 0" in resume_out and "warm 3" in resume_out

    def test_status_without_state_errors(self, tmp_path, capsys):
        spec_path = self.spec_path(tmp_path)
        assert cli.main(["explore", "status", spec_path,
                         "--cache-dir", str(tmp_path / "empty")]) == 2
        assert "no state" in capsys.readouterr().err

    def test_bad_spec_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["explore", "run", str(bad),
                         "--cache-dir", str(tmp_path / "c")]) == 2
        assert "not valid JSON" in capsys.readouterr().err


def test_serve_backend_matches_engine(tmp_path):
    from repro.serve import ServeConfig, ToolflowServer
    from repro.serve.client import ServeClient

    spec = SweepSpec.from_json({
        "name": "served",
        "workloads": ["gsm_encode"],
        "axes": {
            "algorithm": ["selective"],
            "n_pfus": [1, 2],
            "reconfig_latency": [0],
        },
    })
    local = run_sweep(spec, engine_for(tmp_path))
    with ToolflowServer(ServeConfig(workers=1)) as server:
        with ServeClient(server.address) as client:
            client.wait_ready()
            served = run_sweep(
                spec, ExperimentEngine(EngineConfig()), client=client
            )
    assert served.state_path is None
    assert {r.point_id: (r.cycles, r.baseline_cycles, r.area_luts)
            for r in served.results} == {
        r.point_id: (r.cycles, r.baseline_cycles, r.area_luts)
        for r in local.results
    }
