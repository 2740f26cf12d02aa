"""End-to-end tests for the experiment engine (store + scheduler + CLI).

The acceptance bar from the engine's design: a warm cache re-runs zero
simulations, and a parallel run produces byte-identical tables to a
serial one.
"""

import dataclasses

import pytest

import repro.engine.pipeline as pipeline_module
from repro.engine import (
    ArtifactPipeline, ArtifactStore, EngineConfig, EngineError,
    ExperimentEngine, Scheduler, make_spec,
)
from repro.errors import ExtInstError
from repro.extinst import SelectionParams
from repro.explore import SweepSpec, run_sweep
from repro.harness.cli import main
from repro.harness.figures import fig2_greedy
from repro.sim.functional import FunctionalSimulator
from repro.utils.tables import format_table

WORKLOAD = "epic"
SELECTIVE_2 = SelectionParams("selective", 2)


def make_engine(tmp_path, **kwargs):
    return ExperimentEngine(EngineConfig(
        cache_dir=str(tmp_path / "cache"), **kwargs
    ))


@pytest.fixture(scope="module")
def reference_rows():
    """Serial, storeless reference result (shared process-wide pipeline)."""
    return fig2_greedy(workloads=(WORKLOAD,))


class TestColdVsWarm:
    def test_warm_run_identical_and_simulation_free(self, tmp_path,
                                                    reference_rows):
        cold = make_engine(tmp_path)
        cold_out = fig2_greedy(workloads=(WORKLOAD,), engine=cold)
        assert format_table(*cold_out) == format_table(*reference_rows)
        assert cold.telemetry.total("sim") > 0

        warm = make_engine(tmp_path)     # fresh engine, same cache dir
        warm_out = fig2_greedy(workloads=(WORKLOAD,), engine=warm)
        assert format_table(*warm_out) == format_table(*cold_out)
        assert warm.telemetry.total("sim") == 0, \
            "warm cache must not re-run any simulation"
        assert warm.telemetry.cache_misses == 0
        assert warm.telemetry.cache_hits > 0

    def test_store_stats_accumulate(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.run(make_spec(WORKLOAD, "greedy", 2, 10))
        stats = engine.store.stats()
        assert stats.artifacts > 0
        assert stats.puts == stats.artifacts
        assert stats.counters.get("sim.timing", 0) > 0


@pytest.fixture
def counter_writes(monkeypatch):
    """Paths of every counter-file write an :class:`ArtifactStore` makes."""
    writes = []
    real_write = ArtifactStore._atomic_write

    def logging_write(path, payload):
        if path.parent.name == "counters":
            writes.append(path)
        real_write(path, payload)

    monkeypatch.setattr(ArtifactStore, "_atomic_write",
                        staticmethod(logging_write))
    return writes


class TestCounterFlush:
    """An inline engine persists its store counters once per run, not
    once per stage, and a failed run still persists what it counted."""

    SWEEP = {"name": "flush", "workloads": [WORKLOAD],
             "axes": {"algorithm": ["greedy"], "n_pfus": [1, 2],
                      "reconfig_latency": [10]}}

    def test_inline_run_writes_counters_once(self, tmp_path,
                                             counter_writes):
        spec = SweepSpec.from_json(self.SWEEP)
        for _ in ("cold", "warm"):
            engine = make_engine(tmp_path, jobs=1)
            counter_writes.clear()
            run_sweep(spec, engine)
            assert len(counter_writes) == 1, counter_writes

    @pytest.mark.parametrize("run", [
        lambda engine: engine.run(make_spec(WORKLOAD, "greedy", 2, 10)),
        lambda engine: run_sweep(SweepSpec.from_json({
            "name": "broken", "workloads": [WORKLOAD],
            "axes": {"algorithm": ["greedy"], "n_pfus": [2],
                     "reconfig_latency": [10]},
        }), engine),
    ], ids=["engine.run", "run_sweep"])
    def test_failed_run_keeps_the_counts_of_stages_that_ran(
        self, tmp_path, monkeypatch, run
    ):
        real_simulate = pipeline_module.OoOSimulator.simulate

        def rewritten_replay_breaks(self, trace):
            if self.ext_defs:
                raise RuntimeError("replay broke")
            return real_simulate(self, trace)

        monkeypatch.setattr(pipeline_module.OoOSimulator, "simulate",
                            rewritten_replay_breaks)
        engine = make_engine(tmp_path, jobs=1)
        with pytest.raises(EngineError, match="replay broke"):
            run(engine)
        # A fresh store sees only what reached disk: every stage's puts,
        # plus the failed stage's timing miss and replay.
        persisted = ArtifactStore(tmp_path / "cache").stats()
        assert persisted.puts == persisted.artifacts > 0
        assert persisted.counters["cache.miss.timing"] == 2
        assert persisted.counters["store.put.timing"] == 1   # baseline
        assert persisted.counters["sim.timing"] == 2

    def test_cache_stats_after_cold_then_warm_sweep(self, tmp_path,
                                                    capsys):
        spec = SweepSpec.from_json(self.SWEEP)
        run_sweep(spec, make_engine(tmp_path, jobs=1))
        run_sweep(spec, make_engine(tmp_path, jobs=1))
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        hits = int(out.split("hits: ")[1].split()[0])
        misses = int(out.split("misses: ")[1].split()[0])
        puts = int(out.split("puts: ")[1].split()[0])
        assert hits > 0
        assert misses == puts > 0

    def test_parallel_sweep_persists_the_parents_selection_hits(
        self, tmp_path
    ):
        # each point's LUT area is read with its answer, inside the run,
        # so no selection read lands after the run's one flush
        spec = SweepSpec.from_json({
            "name": "flush-jobs", "workloads": ["gsm_encode"],
            "prune": False,
            "axes": {"algorithm": ["selective"], "n_pfus": [1, 2],
                     "reconfig_latency": [0, 100]},
        })
        engine = make_engine(tmp_path, jobs=2)
        assert run_sweep(spec, engine).n_points == 5
        counted = engine.store.stats().counters      # flushed + unflushed
        persisted = ArtifactStore(tmp_path / "cache").stats().counters
        assert persisted.get("cache.hit.selection", 0) == counted.get(
            "cache.hit.selection", 0)
        assert persisted == counted


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path, reference_rows):
        engine = make_engine(tmp_path, jobs=2)
        out = fig2_greedy(workloads=(WORKLOAD,), engine=engine)
        assert format_table(*out) == format_table(*reference_rows)

    def test_parallel_storeless_matches_serial(self, reference_rows):
        engine = ExperimentEngine(EngineConfig(jobs=2))
        out = fig2_greedy(workloads=(WORKLOAD,), engine=engine)
        assert format_table(*out) == format_table(*reference_rows)

    def test_worker_telemetry_folded_into_run(self, tmp_path):
        engine = make_engine(tmp_path, jobs=2)
        engine.run(make_spec(WORKLOAD, "greedy", 2, 10))
        # simulations happened in workers, but the parent's report sees them
        assert engine.telemetry.total("sim") > 0
        assert "simulations:" in engine.report()


@pytest.fixture
def run_log(monkeypatch):
    """Programs passed to every real :meth:`FunctionalSimulator.run`."""
    calls = []
    real_run = FunctionalSimulator.run

    def counting_run(self, *args, **kwargs):
        calls.append(self.program)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(FunctionalSimulator, "run", counting_run)
    return calls


class TestFunctionalRunCount:
    """A cold pipeline runs each program once: one profiling run and one
    traced run of the original, and per rewrite one validation run whose
    trace becomes the rewrite's trace artefact."""

    SPEC = {
        "name": "run-count", "workloads": ["gsm_encode", "mpeg2_decode"],
        "scale": 1, "mode": "grid", "prune": False,
        "axes": {"algorithm": ["selective", "isegen"], "n_pfus": [2, None],
                 "reconfig_latency": [10]},
    }
    #: 2 kernels x (profile + original + 4 validated rewrites)
    COLD_RUNS = 12
    #: 2 kernels x (profile + baseline trace + 4 x (original + rewritten
    #: for validation + rewritten again for the trace)), before any reuse
    UNSHARED_RUNS = 28

    @staticmethod
    def _counted(engine) -> int:
        telemetry = engine.telemetry
        return (telemetry.total("sim.functional")
                + telemetry.total("sim.validate"))

    #: store puts by kind of the cold sweep: one per artefact, each
    #: made once
    COLD_PUTS = {"fingerprint": 2, "profile": 2, "selection": 8,
                 "rewrite": 8, "trace": 10, "timing": 10}

    def test_cold_serial_sweep_runs_each_program_once(self, tmp_path,
                                                      run_log, monkeypatch):
        graphs = []
        real_run = Scheduler.run

        def run(self, graph, runner):
            graphs.append(len(graph))
            return real_run(self, graph, runner)

        monkeypatch.setattr(Scheduler, "run", run)
        spec = SweepSpec.from_json(self.SPEC)
        cold = make_engine(tmp_path, jobs=1)
        run_sweep(spec, cold)
        assert cold.store.stats().artifacts_by_kind["rewrite"] == 8
        assert len(run_log) == self.COLD_RUNS
        assert self._counted(cold) == self.COLD_RUNS
        assert {
            name.removeprefix("store.put."): count
            for name, count in cold.store.stats().counters.items()
            if name.startswith("store.put.")
        } == self.COLD_PUTS
        # a serial engine calls the pipeline directly, cold or warm
        assert graphs == []

        run_log.clear()
        warm = make_engine(tmp_path, jobs=1)
        run_sweep(spec, warm)
        assert run_log == []
        assert self._counted(warm) == 0
        assert graphs == []

    def test_parallel_sweep_never_runs_more_than_before(self, tmp_path):
        engine = make_engine(tmp_path, jobs=2)
        run_sweep(SweepSpec.from_json(self.SPEC), engine)
        assert self.COLD_RUNS <= self._counted(engine) <= self.UNSHARED_RUNS


def _flip_last_immediate(ext):
    """``ext`` with the low bit of its last immediate flipped, or None."""
    for j in reversed(range(len(ext.nodes))):
        node = ext.nodes[j]
        for slot in ("b", "a"):
            ref = getattr(node, slot)
            if ref[0] == "imm":
                nodes = list(ext.nodes)
                nodes[j] = dataclasses.replace(
                    node, **{slot: ("imm", ref[1] ^ 1)}
                )
                return dataclasses.replace(ext, nodes=tuple(nodes))
    return None


class TestValidationReuse:
    def test_corrupted_definition_fails_against_the_memoized_run(
        self, monkeypatch, run_log
    ):
        """Reusing the original's run must not weaken validation: a
        rewrite whose definition computes something else still fails."""
        pipeline = ArtifactPipeline()
        reference = pipeline.original_run("mpeg2_decode", 1)
        pipeline.selection("mpeg2_decode", 1, SELECTIVE_2)
        real_apply = pipeline_module.apply_selection

        def corrupting_apply(program, selection):
            rewritten, defs = real_apply(program, selection)
            for conf, ext in sorted(defs.items()):
                bad = _flip_last_immediate(ext)
                if bad is not None:
                    return rewritten, {**defs, conf: bad}
            raise AssertionError("no definition carries an immediate")

        monkeypatch.setattr(
            pipeline_module, "apply_selection", corrupting_apply
        )
        run_log.clear()
        with pytest.raises(ExtInstError):
            pipeline.rewrite("mpeg2_decode", 1, SELECTIVE_2, True)
        # only the rewritten program ran; the original's run was reused
        assert len(run_log) == 1
        assert run_log[0] is not reference.program
        assert pipeline.original_run("mpeg2_decode", 1) is reference


class TestCorruptionRecovery:
    def test_corrupt_artifact_recomputed(self, tmp_path, reference_rows):
        cold = make_engine(tmp_path)
        fig2_greedy(workloads=(WORKLOAD,), engine=cold)
        # vandalise every cached artefact
        for path in cold.store._object_files():
            path.write_bytes(b"\x00garbage")
        warm = make_engine(tmp_path)
        out = fig2_greedy(workloads=(WORKLOAD,), engine=warm)
        assert format_table(*out) == format_table(*reference_rows)
        assert warm.telemetry.total("cache.corrupt") > 0
        assert warm.telemetry.total("sim") > 0   # recomputed, not crashed


class TestCli:
    def test_cold_then_warm_output_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["fig2", "--workloads", WORKLOAD, "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "artifacts:" in out
        hits = int(out.split("hits: ")[1].split()[0])
        assert hits > 0, "second CLI run should have hit the cache"
        # the simulation counters prove the warm run computed nothing new
        assert "simulations: functional=3 timing=3" in out

    def test_jobs_flag_matches_serial(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", cache]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache,
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "artifacts: 0 (0 bytes)" in capsys.readouterr().out

    def test_cache_gc(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache,
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 artefact(s) kept" in out

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("T1000_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_stats_missing_dir_is_a_clean_error(self, tmp_path,
                                                      capsys):
        """A typo'd --cache-dir must produce a human-readable message and
        exit 2 — not a traceback, and not a freshly created empty store."""
        missing = tmp_path / "no" / "such" / "store"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err
        assert not missing.exists(), "inspection must not create the store"

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", str(cache), "--no-cache"]) == 0
        capsys.readouterr()
        assert not (cache / "objects").exists() or \
            not any((cache / "objects").glob("*/*"))

    def test_engine_report_flag(self, tmp_path, capsys):
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", str(tmp_path / "cache"),
                     "--engine-report"]) == 0
        captured = capsys.readouterr()
        assert "engine run summary" in captured.err
        assert "engine run summary" not in captured.out
