"""Workload ``dse_sweep``: an in-process design-space sweep, cold then warm.

Each op runs ``repro.explore.run_sweep`` (engine ``jobs=1``) against a
fresh ``ArtifactStore`` in a new directory (cold), then re-runs it
``WARM_RUNS`` times, each with a new engine on the same store (warm).
The cold run profiles, selects, rewrites, validates, traces and
replays; a warm one reads every artefact back from the store and must
simulate nothing.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from contextlib import nullcontext

from benchlib import (
    HostSpeed, Patches, Tracer, geomean, median, model_counts,
    own_peak_rss_mb, raw_ms, timed_ops,
)

KERNELS = ("gsm_encode", "mpeg2_decode")
AXES = {
    "algorithm": ["selective", "isegen"],
    "n_pfus": [2, None],
    "reconfig_latency": [10, 100, 500],
    "ruu_size": [32, 64],
}
#: Warm re-runs per op: a warm sweep is short, so it gets more samples.
WARM_RUNS = 3
#: The paper's Fig. 6 point: selective, 2 PFUs, 10-cycle reconfiguration.
FIG6 = {"algorithm": "selective", "n_pfus": 2, "reconfig_latency": 10,
        "ruu_size": 64}


def _point_rows(outcome) -> dict[str, dict]:
    """Results keyed by point id, without the cold/warm status."""
    rows = {}
    for result in outcome.results:
        row = result.to_json()
        row.pop("status", None)
        rows[result.point_id] = row
    return rows


def _skips(outcome) -> list[tuple[str, str]]:
    return [(s.point_id, s.dominated_by) for s in outcome.skipped]


class DseSweep:
    name = "dse_sweep"

    def __init__(self, seed: int, work: str, tracer: Tracer | None,
                 speed: HostSpeed):
        from repro.explore import SweepSpec

        rng = random.Random(seed)
        axes = {name: rng.sample(values, len(values))
                for name, values in AXES.items()}
        self.spec_json = {
            "name": f"perfbench-dse-{seed}",
            "workloads": rng.sample(KERNELS, len(KERNELS)),
            "scale": 1, "mode": "grid", "axes": axes, "prune": True,
        }
        self.spec = SweepSpec.from_json(self.spec_json)
        self.work = work
        self.tracer = tracer
        self.speed = speed
        # (start, end) intervals of the timed cold and warm sweeps
        self.cold: list[tuple[float, float]] = []
        self.warm: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []
        self.untraced: list[tuple[float, float]] = []
        self.traced_ops: list[tuple] = []
        self.reference: dict[str, dict] | None = None
        # filled by the span hooks during a traced op
        self._stats: list = []
        self._gets = [0, 0]
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    # ------------------------------------------------------------------

    def _run(self, cache_dir: str):
        from repro.engine import EngineConfig, ExperimentEngine
        from repro.explore import run_sweep

        engine = ExperimentEngine(EngineConfig(jobs=1, cache_dir=cache_dir))
        return run_sweep(self.spec, engine)

    def _cold_warm(self):
        """One op: the cold outcome, the ``WARM_RUNS`` warm outcomes, and
        the cold and warm ``(start, end)`` intervals."""
        cache_dir = tempfile.mkdtemp(prefix="dse-", dir=self.work)
        try:
            # Collect before each timed sweep, so no sweep pays for the
            # garbage of the one before it.
            gc.collect()
            start = time.perf_counter()
            cold = self._run(cache_dir)
            cold_span = (start, time.perf_counter())
            warm, warm_spans = [], []
            for _ in range(WARM_RUNS):
                gc.collect()
                start = time.perf_counter()
                warm.append(self._run(cache_dir))
                warm_spans.append((start, time.perf_counter()))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return cold, warm, cold_span, warm_spans

    def _fig6_oracle(self) -> dict[str, tuple[int, int]]:
        """(baseline, rewritten) cycles at the Fig. 6 point per kernel,
        straight through ``repro.api`` rather than the engine."""
        from repro import api

        out = {}
        for kernel in KERNELS:
            program = api.compile(workload=kernel)
            profile = api.profile(program=program)
            selection = api.select(profile=profile,
                                   algorithm=FIG6["algorithm"],
                                   pfus=FIG6["n_pfus"])
            rewritten, defs = api.rewrite(program=program,
                                          selection=selection)
            machine = api.MachineConfig(
                n_pfus=FIG6["n_pfus"],
                reconfig_latency=FIG6["reconfig_latency"],
                ruu_size=FIG6["ruu_size"])
            base = api.simulate(program=program,
                                machine=api.MachineConfig(
                                    ruu_size=FIG6["ruu_size"]))
            fast = api.simulate(program=rewritten, ext_defs=defs,
                                machine=machine)
            out[kernel] = (base.cycles, fast.cycles)
        return out

    @staticmethod
    def _fig6_rows(rows: dict[str, dict]) -> dict[str, dict]:
        out = {}
        for row in rows.values():
            axes = dict(row["axes"])
            if all(axes.get(k) == v for k, v in FIG6.items()):
                out[row["workload"]] = row
        return out

    def setup(self) -> None:
        cold, warm, _, _ = self._cold_warm()       # the warm-up op
        problems = self._check(cold, warm)
        self.reference = _point_rows(cold)
        self.reference_skips = _skips(cold)
        self.n_simulated = cold.n_simulated
        self.n_pruned = cold.n_pruned
        fig6 = self._fig6_rows(self.reference)
        oracle = self._fig6_oracle()
        for kernel, (base, fast) in oracle.items():
            row = fig6.get(kernel)
            if row is None or (row["baseline_cycles"], row["cycles"]) != (
                    base, fast):
                problems.append(f"{kernel}: Fig. 6 point differs from api")
        if problems:
            raise RuntimeError("warm-up op failed: " + "; ".join(problems))
        self.speedup = geomean(b / f for b, f in oracle.values())
        if self.tracer is not None:
            self.patches = self._patches()

    def _check(self, cold, warm: list) -> list[str]:
        problems = []
        if cold.n_warm != 0:
            problems.append(f"cold sweep found {cold.n_warm} warm points")
        for again in warm:
            if again.n_simulated != 0:
                problems.append(f"warm sweep simulated {again.n_simulated}")
            if _point_rows(again) != _point_rows(cold):
                problems.append("warm results differ from cold")
            if _skips(again) != _skips(cold):
                problems.append("warm pruning differs from cold")
        if self.reference is not None:
            if _point_rows(cold) != self.reference:
                problems.append("cold results differ from the warm-up op")
            if _skips(cold) != self.reference_skips:
                problems.append("cold pruning differs from the warm-up op")
        return problems

    # ------------------------------------------------------------------

    def op(self, traced: bool) -> None:
        self.attempted += 1
        mark = self.tracer.mark() if traced else 0
        self._stats = []
        self._gets = [0, 0]
        try:
            with self.patches if traced else nullcontext():
                cold, warm, cold_span, warm_spans = self._cold_warm()
            problems = self._check(cold, warm)
        except Exception as exc:   # a failed op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
            return
        if self.tracer is None:
            self.cold.append(cold_span)
            self.warm.extend(warm_spans)
        elif traced:
            self.traced.append(cold_span)
            self.traced_ops.append((mark, self.tracer.mark(), cold_span,
                                    self._gets, self._stats))
        else:
            self.untraced.append(cold_span)

    def _patches(self) -> Patches:
        from repro.engine import pipeline
        from repro.engine.scheduler import Scheduler
        from repro.engine.store import ArtifactStore
        from repro.explore import driver
        from repro.sim.functional import FunctionalSimulator
        from repro.sim.ooo import OoOSimulator

        def count_get(record, args, result):
            self._gets[0] += 1
            self._gets[1] += result is not None

        def keep_stats(record, args, result):
            self._stats.append(result)

        def count_steps(record, args, result):
            record["args"]["steps"] = result.steps

        patches = Patches(self.tracer)
        patches.add(driver, "prune_plan", "explore.prune.plan")
        patches.add(Scheduler, "run", "engine.scheduler.run")
        patches.add(ArtifactStore, "get", "engine.store.get", count_get)
        patches.add(ArtifactStore, "put", "engine.store.put")
        patches.add(pipeline, "profile_program", "profiling.profile")
        patches.add(pipeline, "run_selection", "extinst.select")
        patches.add(pipeline, "apply_selection", "extinst.rewrite")
        patches.add(pipeline, "validate_equivalence", "extinst.validate")
        patches.add(FunctionalSimulator, "run", "sim.functional.run",
                    count_steps)
        patches.add(OoOSimulator, "simulate", "sim.ooo.simulate", keep_stats)
        return patches

    def _layer_sample(self, since: int, until: int, span, gets) -> dict:
        """Per-layer numbers of one traced op, times at reference speed."""
        totals = self.tracer.totals(since, until)
        scale = self.speed.factor(*span)

        def ms(name, key="total_ms"):
            return totals.get(name, {}).get(key, 0.0) * scale

        def count(name):
            return totals.get(name, {}).get("count", 0)

        steps = sum(s["args"].get("steps", 0)
                    for s in self.tracer.spans[since:until]
                    if s["name"] == "sim.functional.run")
        return {
            "explore.prune_ms": ms("explore.prune.plan"),
            "engine.scheduler.self_ms": ms("engine.scheduler.run", "self_ms"),
            "engine.store.put_ms": ms("engine.store.put"),
            "engine.store.puts": count("engine.store.put"),
            "engine.store.get_ms": ms("engine.store.get"),
            "engine.store.hit_ratio": gets[1] / gets[0] if gets[0] else 0.0,
            "profiling.profile_ms": ms("profiling.profile"),
            "extinst.select_ms": ms("extinst.select"),
            "extinst.rewrite_ms": ms("extinst.rewrite"),
            "extinst.validate_self_ms": ms("extinst.validate", "self_ms"),
            "sim.functional.run_ms": ms("sim.functional.run"),
            "sim.functional.kinst": steps / 1000.0,
            "sim.ooo.replay_ms": ms("sim.ooo.simulate"),
            "sim.ooo.replays": count("sim.ooo.simulate"),
        }

    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        timed_ops(seconds, self.op, self.speed,
                  alternate_traced=self.tracer is not None)

    def teardown(self) -> None:
        pass

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        cold = median(self.speed.scaled_ms(self.cold))
        return {
            "sweep_ms": (cold, "ms"),
            "sweep_points_per_s": (
                (self.n_simulated + self.n_pruned) / (cold / 1000.0), "1/s"),
            "query_ms": (median(self.speed.scaled_ms(self.warm)), "ms"),
            "peak_rss_mb": (own_peak_rss_mb(), "MB"),
        }

    def per_layer(self) -> dict[str, float]:
        samples = [self._layer_sample(since, until, span, gets)
                   for since, until, span, gets, _ in self.traced_ops]
        out = {name: median(sample[name] for sample in samples)
               for name in (samples[0] if samples else {})}
        out["explore.points_simulated"] = self.n_simulated
        out["explore.points_pruned"] = self.n_pruned
        if self.traced_ops:
            out.update(model_counts(self.traced_ops[-1][4]))
        out["model.t1000_speedup"] = self.speedup
        out["trace.ops"] = len(self.traced)
        out["trace.overhead"] = (
            median(self.speed.scaled_ms(self.traced))
            / median(self.speed.scaled_ms(self.untraced))
            if self.untraced and self.traced else 0.0)
        return out

    def record(self) -> dict:
        return {
            "spec": self.spec_json,
            "points": self.n_simulated + self.n_pruned,
            "points_simulated": self.n_simulated,
            "points_pruned": self.n_pruned,
            "samples": {"sweep_ms": len(self.cold),
                        "query_ms": len(self.warm),
                        "traced_ops": len(self.traced),
                        "untraced_ops": len(self.untraced)},
            "raw_ms": {"sweep": raw_ms(self.cold), "query": raw_ms(self.warm)},
            "scaled_ms": {"sweep": self.speed.scaled_ms(self.cold),
                          "query": self.speed.scaled_ms(self.warm)},
            "errors": self.errors[:20],
        }
