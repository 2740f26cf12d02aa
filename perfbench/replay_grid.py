"""Workload ``replay_grid``: one long rewritten trace over a machine grid.

Set-up builds ``unepic`` at scale 2, rewritten by a selective 2-PFU
selection, and records its dynamic trace once.  Each op replays that
trace through ``repro.sim.ooo.simulate_many`` over a fixed machine grid
(one alternative ``dl1`` geometry first, so the shared cache prepass is
rebuilt twice per op), then answers one single-config query at the
paper's Fig. 6 point on a fresh ``DynTrace`` over the same columns, so
the query pays the per-trace prepass as a one-off request would.
Nothing is compiled, selected, stored or served.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import replace

from benchlib import (
    HostSpeed, Patches, Tracer, canonical, median, model_counts,
    own_peak_rss_mb, raw_ms, timed_ops,
)

KERNEL, SCALE = "unepic", 2
RUU_SIZES = (32, 64)
PFU_COUNTS = (2, None)
LATENCIES = (10, 500)
ALT_DL1_NSETS = 256        # the default dl1 has 128 sets


def _describe(machine) -> dict:
    return {"ruu_size": machine.ruu_size, "n_pfus": machine.n_pfus,
            "reconfig_latency": machine.reconfig_latency,
            "dl1_nsets": machine.hierarchy.dl1.nsets}


class ReplayGrid:
    name = "replay_grid"

    def __init__(self, seed: int, work: str, tracer: Tracer | None,
                 speed: HostSpeed):
        from repro.sim.ooo import MachineConfig

        main = [MachineConfig(ruu_size=r, n_pfus=n, reconfig_latency=lat)
                for r in RUU_SIZES for n in PFU_COUNTS for lat in LATENCIES]
        random.Random(seed).shuffle(main)
        base = MachineConfig()
        alt = replace(base, hierarchy=replace(
            base.hierarchy,
            dl1=replace(base.hierarchy.dl1, nsets=ALT_DL1_NSETS)))
        self.configs = [alt] + main
        self.query = MachineConfig(ruu_size=64, n_pfus=2, reconfig_latency=10)
        self.tracer = tracer
        self.speed = speed
        # (start, end) intervals of the timed grids and queries
        self.grid: list[tuple[float, float]] = []
        self.queries: list[tuple[float, float]] = []
        self.traced: list[tuple[float, float]] = []
        self.untraced: list[tuple[float, float]] = []
        self.traced_ops: list[tuple] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def setup(self) -> None:
        from repro import api
        from repro.sim.functional import FunctionalSimulator
        from repro.sim.ooo import MachineConfig, OoOSimulator

        program = api.compile(workload=KERNEL, scale=SCALE)
        profile = api.profile(program=program)
        selection = api.select(profile=profile, algorithm="selective", pfus=2)
        self.program, self.defs = api.rewrite(program=program,
                                              selection=selection)
        self.trace = FunctionalSimulator(
            self.program, ext_defs=self.defs).run(collect_trace=True).trace
        # The oracle: each config on its own simulator, once.
        self.reference = [
            canonical(OoOSimulator(self.program, cfg,
                                   ext_defs=self.defs).simulate(self.trace))
            for cfg in self.configs
        ]
        self.query_reference = canonical(OoOSimulator(
            self.program, self.query, ext_defs=self.defs).simulate(self.trace))
        if self.tracer is not None:
            base_trace = FunctionalSimulator(program).run(
                collect_trace=True).trace
            base = OoOSimulator(program, MachineConfig()).simulate(base_trace)
            fast = json.loads(self.query_reference)["cycles"]
            self.speedup = base.cycles / fast
            self.patches = Patches(self.tracer).add(
                OoOSimulator, "simulate", "sim.ooo.simulate", self._tag)
        self.op(False)                              # the warm-up op
        if self.failed:
            raise RuntimeError("warm-up op failed: " + "; ".join(self.errors))
        self.attempted = 0
        for intervals in (self.grid, self.queries, self.untraced):
            intervals.clear()

    @staticmethod
    def _tag(record, args, result) -> None:
        record["args"].update(n_pfus=args[0].config.n_pfus,
                              instructions=result.instructions)

    # ------------------------------------------------------------------

    def op(self, traced: bool) -> None:
        from repro.sim.ooo import OoOSimulator, simulate_many
        from repro.sim.trace import DynTrace

        self.attempted += 1
        mark = self.tracer.mark() if traced else 0
        fresh = DynTrace(indices=self.trace.indices, addrs=self.trace.addrs)
        try:
            with self.patches if traced else nullcontext():
                span = (self.tracer.span("sim.ooo.simulate_many")
                        if traced else nullcontext())
                start = time.perf_counter()
                with span:
                    stats = simulate_many(self.program, self.trace,
                                          self.configs, ext_defs=self.defs)
                mid = time.perf_counter()
                query = OoOSimulator(self.program, self.query,
                                     ext_defs=self.defs).simulate(fresh)
                end = time.perf_counter()
            problems = [
                f"config {i} ({_describe(cfg)}) diverged"
                for i, (cfg, got, want) in enumerate(
                    zip(self.configs, stats, self.reference))
                if canonical(got) != want
            ]
            if len(stats) != len(self.reference):
                problems.append(f"{len(stats)} results for "
                                f"{len(self.reference)} configs")
            if canonical(query) != self.query_reference:
                problems.append("query diverged")
        except Exception as exc:   # a failed op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)
            return
        if self.tracer is None:
            self.grid.append((start, mid))
            self.queries.append((mid, end))
        elif traced:
            self.traced.append((start, mid))
            self.traced_ops.append((mark, self.tracer.mark(), (start, mid),
                                    stats))
        else:
            self.untraced.append((start, mid))

    def _layer_sample(self, since: int, until: int, span) -> dict:
        """Per-layer numbers of one traced op, times at reference speed."""
        scale = self.speed.factor(*span)
        spans = [s for s in self.tracer.spans[since:until]
                 if s["name"] == "sim.ooo.simulate"]
        grid_span = next(s["id"] for s in self.tracer.spans[since:until]
                         if s["name"] == "sim.ooo.simulate_many")
        halves: dict[str, list[float]] = {"pfu2": [], "unlimited": []}
        for s in spans:
            if s["parent"] == grid_span:
                half = "unlimited" if s["args"]["n_pfus"] is None else "pfu2"
                halves[half].append((s["end"] - s["start"]) * 1e9 * scale
                                    / s["args"]["instructions"])
        return {
            "sim.ooo.replay_ms": scale * sum(
                (s["end"] - s["start"]) * 1000.0 for s in spans),
            "sim.ooo.replays": len(spans),
            "sim.ooo.ns_per_inst.pfu2": median(halves["pfu2"]),
            "sim.ooo.ns_per_inst.unlimited": median(halves["unlimited"]),
        }

    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        timed_ops(seconds, self.op, self.speed,
                  alternate_traced=self.tracer is not None)

    def teardown(self) -> None:
        pass

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        grid = median(self.speed.scaled_ms(self.grid))
        return {
            "sweep_ms": (grid, "ms"),
            "sweep_points_per_s": (len(self.configs) / (grid / 1000.0), "1/s"),
            "query_ms": (median(self.speed.scaled_ms(self.queries)), "ms"),
            "peak_rss_mb": (own_peak_rss_mb(), "MB"),
        }

    def per_layer(self) -> dict[str, float]:
        samples = [self._layer_sample(since, until, span)
                   for since, until, span, _ in self.traced_ops]
        out = {name: median(sample[name] for sample in samples)
               for name in (samples[0] if samples else {})}
        traced = median(self.speed.scaled_ms(self.traced))
        out["sim.ooo.kinst_per_s"] = (
            len(self.trace) * len(self.configs) / traced if traced else 0.0)
        if self.traced_ops:
            out.update(model_counts(self.traced_ops[-1][3]))
        out["model.t1000_speedup"] = self.speedup
        out["trace.ops"] = len(self.traced)
        out["trace.overhead"] = (
            traced / median(self.speed.scaled_ms(self.untraced))
            if self.untraced and self.traced else 0.0)
        return out

    def record(self) -> dict:
        return {
            "kernel": f"{KERNEL}@{SCALE}",
            "trace_instructions": len(self.trace),
            "grid": [_describe(cfg) for cfg in self.configs],
            "query": _describe(self.query),
            "samples": {"sweep_ms": len(self.grid),
                        "query_ms": len(self.queries),
                        "traced_ops": len(self.traced),
                        "untraced_ops": len(self.untraced)},
            "raw_ms": {"sweep": raw_ms(self.grid),
                       "query": raw_ms(self.queries)},
            "scaled_ms": {"sweep": self.speed.scaled_ms(self.grid),
                          "query": self.speed.scaled_ms(self.queries)},
            "errors": self.errors[:20],
        }
