"""Watching a PFU work: pipeline timelines before and after folding.

Records a window of the gsm_encode preemphasis loop through the
out-of-order pipeline twice — on the plain superscalar, and on the T1000
after the selective algorithm folded the multiply-by-55 shift-add chain
into one `ext` — and prints both Gantt charts side by side with the
per-stage delay summary.

Run with: ``python examples/pipeline_visualization.py [workload]``
"""

import sys

from repro.extinst import SelectionParams
from repro.harness.runner import WorkloadLab
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator
from repro.sim.ooo.timeline import render_timeline, timeline_summary


def record(program, defs, machine, skip, count):
    trace = FunctionalSimulator(program, ext_defs=defs).run(
        collect_trace=True
    ).trace
    skip = min(skip, max(0, len(trace) - count))
    stats = OoOSimulator(program, machine, ext_defs=defs).simulate(
        trace, record_window=(skip, skip + count)
    )
    return stats


def show(title, program, stats):
    print(f"== {title} ==")
    print(render_timeline(stats.timeline, program))
    for stage, value in timeline_summary(stats.timeline).items():
        print(f"   avg {stage}: {value:.2f} cycles")
    print(f"   total: {stats.cycles} cycles, IPC {stats.ipc:.2f}\n")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gsm_encode"
    lab = WorkloadLab(name, scale=1)

    baseline = record(lab.program, None, MachineConfig(), skip=600, count=18)
    show(f"{name} — baseline superscalar", lab.program, baseline)

    rewritten, defs = lab.rewritten(SelectionParams("selective", 2))
    # centre the window on ext executions (in steady state, not cold-start)
    trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
        collect_trace=True
    ).trace
    ext_positions = [
        k for k, si in enumerate(trace.indices)
        if rewritten.text[si].is_ext
    ]
    skip = ext_positions[len(ext_positions) // 2] - 6 if ext_positions else 600
    t1000 = record(
        rewritten, defs, MachineConfig(n_pfus=2, reconfig_latency=10),
        skip=max(0, skip), count=18,
    )
    show(f"{name} — T1000 (selective, 2 PFUs)", rewritten, t1000)

    print(f"speedup: {baseline.cycles / t1000.cycles:.3f}x — look for the "
          "'ext' rows replacing whole dependent chains above.")


if __name__ == "__main__":
    main()
