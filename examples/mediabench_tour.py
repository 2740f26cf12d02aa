"""Tour of the eight MediaBench-like workloads.

For each workload: execute it functionally, verify its outputs against
the pure-Python reference implementation, and report its dynamic profile
and selective-algorithm speedup on the default 2-PFU T1000.

Run with: ``python examples/mediabench_tour.py``
"""

from repro.extinst import SelectionParams
from repro.harness.runner import WorkloadLab
from repro.sim import run_program
from repro.utils.tables import format_table
from repro.workloads import WORKLOAD_NAMES, build_workload


def main() -> None:
    rows = []
    for name in WORKLOAD_NAMES:
        workload = build_workload(name, scale=1)
        result = run_program(workload.program)
        workload.verify(result)   # bit-exact against the Python reference

        lab = WorkloadLab(name, scale=1)
        experiment = lab.run("selective", 2, 10)
        selection = lab.selection(SelectionParams("selective", 2))
        rows.append([
            name,
            result.steps,
            len(workload.program.text),
            selection.n_configs,
            experiment.speedup,
        ])
        print(f"verified {name}: {workload.description}")

    print()
    print(format_table(
        ["workload", "dyn. instrs", "static instrs",
         "configs (sel., 2 PFUs)", "speedup"],
        rows,
    ))


if __name__ == "__main__":
    main()
