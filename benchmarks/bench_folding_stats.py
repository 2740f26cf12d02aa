"""Folding statistics: how much of each benchmark's dynamic instruction
stream the selection algorithms capture.

Not a numbered paper artefact, but the quantity behind Figures 2/6: the
speedup ceiling is set by the fraction of dynamic instructions folded
into extended instructions and the cycles they save.
"""

from conftest import write_result

from repro.extinst import SelectionParams
from repro.extinst.validate import dynamic_instruction_reduction
from repro.harness.runner import get_lab
from repro.utils.tables import format_table
from repro.workloads import WORKLOAD_NAMES


def test_dynamic_folding_fractions(benchmark):
    def sweep():
        rows = []
        for name in WORKLOAD_NAMES:
            lab = get_lab(name)
            greedy_prog, greedy_defs = lab.rewritten(SelectionParams("greedy"))
            sel_prog, sel_defs = lab.rewritten(SelectionParams("selective", 2))
            greedy_cut = dynamic_instruction_reduction(
                lab.program, greedy_prog, greedy_defs
            )
            sel_cut = dynamic_instruction_reduction(
                lab.program, sel_prog, sel_defs
            )
            rows.append([
                name,
                lab.profile.dynamic_instructions,
                f"{greedy_cut:.1%}",
                f"{sel_cut:.1%}",
            ])
        return rows

    rows = benchmark(sweep)
    write_result(
        "folding_stats.txt",
        "Dynamic-instruction reduction from folding\n"
        + format_table(
            ["workload", "dyn. instrs", "greedy cut", "selective(2) cut"],
            rows,
        ),
    )
    for name, _, greedy_cut, sel_cut in rows:
        greedy_val = float(greedy_cut.rstrip("%"))
        sel_val = float(sel_cut.rstrip("%"))
        # folding always removes instructions, never adds
        assert greedy_val >= 0 and sel_val >= 0
        # greedy folds at least as much as the budgeted selective pass
        assert greedy_val >= sel_val - 0.2, name
    # media kernels lose a large fraction of their dynamic stream
    best = max(float(r[2].rstrip("%")) for r in rows)
    assert best > 15
