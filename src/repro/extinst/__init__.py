"""Extended-instruction machinery — the paper's primary contribution.

Pipeline:

1. :mod:`repro.profiling` profiles the program (execution counts, operand
   bitwidths) — the paper's ``sim_profile``-based tool.
2. :mod:`repro.extinst.extraction` mines *maximal candidate sequences*
   from basic-block dataflow graphs under the §4 constraints: candidate
   (narrow ALU) operations only, at most two register inputs, one output,
   intermediate values dead outside the sequence.
3. A selector registered in :mod:`repro.extinst.registry` picks which
   sequences become PFU configurations:
   :func:`repro.extinst.greedy.greedy_select` (§4: take everything),
   :func:`repro.extinst.selective.selective_select` (§5: the gain
   threshold + per-loop subsequence-matrix algorithm), or
   :func:`repro.extinst.isegen.isegen_select` (Kernighan-Lin iterative
   improvement over the selective seed).  Every entry point dispatches
   through the registry, so new selectors plug in without touching the
   callers.
4. :mod:`repro.extinst.rewriter` rewrites the program, replacing each
   chosen occurrence with a single ``ext`` instruction, and emits the
   ``conf -> ExtInstDef`` table both simulators consume.
5. :mod:`repro.extinst.validate` checks semantic equivalence of the
   rewritten program against the original.
"""

from repro.extinst.extdef import ExtInstDef, ExtOp, OperandRef
from repro.extinst.extraction import (
    CandidateSequence,
    ExtractionParams,
    extract_candidate_sequences,
)
from repro.extinst.estimate import CyclesSavedEstimate, estimate_cycles_saved
from repro.extinst.greedy import greedy_select
from repro.extinst.isegen import isegen_select
from repro.extinst.params import (
    SelectionParams,
    run_selection,
)
from repro.extinst.registry import (
    BASELINE,
    GREEDY,
    ISEGEN,
    SELECTIVE,
    SelectorSpec,
    Tunable,
    get_selector,
    register_selector,
    registered_algorithms,
    selector_specs,
)
from repro.extinst.rewriter import apply_selection
from repro.extinst.selection import RewriteSite, Selection
from repro.extinst.selective import SelectiveParams, selective_select
from repro.extinst.validate import validate_equivalence

__all__ = [
    "BASELINE",
    "GREEDY",
    "ISEGEN",
    "SELECTIVE",
    "SelectorSpec",
    "Tunable",
    "CyclesSavedEstimate",
    "estimate_cycles_saved",
    "get_selector",
    "isegen_select",
    "register_selector",
    "registered_algorithms",
    "selector_specs",
    "ExtInstDef",
    "ExtOp",
    "OperandRef",
    "CandidateSequence",
    "ExtractionParams",
    "extract_candidate_sequences",
    "greedy_select",
    "selective_select",
    "run_selection",
    "SelectionParams",
    "SelectiveParams",
    "Selection",
    "RewriteSite",
    "apply_selection",
    "validate_equivalence",
]
