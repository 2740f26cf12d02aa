"""The greedy selection algorithm (§4).

"Our greedy selection algorithm chooses all extended instructions that
satisfy the following three criteria" — candidate (narrow ALU) ops, at
most two inputs / one output, maximal sequences. It pays no attention to
the number of PFUs or reconfiguration time; with limited PFUs it thrashes
(Figure 2, third bar), which is exactly what the selective algorithm of
§5 fixes.
"""

from __future__ import annotations

from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.extraction import ExtractionParams
from repro.extinst.selection import Selection, fold_selection, record_selection
from repro.profiling.profiler import ProgramProfile


def greedy_select(
    profile: ProgramProfile,
    params: "ExtractionParams | SelectionParams | None" = None,
    *,
    analysis: ProgramAnalysis | None = None,
) -> Selection:
    """Fold every maximal candidate sequence in the program.

    ``params`` may be the historical :class:`ExtractionParams` or a full
    :class:`~repro.extinst.params.SelectionParams` (its ``extraction``
    field is used; greedy ignores the rest by design).  ``analysis``:
    ``profile``'s, under those params (default: a fresh one).
    """
    from repro.extinst.params import SelectionParams

    if isinstance(params, SelectionParams):
        params = params.extraction
    sequences = (analysis or ProgramAnalysis(profile, params)).sequences
    # greedy accepts every maximal candidate sequence (§4)
    selection = fold_selection(
        ((seq.bid, seq.nodes, seq) for seq in sequences), "greedy", {
            "n_maximal_sequences": len(sequences),
            "sequence_lengths": sorted(len(s.nodes) for s in sequences),
        },
    )
    record_selection(profile, selection, considered=len(sequences))
    return selection
