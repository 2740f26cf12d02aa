"""The greedy selection algorithm (§4).

"Our greedy selection algorithm chooses all extended instructions that
satisfy the following three criteria" — candidate (narrow ALU) ops, at
most two inputs / one output, maximal sequences. It pays no attention to
the number of PFUs or reconfiguration time; with limited PFUs it thrashes
(Figure 2, third bar), which is exactly what the selective algorithm of
§5 fixes.
"""

from __future__ import annotations

from repro.extinst.extraction import (
    ExtractionParams,
    extract_candidate_sequences,
)
from repro.extinst.selection import ConfAllocator, RewriteSite, Selection
from repro.obs import get_recorder
from repro.profiling.profiler import ProgramProfile


def greedy_select(
    profile: ProgramProfile,
    params: "ExtractionParams | SelectionParams | None" = None,
) -> Selection:
    """Fold every maximal candidate sequence in the program.

    ``params`` may be the historical :class:`ExtractionParams` or a full
    :class:`~repro.extinst.params.SelectionParams` (its ``extraction``
    field is used; greedy ignores the rest by design).
    """
    from repro.extinst.params import SelectionParams

    if isinstance(params, SelectionParams):
        params = params.extraction
    sequences = extract_candidate_sequences(profile, params)
    allocator = ConfAllocator()
    sites: list[RewriteSite] = []
    for seq in sequences:
        conf = allocator.conf_for(seq.extdef)
        sites.append(
            RewriteSite(
                bid=seq.bid,
                nodes=seq.nodes,
                conf=conf,
                input_regs=seq.input_regs,
                output_reg=seq.output_reg,
            )
        )
    selection = Selection(
        ext_defs=allocator.defs,
        sites=sites,
        algorithm="greedy",
        meta={
            "n_maximal_sequences": len(sequences),
            "sequence_lengths": sorted(len(s.nodes) for s in sequences),
        },
    )
    rec = get_recorder()
    if rec.enabled:
        prog = profile.program.name
        # greedy accepts every maximal candidate sequence (§4)
        rec.counter(
            "selection.candidates.considered",
            algorithm="greedy", program=prog,
        ).inc(len(sequences))
        rec.counter(
            "selection.candidates.accepted",
            algorithm="greedy", program=prog,
        ).inc(len(sites))
        rec.event(
            "selection.done", algorithm="greedy", program=prog,
            configs=selection.n_configs, sites=len(sites),
        )
    return selection
