"""Golden selections: every built-in selector on every workload, pinned.

``data/selection_digests.json`` maps ``workload/algorithm/budget`` to
the sha256 of the selection's canonical file form
(:func:`~repro.extinst.serialize.selection_dumps`, ``meta`` included)
for all 8 workloads x {greedy, selective, isegen} x budgets
{1, 2, 4, unlimited} at scale 1.  Tie-breaks in the selectors follow
containment-matrix key insertion order and ``repr`` ranking, so any
change to how the program analysis is enumerated or shared shows up
here as a changed digest.

Each digest is recomputed twice: through one
:class:`~repro.engine.pipeline.ArtifactPipeline` per workload (whose
selections share one program analysis), and through the public
``*_select(profile, ...)`` functions (each builds its own).

Regenerate with ``PYTHONPATH=src python tests/test_selection_digests.py``
— only when a selection is meant to change.
"""

import hashlib
import json
import pathlib

import pytest

from repro.engine import ArtifactPipeline
from repro.extinst import (
    SelectionParams,
    greedy_select,
    isegen_select,
    selective_select,
)
from repro.extinst.registry import GREEDY, ISEGEN, SELECTIVE
from repro.extinst.serialize import selection_dumps
from repro.workloads.registry import WORKLOAD_NAMES

DATA = pathlib.Path(__file__).parent / "data" / "selection_digests.json"
ALGORITHMS = (GREEDY, SELECTIVE, ISEGEN)
BUDGETS = (1, 2, 4, None)
PUBLIC = {
    GREEDY: lambda profile, budget: greedy_select(profile),
    SELECTIVE: selective_select,
    ISEGEN: isegen_select,
}


def entry(workload, algorithm, budget):
    return f"{workload}/{algorithm}/{'unlimited' if budget is None else budget}"


def digest(selection):
    return hashlib.sha256(selection_dumps(selection).encode()).hexdigest()


def pipeline_digests(workload):
    pipeline = ArtifactPipeline()
    return {
        entry(workload, algorithm, budget): digest(pipeline.selection(
            workload, 1,
            SelectionParams(algorithm=algorithm, select_pfus=budget),
        ))
        for algorithm in ALGORITHMS for budget in BUDGETS
    }


def public_digests(workload):
    profile = ArtifactPipeline().profile(workload, 1)
    return {
        entry(workload, algorithm, budget):
            digest(PUBLIC[algorithm](profile, budget))
        for algorithm in ALGORITHMS for budget in BUDGETS
    }


def golden(workload):
    pinned = json.loads(DATA.read_text())
    return {k: v for k, v in pinned.items()
            if k.startswith(f"{workload}/")}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_pipeline_selections_pinned(workload):
    assert pipeline_digests(workload) == golden(workload)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_public_selectors_pinned(workload):
    assert public_digests(workload) == golden(workload)


def test_every_entry_pinned():
    pinned = json.loads(DATA.read_text())
    assert len(pinned) == len(WORKLOAD_NAMES) * len(ALGORITHMS) * len(BUDGETS)


if __name__ == "__main__":
    out = {}
    for name in WORKLOAD_NAMES:
        out.update(public_digests(name))
    DATA.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {DATA}")
