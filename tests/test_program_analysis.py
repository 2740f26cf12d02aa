"""The shared program analysis: every selection of a program derives
liveness, DFGs, maximal sequences and subsequences once.

Structural checks only — call counts, no timing: a cold sweep over
several algorithms and budgets analyses each program once, and a warm
re-run (every selection read back from the store) analyses nothing.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.engine import ArtifactPipeline, EngineConfig, ExperimentEngine
from repro.explore import SweepSpec, run_sweep
from repro.extinst import SelectionParams, run_selection
from repro.extinst.analysis import ProgramAnalysis
from repro.extinst.extraction import (
    ExtractionParams,
    extract_candidate_sequences,
)
from repro.extinst.matrix import enumerate_subsequences
from repro.extinst.registry import GREEDY, ISEGEN, SELECTIVE
from repro.program.dfg import build_all_dfgs
from repro.program.liveness import compute_liveness

ANALYSES = (extract_candidate_sequences, compute_liveness, build_all_dfgs,
            enumerate_subsequences)


@pytest.fixture
def calls(monkeypatch):
    """Counts, per analysis function, the calls made through any
    ``repro`` module that binds it, plus one ``"ProgramAnalysis"`` count
    per analysis built; ``enumerated`` counts enumerations per
    (program, maximal sequence)."""
    counts: Counter = Counter()
    counts.enumerated = Counter()

    def spy(func):
        def wrapper(*args, **kwargs):
            counts[func.__name__] += 1
            if func is enumerate_subsequences:
                program, _, seq = args[:3]
                counts.enumerated[(program.name, seq.nodes)] += 1
            return func(*args, **kwargs)
        return wrapper

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for func in ANALYSES:
            if getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, spy(func))
    init = ProgramAnalysis.__init__

    def counted_init(self, *args, **kwargs):
        counts["ProgramAnalysis"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProgramAnalysis, "__init__", counted_init)
    return counts


def sweep(tmp_path):
    spec = SweepSpec.from_json({
        "name": "analysis-once",
        "workloads": ["gsm_encode"],
        "axes": {"algorithm": [SELECTIVE, ISEGEN], "n_pfus": [2, None]},
    })
    engine = ExperimentEngine(
        EngineConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
    )
    return run_sweep(spec, engine)


def test_cold_sweep_analyses_each_program_once(tmp_path, calls):
    outcome = sweep(tmp_path)
    assert outcome.n_simulated > 0
    assert calls["ProgramAnalysis"] == 1
    assert calls["extract_candidate_sequences"] == 1
    assert calls["compute_liveness"] == 1
    assert calls["build_all_dfgs"] == 1
    assert calls.enumerated
    assert max(calls.enumerated.values()) == 1


def test_warm_sweep_builds_no_analysis(tmp_path, calls):
    cold = sweep(tmp_path)
    calls.clear()
    calls.enumerated.clear()
    warm = sweep(tmp_path)
    assert warm.n_simulated == 0 and warm.n_warm == cold.n_simulated
    assert not calls and not calls.enumerated


def test_pipeline_memoizes_one_analysis_per_extraction(calls):
    pipeline = ArtifactPipeline()
    profile = pipeline.profile("gsm_encode", 1)
    shared = pipeline.analysis("gsm_encode", 1, ExtractionParams())
    for algorithm in (GREEDY, SELECTIVE, ISEGEN):
        for budget in (1, None):
            pipeline.selection("gsm_encode", 1, SelectionParams(
                algorithm=algorithm, select_pfus=budget))
    assert calls["ProgramAnalysis"] == 1
    assert calls["extract_candidate_sequences"] == 1
    assert shared.profile is profile
    narrow = ExtractionParams(max_nodes=4)
    other = pipeline.analysis("gsm_encode", 1, narrow)
    assert other is not shared and other.params == narrow


def test_public_selectors_build_a_fresh_analysis(calls):
    profile = ArtifactPipeline().profile("gsm_encode", 1)
    for algorithm in (GREEDY, SELECTIVE, ISEGEN):
        run_selection(profile, SelectionParams(algorithm=algorithm,
                                               select_pfus=2))
    # one analysis per call; isegen's selective seed shares its own
    assert calls["ProgramAnalysis"] == 3
    assert calls["extract_candidate_sequences"] == 3


def test_analysis_fills_lazily(calls):
    profile = ArtifactPipeline().profile("gsm_encode", 1)
    analysis = ProgramAnalysis(profile)
    assert not calls["compute_liveness"]
    seq = max(analysis.sequences, key=lambda s: len(s.nodes))
    assert calls["build_all_dfgs"] == 1 and not calls.enumerated
    embeddings = analysis.embeddings(seq)
    assert analysis.embeddings(seq) is embeddings
    assert analysis.subsequences(seq) is analysis.subsequences(seq)
    assert calls.enumerated == {(profile.program.name, seq.nodes): 1}
    order = [(-len(o.nodes), o.nodes) for o in embeddings]
    assert order == sorted(order)
