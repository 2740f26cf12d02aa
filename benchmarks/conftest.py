"""Shared benchmark utilities.

Each benchmark regenerates one of the paper's evaluation artefacts,
prints it (visible with ``pytest -s``), writes it under
``benchmarks/results/``, and asserts the paper's qualitative *shape*
(who wins, by roughly what factor) — absolute cycle counts depend on the
synthetic substrate and are recorded, not asserted.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.engine import ExperimentEngine, default_engine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def engine() -> ExperimentEngine:
    """One experiment engine for the whole benchmark session: the
    process-wide :func:`~repro.engine.default_engine`.

    It honours ``T1000_JOBS`` / ``T1000_CACHE_DIR`` / ``T1000_NO_CACHE``
    so benchmark runs can be parallelised and reuse a warm persistent
    cache; by default it is serial and storeless, sharing the
    process-wide pipeline so the figure drivers reuse each other's
    artefacts.
    """
    return default_engine()


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print(f"\n{text}")
