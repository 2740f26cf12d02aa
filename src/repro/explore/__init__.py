"""Design-space exploration: declarative sweeps, pruning, Pareto fronts.

The subsystem that answers the paper's central question — *which T1000
configuration wins?* — at scale::

    from repro.explore import SweepSpec, run_sweep, frontier_table

    spec = SweepSpec.from_json({
        "name": "pfu-vs-latency",
        "workloads": ["gsm_encode", "epic"],
        "axes": {
            "algorithm": ["selective"],
            "n_pfus": [1, 2, 4, None],
            "reconfig_latency": [0, 10, 100, 500],
        },
    })
    outcome = run_sweep(spec)
    headers, rows = frontier_table(outcome.results)

Modules: :mod:`~repro.explore.spec` (declarative sweep specs expanding
into content-addressed points), :mod:`~repro.explore.prune`
(dominated-point pruning on provably monotone axes, every skip logged),
:mod:`~repro.explore.driver` (cache-aware execution through the engine
or a :mod:`repro.serve` fleet, resumable from the store),
:mod:`~repro.explore.pareto` (speedup-vs-LUT-area frontiers, best-per-
workload tables, JSON/CSV export), :mod:`~repro.explore.state`
(persistent sweep progress under the cache dir).  CLI:
``t1000 explore run|status|frontier|resume``.
"""

from repro.explore.pareto import (
    ParetoReport,
    PointResult,
    best_per_workload,
    best_table,
    frontier,
    frontier_pairs,
    frontier_table,
)
from repro.explore.prune import PrunePlan, SkipRecord, dominates, group_key
from repro.explore.prune import plan as prune_plan
from repro.explore.spec import SweepPoint, SweepSpec
from repro.explore.state import SweepState, state_path
from repro.explore.driver import SweepOutcome, run_sweep, warm_point_ids

__all__ = [
    "ParetoReport", "PointResult", "PrunePlan", "SkipRecord",
    "SweepOutcome", "SweepPoint", "SweepSpec", "SweepState",
    "best_per_workload", "best_table", "dominates", "frontier",
    "frontier_pairs", "frontier_table", "group_key", "prune_plan",
    "run_sweep", "state_path", "warm_point_ids",
]
