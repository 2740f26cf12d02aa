"""Golden store keys: every artefact key the pipeline and the serve
worker hand to the store, pinned digest by digest.

A recording store double answers each ``get`` with a stand-in value, so
no stage computes anything: the tests see only which keys are asked
for.  The digests in ``data/artifact_keys.json`` were captured before
the key functions existed; if one changes, every warm store recomputes
that artefact.  A ``fingerprint`` get is answered with the workload's
real program fingerprint, which every other key carries; its own digest
follows the build-source digest, so it changes with every edit to a
build source and is not pinned.
"""

import itertools
import json
import pathlib

import pytest

from repro.engine import ArtifactPipeline, Telemetry, program_fingerprint
from repro.engine.pipeline import BASELINE_MACHINE, requested_selection
from repro.extinst import SelectionParams
from repro.extinst.registry import BASELINE, GREEDY, ISEGEN, SELECTIVE
from repro.serve import protocol
from repro.serve.ops import OpRunner
from repro.sim.ooo import MachineConfig, SimStats
from repro.workloads import build_workload
from repro.workloads.registry import WORKLOAD_NAMES

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "artifact_keys.json")
    .read_text()
)

MACHINES = (BASELINE_MACHINE, MachineConfig(ruu_size=32))


class RecordingStore:
    """Store double: records every key asked for and answers it with a
    stand-in, so no artefact is ever computed or stored."""

    def __init__(self):
        self.telemetry = Telemetry()
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        if key.kind == "fingerprint":
            return program_fingerprint(
                build_workload(key.workload, key.scale).program
            )
        return SimStats() if key.kind == "timing" else ("stand-in", key.kind)

    def put(self, key, value):
        raise AssertionError(f"nothing computes, yet {key.describe()} was put")

    def record_counter(self, name, n=1):
        pass

    def flush_counters(self):
        pass


def recorded(store):
    """``describe -> digest`` of the recorded keys, each asked once,
    leaving out the unpinned ``fingerprint`` keys."""
    assert len(store.keys) == len(set(store.keys)), "a key was asked twice"
    return {key.describe(): key.digest for key in store.keys
            if key.kind != "fingerprint"}


def grid_keys(workload):
    store = RecordingStore()
    pipeline = ArtifactPipeline(store=store)
    pipeline.profile(workload, 1)
    grid = itertools.product(
        (BASELINE, GREEDY, SELECTIVE, ISEGEN), (None, 2), (True, False),
        MACHINES,
    )
    for algorithm, select_pfus, validate, machine in grid:
        params = requested_selection(algorithm, select_pfus)
        if params is None:
            pipeline.trace(workload, 1)
        else:
            pipeline.selection(workload, 1, params)
            pipeline.rewrite(workload, 1, params, validate)
            pipeline.trace(workload, 1, params, validate)
        pipeline.timing_for(workload, 1, params, validate, machine)
    fingerprints = [key for key in store.keys if key.kind == "fingerprint"]
    assert [(key.workload, key.scale) for key in fingerprints] == [
        (workload, 1)
    ]
    return recorded(store)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_pipeline_grid_keys_pinned(workload):
    assert grid_keys(workload) == GOLDEN["pipeline"][workload]


def test_served_keys_pinned(gsm_encode_lab):
    program = gsm_encode_lab.program
    params = SelectionParams(algorithm=SELECTIVE, select_pfus=2)
    selection = gsm_encode_lab.selection(params)
    rewritten, defs = gsm_encode_lab.rewritten(params)
    store = RecordingStore()
    runner = OpRunner()
    runner.pipeline = ArtifactPipeline(store=store)

    def run(op, **fields):
        reply = runner.run_job({"op": op, "items": [
            {k: protocol.encode_value(v) for k, v in fields.items()}
        ]})
        assert all(item["ok"] for item in reply["results"]), reply

    run("profile", program=program)
    for validate in (True, False):
        run("rewrite", program=program, selection=selection,
            validate=validate)
    for prog, ext_defs in ((program, None), (rewritten, defs)):
        run("simulate", program=prog, ext_defs=ext_defs,
            machine=MachineConfig(n_pfus=2))
    assert recorded(store) == GOLDEN["serve"]
