"""Pickling regression (the serve worker protocol depends on it):
``Program`` and ``DynTrace`` instances whose derived underscore caches
are populated must pickle cleanly, ship to another process, and
resimulate to byte-identical :class:`SimStats`."""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.engine.store import stats_to_json
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import MachineConfig, OoOSimulator

SOURCE = """
.text
main:
    li $s0, 150
    li $t1, 5
loop:
    sll  $t2, $t1, 3
    addu $t2, $t2, $t1
    andi $t2, $t2, 1023
    xor  $t3, $t2, $t1
    andi $t1, $t3, 255
    addiu $t1, $t1, 1
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""

# Run in a fresh interpreter: unpickle, resimulate, print canonical JSON.
_RESIM_SCRIPT = """
import json, pickle, sys
from repro.engine.store import stats_to_json
from repro.sim.ooo import OoOSimulator

with open(sys.argv[1], "rb") as fh:
    payload = pickle.load(fh)
stats = OoOSimulator(
    payload["program"], payload["machine"], ext_defs=payload["ext_defs"]
).simulate(payload["trace"])
print(json.dumps(stats_to_json(stats), sort_keys=True))
"""


def _resimulate_in_subprocess(tmp_path, program, trace, machine, ext_defs):
    blob = tmp_path / "payload.pkl"
    blob.write_bytes(pickle.dumps({
        "program": program, "trace": trace,
        "machine": machine, "ext_defs": ext_defs,
    }, protocol=pickle.HIGHEST_PROTOCOL))
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", _RESIM_SCRIPT, str(blob)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    return out.stdout.strip()


@pytest.fixture(scope="module")
def toolchain():
    """Program/trace pair with every derived cache deliberately warmed:
    the native code table on the program, fast-path replay state on the
    trace (both are process-local and must not leak into pickles)."""
    program = api.compile(source=SOURCE, name="pickle_rt")
    result = FunctionalSimulator(program).run(collect_trace=True)
    machine = MachineConfig(n_pfus=2, reconfig_latency=10)
    stats = OoOSimulator(program, machine).simulate(result.trace)
    return program, result.trace, machine, stats


class TestPickleRoundTrip:
    def test_underscore_state_not_pickled(self, toolchain):
        program, trace, _, _ = toolchain
        for obj in (program, trace):
            state = obj.__getstate__()
            assert not any(k.startswith("_") for k in state), \
                f"{type(obj).__name__} leaks derived state into pickles"

    def test_local_round_trip_is_byte_identical(self, toolchain):
        program, trace, machine, stats = toolchain
        program2, trace2 = pickle.loads(pickle.dumps((program, trace)))
        stats2 = OoOSimulator(program2, machine).simulate(trace2)
        assert json.dumps(stats_to_json(stats2), sort_keys=True) == \
            json.dumps(stats_to_json(stats), sort_keys=True)

    def test_subprocess_resimulation_is_byte_identical(
        self, toolchain, tmp_path
    ):
        """The regression this file exists for: a warmed Program+DynTrace
        pickled into another interpreter must replay to the same stats,
        byte for byte."""
        program, trace, machine, stats = toolchain
        remote = _resimulate_in_subprocess(
            tmp_path, program, trace, machine, None
        )
        assert remote == json.dumps(stats_to_json(stats), sort_keys=True)

    def test_rewritten_program_with_ext_defs_round_trips(
        self, toolchain, tmp_path
    ):
        program, _, machine, _ = toolchain
        profile = api.profile(program=program)
        selection = api.select(profile=profile, algorithm="greedy")
        rewritten, defs = api.rewrite(program=program, selection=selection)
        result = FunctionalSimulator(rewritten, ext_defs=defs).run(
            collect_trace=True)
        stats = OoOSimulator(rewritten, machine, ext_defs=defs).simulate(
            result.trace
        )
        assert stats.ext_instructions > 0
        remote = _resimulate_in_subprocess(
            tmp_path, rewritten, result.trace, machine, defs
        )
        assert remote == json.dumps(stats_to_json(stats), sort_keys=True)
