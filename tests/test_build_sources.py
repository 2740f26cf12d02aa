"""The stored program fingerprint and the build sources behind its key.

``ArtifactPipeline.fingerprint`` reads a workload's program fingerprint
from the store, keyed by ``build_source_digest`` instead of by building
the program.  That is sound only while the digest covers everything a
build runs: these tests pin the stored value to a real build and fail
when a build starts loading a module outside ``BUILD_SOURCES``.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import (
    ArtifactPipeline, ArtifactStore, build_source_digest, fingerprint_key,
    program_fingerprint,
)
from repro.engine.store import BUILD_SOURCES
from repro.workloads import build_workload
from repro.workloads.registry import WORKLOAD_NAMES

#: ``repro`` modules a workload build loads outside ``BUILD_SOURCES``,
#: each with why it cannot change a built program.
ALLOWED = {
    "repro": "the package root: a version string and a lazy "
             "attribute hook",
    "repro.sim": "package of repro.sim.functional below",
    "repro.sim.functional": "imported by repro.workloads.base for the "
                            "ExecutionResult annotation of Workload.verify, "
                            "which checks a run after the build",
    "repro.sim.memory": "imported by repro.sim.functional",
    "repro.sim.trace": "imported by repro.sim.functional",
    "repro.obs": "the recorder repro.sim.functional imports",
    "repro.obs.export": "loaded by repro.obs",
    "repro.obs.metrics": "loaded by repro.obs",
    "repro.obs.recorder": "loaded by repro.obs",
    "repro.obs.report": "loaded by repro.obs",
}


def _hashed(module: str) -> bool:
    for entry in BUILD_SOURCES:
        name = "repro." + entry.removesuffix(".py")
        if module == name or module.startswith(name + "."):
            return True
    return False


def _fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_a_build_loads_only_hashed_or_allowed_modules():
    code = (
        "import sys\n"
        "from repro.workloads.registry import WORKLOAD_NAMES, "
        "build_workload\n"
        "for name in WORKLOAD_NAMES:\n"
        "    build_workload(name, 1)\n"
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro'))\n"
    )
    loaded = _fresh_interpreter(code).split()
    assert "repro.workloads.gsm" in loaded
    unhashed = {m for m in loaded if not _hashed(m)}
    assert unhashed <= set(ALLOWED), sorted(unhashed - set(ALLOWED))


def test_digest_waits_for_a_store_backed_fingerprint(tmp_path):
    # neither an import nor a storeless pipeline computes it
    code = (
        "import repro, repro.engine\n"
        "from repro.engine import ArtifactPipeline, ArtifactStore\n"
        "from repro.engine import build_source_digest as digest\n"
        "ArtifactPipeline().fingerprint('gsm_encode', 1)\n"
        "print(digest.cache_info().misses)\n"
        f"store = ArtifactStore({str(tmp_path)!r})\n"
        "ArtifactPipeline(store=store).fingerprint('gsm_encode', 1)\n"
        "print(digest.cache_info().misses)\n"
    )
    assert _fresh_interpreter(code).split() == ["0", "1"]


@pytest.mark.parametrize("scale", [1, 2])
def test_stored_fingerprint_is_the_built_programs(tmp_path, scale):
    store = ArtifactStore(tmp_path)
    pipeline = ArtifactPipeline(store=store)
    for name in WORKLOAD_NAMES:
        pipeline.fingerprint(name, scale)
    # a fresh store reads back what the first one published
    reader = ArtifactStore(tmp_path)
    for name in WORKLOAD_NAMES:
        stored = reader.get(
            fingerprint_key(name, scale, build_source_digest())
        )
        assert stored == program_fingerprint(
            build_workload(name, scale).program
        ), name
    assert reader.stats().artifacts_by_kind == {
        "fingerprint": len(WORKLOAD_NAMES)
    }
