"""The selection-algorithm registry (:mod:`repro.extinst.registry`).

Covers the registration surface (duplicates, unknown names, listing),
the cache-key contract — pre-existing greedy/selective artefact digests
must stay byte-identical to their values from before the registry
existed, and so must the machine identities and the timing keys the
sweep and the pipeline build — and the repo-wide rule that no module outside
``repro.extinst`` spells an algorithm name as a string literal.
"""

import ast
import dataclasses
import pathlib

import pytest

from repro.engine import (
    ArtifactPipeline,
    ArtifactStore,
    core_machine,
    rewrite_key,
    selection_key,
    timing_key,
    trace_key,
)
from repro.engine.store import machine_fingerprint
from repro.errors import ConfigurationError
from repro.explore.spec import SweepPoint
from repro.extinst import (
    ExtractionParams,
    SelectionParams,
    SelectorSpec,
    Tunable,
    get_selector,
    register_selector,
    registered_algorithms,
    selector_specs,
)
from repro.extinst.registry import (
    BASELINE,
    GREEDY,
    ISEGEN,
    SELECTIVE,
    normalize_select_pfus,
    selection_cache_extras,
    unregister_selector,
)
from repro.sim.cache.cache import CacheConfig
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.sim.ooo import MachineConfig

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_algorithms() == (GREEDY, SELECTIVE, ISEGEN)
        for name in registered_algorithms():
            spec = get_selector(name)
            assert isinstance(spec, SelectorSpec)
            assert spec.name == name
            assert spec.description

    def test_baseline_is_not_an_algorithm(self):
        assert BASELINE not in registered_algorithms()
        with pytest.raises(ConfigurationError):
            get_selector(BASELINE)

    def test_unknown_algorithm_names_valid_choices(self):
        with pytest.raises(ConfigurationError) as exc:
            get_selector("simulated-annealing")
        message = str(exc.value)
        assert "simulated-annealing" in message
        for name in registered_algorithms():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_selector(SelectorSpec(
                name=GREEDY,
                run=lambda profile, params: None,
                description="an impostor",
            ))

    def test_register_and_unregister_plugin(self):
        spec = SelectorSpec(
            name="always-empty",
            run=lambda profile, params: None,
            description="selects nothing",
        )
        register_selector(spec)
        try:
            assert "always-empty" in registered_algorithms()
            assert get_selector("always-empty") is spec
            # plugins are valid SelectionParams algorithms immediately
            params = SelectionParams(algorithm="always-empty")
            assert params.normalized().algorithm == "always-empty"
        finally:
            unregister_selector("always-empty")
        assert "always-empty" not in registered_algorithms()

    def test_selector_specs_lists_tunables(self):
        by_name = {spec.name: spec for spec in selector_specs()}
        assert not by_name[GREEDY].uses_select_pfus
        assert by_name[SELECTIVE].uses_select_pfus
        assert by_name[ISEGEN].latency_aware
        isegen_tunables = {t.name for t in by_name[ISEGEN].tunables}
        assert {"gain_threshold", "reconfig_latency", "max_passes",
                "stall_passes", "extraction"} <= isegen_tunables
        for spec in selector_specs():
            for tunable in spec.tunables:
                assert isinstance(tunable, Tunable)
                assert tunable.doc

    def test_normalize_select_pfus(self):
        assert normalize_select_pfus(GREEDY, 4) is None
        assert normalize_select_pfus(SELECTIVE, 4) == 4
        assert normalize_select_pfus(ISEGEN, 2) == 2
        with pytest.raises(ConfigurationError):
            normalize_select_pfus("nonsense", 2)


class TestCacheExtras:
    def test_defaults_produce_no_extras(self):
        for algorithm in registered_algorithms():
            params = SelectionParams(algorithm=algorithm, select_pfus=2)
            assert selection_cache_extras(params) == {}

    def test_non_default_tunables_key_the_cache(self):
        tuned = SelectionParams(algorithm=SELECTIVE, select_pfus=2,
                                gain_threshold=0.01)
        assert selection_cache_extras(tuned) == {"gain_threshold": 0.01}
        latency = SelectionParams(algorithm=ISEGEN, select_pfus=2,
                                  reconfig_latency=500)
        assert selection_cache_extras(latency) == {"reconfig_latency": 500}

    def test_undeclared_tunables_never_leak_into_keys(self):
        # greedy does not declare gain_threshold, so a (meaningless)
        # non-default value must not fork its cache key
        params = SelectionParams(algorithm=GREEDY, gain_threshold=0.5)
        assert selection_cache_extras(params) == {}

    def test_non_scalar_tunables_key_by_repr(self):
        extraction = ExtractionParams(max_nodes=4)
        params = SelectionParams(algorithm=SELECTIVE, select_pfus=2,
                                 extraction=extraction)
        assert selection_cache_extras(params) == {
            "extraction": repr(extraction)
        }


class TestNormalized:
    def test_greedy_drops_undeclared_fields(self):
        params = SelectionParams(algorithm=GREEDY, select_pfus=4,
                                 gain_threshold=0.5, reconfig_latency=99)
        norm = params.normalized()
        assert norm.select_pfus is None
        assert norm == SelectionParams(algorithm=GREEDY)

    def test_isegen_keeps_declared_fields(self):
        params = SelectionParams(algorithm=ISEGEN, select_pfus=2,
                                 reconfig_latency=500, max_passes=3)
        norm = params.normalized()
        assert norm.reconfig_latency == 500
        assert norm.max_passes == 3
        assert norm is params  # already canonical

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            SelectionParams(algorithm="nonsense")


class TestCacheKeyStability:
    """Digests of pre-registry artefact keys, captured verbatim from the
    repository state before this refactor.  If any of these change, warm
    stores would recompute every artefact — a silent, expensive bug."""

    FINGERPRINT = "f" * 16
    MACHINE = "m" * 16
    SELECTIVE_2 = SelectionParams(algorithm=SELECTIVE, select_pfus=2)

    def test_selection_keys_byte_identical(self):
        expected = {
            (GREEDY, None): "b93eab545ee9aebd1c307b256e7a9f2a7c"
                            "383e3848077ed40cdc7109b3c1421a",
            (SELECTIVE, 2): "3d4901c3a1303a55a1fc4441d76e69f0f9"
                            "472e06f0085db2d5002a2c5026833d",
            (SELECTIVE, None): "e9767534919a6845e4dd9014bbd4339f"
                               "57c22fad3a0008e76b4e95a0783050fa",
        }
        for (algorithm, pfus), digest in expected.items():
            params = SelectionParams(algorithm=algorithm, select_pfus=pfus)
            key = selection_key("epic", 1, self.FINGERPRINT, params)
            assert key.digest == digest, (algorithm, pfus)

    def test_tuned_selection_key_byte_identical(self):
        params = SelectionParams(algorithm=SELECTIVE, select_pfus=2,
                                 gain_threshold=0.01)
        key = selection_key("epic", 1, self.FINGERPRINT, params)
        assert key.digest == ("42cc9fd7e9e6f3ef2d15b53227b7444a"
                              "1ff39aefb7a69bba38eaca4bbb178b43")

    def test_downstream_keys_byte_identical(self):
        rewrite = rewrite_key("epic", 1, self.FINGERPRINT, self.SELECTIVE_2,
                              True)
        assert rewrite.digest == ("35198af92621c22b0bd0b0d2850820"
                                  "774cc467fd723458d3a81971a36839f4c7")
        trace = trace_key("epic", 1, self.FINGERPRINT, self.SELECTIVE_2, True)
        assert trace.digest == ("a68e8bfc4eac1c67642ec02fed7aa99f"
                                "05f51114c46edfa9722791169f94e96e")
        timing = timing_key("epic", 1, self.FINGERPRINT, self.MACHINE,
                            self.SELECTIVE_2, True)
        assert timing.digest == ("75b03192e2af1b2137ae9b333fbd5640"
                                 "f58313cbe569f861a4476c04a91bda91")


def _dl1_256() -> MachineConfig:
    hierarchy = HierarchyConfig()
    return MachineConfig(hierarchy=dataclasses.replace(
        hierarchy, dl1=dataclasses.replace(hierarchy.dl1, nsets=256)))


class TestMachineIdentity:
    """Machine fingerprints and the timing keys built from them, pinned
    from before :func:`machine_fingerprint` was memoized.  The memo
    must return exactly what the digest formula computes."""

    MACHINES = {
        "default": (MachineConfig, "2ffeec05289ca57d"),
        "narrow": (lambda: MachineConfig(fetch_width=2, decode_width=2,
                                         issue_width=2, commit_width=2),
                   "6149dc5614b839f1"),
        "dl1_256": (_dl1_256, "e6a2baec8125339f"),
        "unlimited_pfus": (lambda: MachineConfig(n_pfus=None),
                           "fe7c23aa546a9527"),
        "reconfig_500": (lambda: MachineConfig(reconfig_latency=500),
                         "31914bd412b423d2"),
        # an execution-strategy field, not part of the identity
        "reference_loop": (lambda: MachineConfig(sim_fast_path=False),
                           "2ffeec05289ca57d"),
    }
    REWRITTEN = SweepPoint(
        "gsm_encode", 1, SELECTIVE, 2, True,
        MachineConfig(n_pfus=2, reconfig_latency=100, ruu_size=32))
    BASELINE_POINT = SweepPoint(
        "gsm_encode", 1, BASELINE, None, True,
        MachineConfig(n_pfus=4, reconfig_latency=500, ruu_size=32))

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_fingerprint_byte_identical(self, name):
        build, digest = self.MACHINES[name]
        machine_fingerprint.cache_clear()
        machine = build()
        assert machine_fingerprint.__wrapped__(machine) == digest
        assert machine_fingerprint(machine) == digest       # computed
        assert machine_fingerprint(machine) == digest       # memoized
        assert machine_fingerprint(dataclasses.replace(machine)) == digest
        assert machine_fingerprint(build()) == digest

    def test_one_digest_computation_per_distinct_machine(self):
        machine_fingerprint.cache_clear()
        for _ in range(3):
            for build, _digest in self.MACHINES.values():
                machine_fingerprint(build())
        # reference_loop equals no other machine, so it computes too
        assert machine_fingerprint.cache_info().misses == len(self.MACHINES)

    @staticmethod
    def timing_key(point, fingerprint):
        """A sweep point's timing key, its baseline on the core machine."""
        machine = (core_machine(point.machine) if point.selection is None
                   else point.machine)
        return timing_key(point.workload, point.scale, fingerprint,
                          machine_fingerprint(machine), point.selection,
                          point.validate)

    def test_sweep_timing_keys_byte_identical(self):
        fingerprint = "f" * 16
        assert self.timing_key(self.REWRITTEN, fingerprint).digest == (
            "dd744b4eb19327fe7f45d9689555223a"
            "65f5d0622dd6c06a630c6262af1787c5")
        assert self.timing_key(self.BASELINE_POINT, fingerprint).digest == (
            "eeb1e473fe0a81a5a58ec26228c9281d"
            "38687498b8710171aa6ab1f93f48cd86")

    def test_pipeline_builds_the_sweep_timing_keys(self, tmp_path):
        """The keys :meth:`ArtifactPipeline.timing_for` looks up for a
        rewritten point and a baseline are the ones the sweep checks, or
        every warm sweep misses."""

        class KeyLog(ArtifactStore):
            def get(self, key):
                if key.kind == "fingerprint":   # the real program's
                    return super().get(key)
                looked_up.append(key)
                return object()            # a hit: nothing simulates

        looked_up = []
        pipeline = ArtifactPipeline(store=KeyLog(tmp_path / "cache"))
        fingerprint = pipeline.fingerprint("gsm_encode", 1)
        for point in (self.REWRITTEN, self.BASELINE_POINT):
            pipeline.timing_for(point.workload, point.scale,
                                point.selection, point.validate,
                                point.machine)
        assert looked_up == [self.timing_key(self.REWRITTEN, fingerprint),
                             self.timing_key(self.BASELINE_POINT, fingerprint)]


class TestTypeExactMachines:
    """``==`` on a machine must imply one canonical JSON, so an integer
    field takes exactly an ``int``: ``64.0`` and ``True`` compare equal
    to ``64`` and ``1`` but would digest differently."""

    @pytest.mark.parametrize("fields", [
        {"ruu_size": 64.0}, {"n_pfus": True}, {"reconfig_latency": 10.0},
        {"bpred_entries": 2048.0},
    ], ids=["float ruu_size", "bool n_pfus", "float reconfig_latency",
            "float bpred_entries"])
    def test_non_int_machine_field_rejected(self, fields):
        with pytest.raises(ConfigurationError, match="must be an int"):
            MachineConfig(**fields)

    def test_non_int_hierarchy_leaf_rejected(self):
        with pytest.raises(ConfigurationError, match="dl1: nsets"):
            CacheConfig("dl1", nsets=256.0, assoc=4, line_size=32,
                        hit_latency=1)
        with pytest.raises(ConfigurationError, match="mem_latency"):
            HierarchyConfig(mem_latency=18.0)
        dl1 = HierarchyConfig().dl1
        with pytest.raises(ConfigurationError, match="hit_latency"):
            dataclasses.replace(dl1, hit_latency=True)

    def test_unlimited_pfus_still_accepted(self):
        assert MachineConfig(n_pfus=None).n_pfus is None


class TestNoLiteralAlgorithmNames:
    """No module outside ``repro.extinst`` may spell an algorithm name
    as a string literal — everything must go through the registry."""

    ALGORITHM_NAMES = frozenset(registered_algorithms())

    @staticmethod
    def _docstring_nodes(tree):
        nodes = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                body = node.body
                if body and isinstance(body[0], ast.Expr) and isinstance(
                    body[0].value, ast.Constant
                ) and isinstance(body[0].value.value, str):
                    nodes.add(id(body[0].value))
        return nodes

    def test_no_literals_outside_extinst(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if "extinst" in path.parts:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = self._docstring_nodes(tree)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in self.ALGORITHM_NAMES
                    and id(node) not in docstrings
                ):
                    offenders.append(
                        f"{path.relative_to(SRC_ROOT)}:{node.lineno}: "
                        f"{node.value!r}"
                    )
        assert not offenders, (
            "algorithm-name string literals outside repro.extinst "
            "(use the registry constants):\n" + "\n".join(offenders)
        )
