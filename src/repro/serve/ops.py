"""Worker-side execution of toolflow operations.

An :class:`OpRunner` lives inside one worker process and executes job
batches the server dispatches over the pipe.  It owns an
:class:`~repro.engine.pipeline.ArtifactPipeline` (with the persistent
:class:`~repro.engine.store.ArtifactStore` when the server was given a
cache directory), so repeated requests — the service's bread and butter
— become cache hits instead of re-simulations, exactly as in the batch
engine.

Batch semantics: every job carries a list of *items*; items fail
independently (``{"ok": False, ...}`` per item), so one poisoned request
in a coalesced ``simulate`` batch cannot take down its batchmates.  For
``simulate`` the whole batch shares one functional execution and one
:func:`~repro.sim.ooo.simulate_many` sweep — the serving-side
throughput win this subsystem exists for.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any

from repro.engine.pipeline import ArtifactPipeline
from repro.engine.store import (
    ArtifactStore,
    machine_fingerprint,
    make_key,
    program_fingerprint,
    stats_to_json,
)
from repro.errors import ReproError
from repro.serve import protocol
from repro.sim.ooo import MachineConfig

#: ``scale`` value marking serve-originated artefacts in the store (the
#: batch engine's keys always use the workload's real scale >= 1).
_SERVE_SCALE = 0


def _selection_digest(selection) -> str:
    from repro.extinst.serialize import selection_to_json

    blob = json.dumps(selection_to_json(selection), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _ext_defs_digest(ext_defs) -> str:
    if not ext_defs:
        return "none"
    import pickle

    blob = pickle.dumps(sorted(ext_defs.items()), protocol=4)
    return hashlib.sha256(blob).hexdigest()[:16]


def _coerce_machine(machine: Any) -> MachineConfig:
    """A :class:`MachineConfig` from a wire machine value.

    Accepts a pickled ``MachineConfig`` or a plain field dict; raises
    :class:`~repro.errors.ReproError` for anything else (which surfaces
    as a per-item ``op_failed`` — the poisoned-batch path)."""
    if isinstance(machine, MachineConfig):
        return machine
    if machine is None:
        return MachineConfig()
    if isinstance(machine, dict):
        return MachineConfig(**machine)  # ConfigurationError on bad fields
    raise protocol.BadRequestError(
        f"machine must be a MachineConfig or field dict, got {type(machine)!r}"
    )


class OpRunner:
    """Executes op batches against a (possibly store-backed) pipeline."""

    #: Decoded simulate bundles kept per worker process.  Small on
    #: purpose — the authoritative cache is the server's byte-blob
    #: :class:`~repro.serve.trace_cache.TraceCache`; this only saves
    #: re-decoding across consecutive batches of the same sweep.
    BUNDLE_CACHE_ENTRIES = 8

    def __init__(self, cache_dir: str | None = None):
        store = ArtifactStore(cache_dir) if cache_dir else None
        self.pipeline = ArtifactPipeline(store=store)
        self._bundles: OrderedDict[str, Any] = OrderedDict()

    # ------------------------------------------------------------------
    # store plumbing (serve artefacts are keyed by program fingerprint,
    # not workload name — clients send arbitrary programs)

    def _cached(self, kind: str, name: str, fingerprint: str,
                compute, **params):
        return self.pipeline._artifact(
            (kind, "serve", fingerprint, tuple(sorted(params.items()))),
            dict(kind=kind, workload=name, scale=_SERVE_SCALE,
                 fingerprint=fingerprint, **params),
            compute,
        )

    def _sim_counter(self, name: str) -> None:
        self.pipeline._sim_counter(name)

    # ------------------------------------------------------------------

    def run_job(self, job: dict) -> dict:
        """Execute one job; returns per-item results plus the telemetry
        counter delta (bridged into the server's metrics).

        A by-ref simulate job (``trace_ref`` digest) resolves its
        bundle from the in-process decode cache or the job's attached
        ``trace_blob``; when neither is available the reply is
        ``{"need_blob": digest}`` and the server re-sends the job with
        the blob attached — the worker-side half of the
        digest-addressed protocol."""
        snapshot = self.pipeline.telemetry.snapshot()
        op = job["op"]
        items = job["items"]
        if op == "simulate":
            bundle = None
            digest = job.get("trace_ref")
            if digest is not None:
                bundle = self._bundle_for(digest, job.get("trace_blob"))
                if bundle is None:
                    return {"need_blob": digest, "results": [],
                            "telemetry": {}}
            results = self._simulate_batch(items, bundle=bundle)
        else:
            results = [self._run_single(op, item) for item in items]
        self.pipeline.flush()
        return {
            "results": results,
            "telemetry": self.pipeline.telemetry.delta_since(snapshot),
        }

    def _bundle_for(self, digest: str, blob: bytes | None):
        """The decoded bundle for ``digest`` — from the LRU, or decoded
        (and digest-verified) from ``blob``; ``None`` when unknown."""
        from repro import wire

        cached = self._bundles.get(digest)
        if cached is not None:
            self._bundles.move_to_end(digest)
            return cached
        if blob is None:
            return None
        actual = wire.chunks_digest([blob])
        if actual != digest:
            raise protocol.BadRequestError(
                f"trace bundle digest mismatch: job says {digest!r}, "
                f"blob hashes to {actual!r}"
            )
        bundle = wire.decode_bundle(blob)
        self._bundles[digest] = bundle
        while len(self._bundles) > self.BUNDLE_CACHE_ENTRIES:
            self._bundles.popitem(last=False)
        return bundle

    def _run_single(self, op: str, params: dict) -> dict:
        try:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise protocol.BadRequestError(f"unknown op {op!r}")
            value = handler(
                {k: protocol.decode_value(v) for k, v in params.items()}
            )
            return {"ok": True, "value": protocol.encode_value(value)}
        except (ReproError, AssertionError, TypeError, ValueError) as exc:
            return {"ok": False, "error": {
                "code": getattr(exc, "code", protocol.OP_FAILED),
                "message": f"{type(exc).__name__}: {exc}",
            }}

    # ------------------------------------------------------------------
    # the five toolflow ops

    def _op_compile(self, params: dict):
        from repro import api

        return api.compile(**params)

    def _op_profile(self, params: dict):
        from repro.profiling import profile_program

        program = params["program"]
        max_steps = params.get("max_steps", 50_000_000)
        fingerprint = program_fingerprint(program)

        def compute():
            self._sim_counter("sim.functional")
            return profile_program(program, max_steps=max_steps)

        return self._cached("profile", program.name, fingerprint, compute,
                            max_steps=max_steps)

    def _op_select(self, params: dict):
        from repro import api

        return api.select(**params)

    def _op_rewrite(self, params: dict):
        from repro.extinst import apply_selection, validate_equivalence

        program = params["program"]
        selection = params["selection"]
        validate = params.get("validate", True)
        fingerprint = program_fingerprint(program)

        def compute():
            rewritten, defs = apply_selection(program, selection)
            if validate:
                self._sim_counter("sim.validate")
                validate_equivalence(program, rewritten, defs)
            return rewritten, defs

        return self._cached(
            "rewrite", program.name, fingerprint, compute,
            selection=_selection_digest(selection), validate=validate,
        )

    # ------------------------------------------------------------------
    # simulate: the micro-batched path

    def _trace_for(self, program, ext_defs, max_steps):
        """The program's dynamic trace (store-cached like engine traces)."""
        from repro.sim.functional import FunctionalSimulator

        fingerprint = program_fingerprint(program)

        def compute():
            self._sim_counter("sim.functional")
            result = FunctionalSimulator(program, ext_defs=ext_defs).run(
                max_steps=max_steps, collect_trace=True
            )
            return result.trace

        return self._cached(
            "trace", program.name, fingerprint, compute,
            extdefs=_ext_defs_digest(ext_defs), max_steps=max_steps,
        )

    def _simulate_batch(self, items: list[dict],
                        bundle=None) -> list[dict]:
        """Simulate a coalesced batch: items share (program, ext_defs,
        max_steps) by construction (the broker groups on that key) but
        each carries its own machine configuration.  With ``bundle``
        (a decoded :class:`repro.wire.SimulateBundle` — the by-ref
        path) the shared payload comes from the bundle instead of the
        items, and a bundle-shipped trace skips the functional run
        outright; results are identical either way, since the
        functional simulator is deterministic.

        One functional execution produces the shared trace; duplicate
        machine configurations within the batch are deduplicated (one
        simulation answers every requester of that config); the timing
        sweep over every store-missed distinct configuration goes
        through a single :func:`simulate_many` call.  A poisoned item —
        an invalid machine, a config the simulator rejects — fails
        alone: the batch falls back to per-config isolation and its
        batchmates still succeed.
        """
        from repro.sim.ooo import OoOSimulator, simulate_many

        results: list[dict | None] = [None] * len(items)

        def fail(i: int, exc: Exception) -> None:
            results[i] = {"ok": False, "error": {
                "code": getattr(exc, "code", protocol.OP_FAILED),
                "message": f"{type(exc).__name__}: {exc}",
            }}

        # Decode the shared payload once (items carry identical blobs,
        # or none at all on the by-ref path).
        try:
            if bundle is not None:
                program = bundle.program
                ext_defs = bundle.ext_defs
                max_steps = bundle.max_steps
                trace = bundle.trace
            else:
                first = items[0]
                program = protocol.decode_value(first["program"])
                ext_defs = protocol.decode_value(first.get("ext_defs"))
                max_steps = first.get("max_steps", 50_000_000)
                trace = None
            if trace is None:
                trace = self._trace_for(program, ext_defs, max_steps)
        except (ReproError, AssertionError, TypeError, ValueError) as exc:
            for i in range(len(items)):
                fail(i, exc)
            return results  # the whole batch shares the broken payload

        fingerprint = program_fingerprint(program)
        defs_digest = _ext_defs_digest(ext_defs)

        # Per-item machine decode: a bad config poisons only its item.
        machines: dict[int, MachineConfig] = {}
        for i, item in enumerate(items):
            try:
                machines[i] = _coerce_machine(
                    protocol.decode_value(item.get("machine"))
                )
            except (ReproError, TypeError, ValueError) as exc:
                fail(i, exc)

        def timing_key(machine: MachineConfig):
            return make_key(
                kind="timing", workload=program.name, scale=_SERVE_SCALE,
                fingerprint=fingerprint, extdefs=defs_digest,
                max_steps=max_steps, machine=machine_fingerprint(machine),
            )

        store = self.pipeline.store
        # Dedupe within the batch: concurrent clients sweeping the same
        # config grid collapse to one simulation per *distinct* machine,
        # fanned back out to every requester.  This is where serving a
        # sweep beats per-request execution even without a store.
        groups: dict[str, list[int]] = {}
        for i, machine in machines.items():
            groups.setdefault(machine_fingerprint(machine), []).append(i)

        def deliver(indices: list[int], stats) -> None:
            if store is not None:
                store.put(timing_key(machines[indices[0]]), stats)
            wire = {"ok": True, "value": {"$stats": stats_to_json(stats)}}
            for i in indices:
                results[i] = wire

        missed: list[list[int]] = []
        for indices in groups.values():
            cached = (store.get(timing_key(machines[indices[0]]))
                      if store else None)
            if cached is not None:
                wire = {"ok": True, "value": {
                    "$stats": stats_to_json(cached)
                }}
                for i in indices:
                    results[i] = wire
            else:
                missed.append(indices)

        if missed:
            configs = [machines[indices[0]] for indices in missed]
            self._sim_counter("sim.timing")
            try:
                # serial: the worker pool is serve's parallelism, and a
                # forked child must not outlive a killed worker
                sweep = simulate_many(program, trace, configs,
                                      ext_defs=ext_defs, jobs=1)
                for indices, stats in zip(missed, sweep):
                    deliver(indices, stats)
            except (ReproError, AssertionError, ValueError) as poisoned:
                # Isolate the poison: replay per config so healthy
                # configurations still get their answer.
                del poisoned
                for indices in missed:
                    try:
                        stats = OoOSimulator(
                            program, machines[indices[0]], ext_defs=ext_defs
                        ).simulate(trace)
                        deliver(indices, stats)
                    except (ReproError, AssertionError, ValueError) as exc:
                        for i in indices:
                            fail(i, exc)
        return results
