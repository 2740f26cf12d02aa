"""Differential fuzzing of the extended-instruction pipeline.

Generates random programs (assembly loops of candidate-class operations,
or minic sources), runs them through profiling → selection → rewriting,
and checks observable equivalence. This is the library form of the
property tests: usable from a CLI (``t1000 fuzz``) or CI job to hammer
the folding machinery for as long as desired.

The campaign also differentially fuzzes the simulators themselves: for
every generated program (and every rewrite of it), the native
functional kernel must produce an :class:`ExecutionResult` identical to
the reference loop's (:func:`check_functional`), and the native
pre-pass and replay kernels an identical :class:`SimStats` (see
:func:`check_simulators`).  Every
generated trace is additionally round-tripped through the binary wire
framing (:func:`check_wire_framing`) to pin the serve path's codec.

All generation is seeded and reproducible; a failure report carries the
seed and the full program text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.asm import assemble
from repro.errors import ReproError
from repro.extinst import (
    SelectionParams,
    apply_selection,
    estimate_cycles_saved,
    run_selection,
    validate_equivalence,
)
from repro.extinst.registry import get_selector, registered_algorithms
from repro.profiling import profile_program
from repro.program.program import Program

_REGS = [f"$t{i}" for i in range(8)]
_OPS2 = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"]
_OPSI = ["addiu", "andi", "ori", "xori", "slti"]
_SHIFTS = ["sll", "srl", "sra"]


@dataclass
class FuzzResult:
    """Outcome of one fuzzing campaign."""

    runs: int = 0
    folded_sites: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz: {self.runs} programs, {self.folded_sites} folded "
            f"sites, {status}"
        )


def random_asm_program(rng: random.Random, iterations: int = 30) -> str:
    """A random hot loop of narrow candidate operations plus a store."""
    n_ops = rng.randint(4, 14)
    lines: list[str] = []
    for _ in range(n_ops):
        dst = rng.choice(_REGS)
        a = rng.choice(_REGS)
        kind = rng.randrange(3)
        if kind == 0:
            lines.append(f"{rng.choice(_OPS2)} {dst}, {a}, {rng.choice(_REGS)}")
        elif kind == 1:
            lines.append(f"{rng.choice(_OPSI)} {dst}, {a}, {rng.randint(0, 255)}")
        else:
            lines.append(f"{rng.choice(_SHIFTS)} {dst}, {a}, {rng.randint(0, 7)}")
        lines.append(f"andi {dst}, {dst}, 1023")   # stay in the 18-bit regime
    lines.append(f"sw {rng.choice(_REGS)}, 0($sp)")
    init = "\n".join(
        f"    li {reg}, {rng.randint(0, 255)}" for reg in _REGS
    )
    body = "\n".join(f"    {line}" for line in lines)
    return (
        f".text\nmain:\n{init}\n    li $s0, {iterations}\nloop:\n{body}\n"
        "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n"
        "    move $v0, $t0\n    move $v1, $t3\n    halt\n"
    )


def random_minic_program(rng: random.Random) -> str:
    """A random minic source with a hot loop over masked ALU expressions."""
    names = ["a", "b", "c", "d"]
    decls = " ".join(f"int {n} = {rng.randint(0, 99)};" for n in names)
    stmts = []
    for _ in range(rng.randint(2, 8)):
        dst = rng.choice(names)
        x, y = rng.choice(names), rng.choice(names + [str(rng.randint(0, 63))])
        op = rng.choice(["+", "-", "&", "|", "^", "<<", ">>"])
        shift_guard = " & 15" if op in ("<<", ">>") else ""
        stmts.append(f"{dst} = (({x} {op} ({y}{shift_guard})) & 1023);")
    body = " ".join(stmts)
    return (
        "int out;\nint main() { " + decls +
        f" for (int i = 0; i < 20; i++) {{ {body} }}"
        " out = a + b + c + d; return out; }"
    )


def check_wire_framing(trace) -> None:
    """Round-trip ``trace`` through the binary column framing
    (:mod:`repro.wire`) and assert byte identity.

    Every fuzz-generated trace exercises the zero-copy serve path's
    codec: ``decode(encode(t))`` must reproduce both columns exactly,
    and the frame's content digest must be deterministic.  Raises
    ``AssertionError`` on any divergence."""
    from repro import wire

    chunks = wire.trace_chunks(trace)
    decoded = wire.trace_from_bytes(b"".join(chunks))
    assert decoded.indices.tobytes() == trace.indices.tobytes(), \
        "framed trace indices diverged"
    assert decoded.addrs.tobytes() == trace.addrs.tobytes(), \
        "framed trace addresses diverged"
    assert wire.chunks_digest(chunks) == \
        wire.chunks_digest(wire.trace_chunks(decoded)), \
        "trace frame digest not deterministic"


def tiny_machine():
    """The default machine with caches and TLBs a few lines/pages big.

    Fuzz programs fit in the default 16 KiB caches and a handful of 4 KiB
    pages, so they almost never evict, write back or miss in a TLB; this
    machine makes every generated program exercise those paths.
    """
    from repro.sim.cache import CacheConfig, HierarchyConfig, TLBConfig
    from repro.sim.ooo import MachineConfig

    hierarchy = HierarchyConfig(
        il1=CacheConfig("il1", nsets=4, assoc=1, line_size=16, hit_latency=1),
        dl1=CacheConfig("dl1", nsets=2, assoc=1, line_size=8, hit_latency=1),
        ul2=CacheConfig("ul2", nsets=2, assoc=2, line_size=32, hit_latency=6),
        itlb=TLBConfig("itlb", entries=2, assoc=2, page_size=64),
        dtlb=TLBConfig("dtlb", entries=2, assoc=1, page_size=16),
    )
    return MachineConfig(n_pfus=2, reconfig_latency=10, hierarchy=hierarchy)


def narrow_machine():
    """The default machine with 2 integer ALUs, 1 memory port and a
    48-entry RUU: the ALU and memory-port limits are below the issue
    width, so they bind, and RUU slots are taken modulo a non-power of
    two."""
    from repro.sim.ooo import MachineConfig

    return MachineConfig(n_ialu=2, n_memports=1, ruu_size=48)


def check_functional(program: Program, ext_defs=None):
    """Run ``program`` with trace and profile through the native kernel
    (the default path) and the reference loop (the kernel disabled),
    and assert that both agree: steps, registers, memory (stack
    included), trace, execution counts and bitwidth profile. Without a
    loaded kernel both runs take the reference loop. Returns the native
    run."""
    from repro.extinst.validate import memory_snapshot
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.ooo import native

    def run():
        return FunctionalSimulator(program, ext_defs=ext_defs).run(
            collect_trace=True, profile=True)

    fast = run()
    with native.disabled():
        ref = run()
    assert fast.steps == ref.steps, "native step counts diverged"
    assert fast.regs == ref.regs, "native register files diverged"
    assert memory_snapshot(fast.memory, include_stack=True) == \
        memory_snapshot(ref.memory, include_stack=True), \
        "native memory diverged"
    assert fast.trace.indices == ref.trace.indices, \
        "native trace indices diverged"
    assert fast.trace.addrs == ref.trace.addrs, \
        "native trace addresses diverged"
    assert fast.exec_counts == ref.exec_counts, \
        "native execution counts diverged"
    assert fast.bitwidths.max_operand_width == \
        ref.bitwidths.max_operand_width, "native operand widths diverged"
    assert fast.bitwidths.max_result_width == \
        ref.bitwidths.max_result_width, "native result widths diverged"
    return fast


def check_simulators(program: Program, ext_defs=None) -> None:
    """Differentially check the fast simulation paths on ``program``.

    Runs the functional paths against each other
    (:func:`check_functional`), then replays the trace through the
    timing model's native kernels, where they are available, and the
    reference loop (``SimStats`` must match field-for-field), on the
    default machine, on :func:`tiny_machine` and on
    :func:`narrow_machine`. On each machine the native pre-pass must
    also equal ``build_prepass`` field for field. The same machines
    also go through ``simulate_many(..., jobs=2)``, which replays some
    of them in a forked child where forking is safe. Raises
    ``AssertionError`` on any divergence.
    """
    import dataclasses

    from repro.sim.ooo import MachineConfig, OoOSimulator, simulate_many
    from repro.sim.ooo import native
    from repro.sim.ooo.prepass import build_prepass

    fast = check_functional(program, ext_defs)
    check_wire_framing(fast.trace)

    machines = {
        "default": MachineConfig(n_pfus=2, reconfig_latency=10),
        "tiny": tiny_machine(),
        "narrow": narrow_machine(),
    }
    grid = simulate_many(program, fast.trace, list(machines.values()),
                         ext_defs=ext_defs, jobs=2)
    events = OoOSimulator(program, ext_defs=ext_defs)._events
    for (label, config), stats_grid in zip(machines.items(), grid):
        if native.available():
            args = (events, fast.trace.indices, fast.trace.addrs,
                    config.hierarchy, config.fetch_width)
            built = native.prepass(*args)
            assert built is not None, f"native pre-pass refused ({label})"
            assert built._replace(fcyc=built.fcyc.tolist()) == \
                build_prepass(*args), \
                f"native pre-pass diverged ({label} machine)"
        stats_fast = OoOSimulator(
            program, config=config, ext_defs=ext_defs
        ).simulate(fast.trace)
        slow_cfg = dataclasses.replace(config, sim_fast_path=False)
        stats_slow = OoOSimulator(
            program, config=slow_cfg, ext_defs=ext_defs
        ).simulate(fast.trace)
        assert vars(stats_fast) == vars(stats_slow), \
            f"SimStats diverged ({label} machine)"
        assert vars(stats_grid) == vars(stats_fast), \
            f"forked simulate_many diverged ({label} machine)"


def check_program(program: Program, n_pfus_choices=(1, 2, 4, None)) -> int:
    """Run every *registered* selection algorithm over ``program`` and
    validate each rewrite: semantic equivalence of the rewritten
    program, fast-vs-reference agreement of both simulators on it, and
    the selection-differential property that no selector loses estimated
    cycles to the baseline (the empty selection, which saves exactly
    zero) under the regime that selector planned for — its PFU budget
    (or one PFU per configuration for budget-free selectors) and the
    reconfiguration latency its objective accounted for (zero for
    selectors whose gain model ignores reconfiguration cost).
    Budget-aware selectors are exercised at every budget in
    ``n_pfus_choices``.  Returns the number of folded sites; raises on
    divergence."""
    profile = profile_program(program)
    folded = 0
    check_simulators(program)

    for algorithm in registered_algorithms():
        spec = get_selector(algorithm)
        budgets = n_pfus_choices if spec.uses_select_pfus else (None,)
        for n_pfus in budgets:
            params = SelectionParams(algorithm=algorithm, select_pfus=n_pfus)
            selection = run_selection(profile, params)
            rewritten, defs = apply_selection(program, selection)
            validate_equivalence(program, rewritten, defs)
            check_simulators(rewritten, defs)
            folded += len(selection.sites)

            estimate = estimate_cycles_saved(
                profile, selection,
                n_pfus if n_pfus is not None else max(1, selection.n_configs),
                params.reconfig_latency if spec.latency_aware else 0,
            )
            assert estimate.saved >= 0, (
                f"{algorithm} (pfus={n_pfus}) loses an estimated "
                f"{-estimate.saved} cycle(s) to baseline under its own "
                f"planning regime (fold gain {estimate.fold_gain}, "
                f"reconfiguration cost {estimate.reconfig_cost})"
            )
    return folded


def build_program(seed: int, flavor: str) -> tuple[Program, str]:
    """Regenerate the exact program a campaign built from ``seed``.

    This is the single construction path shared by :func:`run_campaign`
    and :func:`replay`, so a seed printed in a failure report always
    reproduces byte-identical source."""
    if flavor not in ("asm", "minic"):
        raise ValueError(f"unknown program flavor {flavor!r}")
    sub_rng = random.Random(seed)
    if flavor == "minic":
        from repro.cc import compile_source

        source = random_minic_program(sub_rng)
        return compile_source(source), source
    source = random_asm_program(sub_rng)
    return assemble(source), source


def _check_one(seed: int, flavor: str, result: FuzzResult) -> None:
    program, source = build_program(seed, flavor)
    result.runs += 1
    try:
        result.folded_sites += check_program(program)
    except (ReproError, AssertionError) as exc:
        result.failures.append(
            {
                "seed": seed,
                "flavor": flavor,
                "error": str(exc),
                "source": source,
            }
        )


def replay(seed: int, flavor: str) -> FuzzResult:
    """Re-run the one program a failure report identified by its printed
    per-program ``seed`` (not the campaign seed)."""
    result = FuzzResult()
    _check_one(seed, flavor, result)
    return result


def run_campaign(
    n_programs: int = 50,
    seed: int = 0,
    flavor: str = "both",
) -> FuzzResult:
    """Fuzz ``n_programs`` random programs. ``flavor``: "asm", "minic",
    or "both" (alternating).

    ``seed`` seeds the campaign; each program gets its own derived seed,
    printed on failure and replayable via :func:`replay` (or
    ``t1000 fuzz --replay-seed``)."""
    if flavor not in ("asm", "minic", "both"):
        raise ValueError(f"unknown fuzz flavor {flavor!r}")
    rng = random.Random(seed)
    result = FuzzResult()
    for k in range(n_programs):
        use_minic = flavor == "minic" or (flavor == "both" and k % 2 == 1)
        program_seed = rng.randrange(2**31)
        _check_one(program_seed, "minic" if use_minic else "asm", result)
    return result
