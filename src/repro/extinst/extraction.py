"""Candidate-sequence extraction (§4's three criteria).

A *candidate sequence* is a set of instructions inside one basic block
that can be collapsed into a single PFU operation:

1. every instruction is a profiled candidate — an arithmetic/logic
   operation whose observed operand bitwidths stay at or below the
   threshold (18 bits by default);
2. the set reads at most two external registers and produces exactly one
   result (the root's destination) — the register-file port constraint;
3. every interior value is consumed *only* inside the set and is dead
   outside it, so deleting the interior instructions is safe;
4. replacing the set with one ``ext`` at the root position preserves
   semantics: every external input register must carry, at the root, the
   same value the folded instructions originally read (checked against
   intervening non-sequence definitions).

The *greedy/maximal* extractor grows each sequence backward from a root,
absorbing producers while the constraints hold — "maximal instruction
sequences that take as long as possible to execute on the base machine".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extinst.extdef import ExtInstDef, ExtOp, OperandRef
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, opcode_info
from repro.program.dfg import DataflowGraph, build_all_dfgs
from repro.program.liveness import compute_liveness
from repro.program.program import Program
from repro.profiling.profiler import ProgramProfile


@dataclass(frozen=True)
class ExtractionParams:
    """Tunables of the extraction pass (paper defaults)."""

    width_threshold: int = 18   # §4: operand bitwidths of 18 bits or less
    max_inputs: int = 2         # register read-port constraint
    max_nodes: int = 8          # §4.1: observed sequence lengths 2..8
    min_nodes: int = 2
    max_depth: int = 8          # single-cycle PFU validity proxy (§3.1)
    require_executed: bool = True


@dataclass
class CandidateSequence:
    """One foldable occurrence: a node set within a basic block."""

    bid: int
    nodes: tuple[int, ...]           # ascending absolute instruction indices
    extdef: ExtInstDef
    input_regs: tuple[int, ...]      # registers feeding input slots 0..n-1
    output_reg: int
    exec_count: int
    loop_header: int | None          # innermost containing loop, if any
    outer_loop_header: int | None = None  # top-level containing loop

    @property
    def root(self) -> int:
        return self.nodes[-1]

    @property
    def key(self) -> tuple:
        """Configuration identity (delegates to the ExtInstDef)."""
        return self.extdef.key

    @property
    def gain_per_execution(self) -> int:
        return self.extdef.gain_per_execution

    @property
    def total_gain(self) -> int:
        """Estimated total cycles saved across the run (§5.1 potential gain)."""
        return self.exec_count * self.gain_per_execution


# ----------------------------------------------------------------------
# building an ExtInstDef from a node set


@dataclass
class SequenceBuild:
    """Result of validating/building one node set."""

    extdef: ExtInstDef
    input_regs: tuple[int, ...]
    output_reg: int


def build_sequence(
    program: Program,
    dfg: DataflowGraph,
    nodes: set[int],
    max_inputs: int = 2,
) -> SequenceBuild | None:
    """Validate ``nodes`` as a foldable sequence and build its ExtInstDef.

    Returns ``None`` if any constraint fails. ``nodes`` must all lie in
    ``dfg``'s block and have ALU semantics (callers pre-filter candidates).
    """
    if not nodes:
        return None
    ordered = sorted(nodes)
    root = ordered[-1]
    node_pos = {idx: j for j, idx in enumerate(ordered)}

    # interior values must stay inside; every non-root node must feed the set
    for idx in ordered[:-1]:
        if dfg.value_used_outside(idx, nodes):
            return None
        if not any(c in nodes for c in dfg.consumers.get(idx, ())):
            return None

    # wire up operands, assigning input slots in first-use order
    slot_of: dict[int, int] = {}
    ext_nodes: list[ExtOp] = []
    reads_by_reg: dict[int, list[int]] = {}
    for idx in ordered:
        instr = dfg.instrs[idx]
        refs = _operand_refs(
            instr, dfg.producers[idx], nodes, node_pos, slot_of, reads_by_reg, idx
        )
        if refs is None:
            return None
        ext_nodes.append(ExtOp(instr.op, refs[0], refs[1]))

    input_regs = tuple(sorted(slot_of, key=slot_of.__getitem__))
    if len(input_regs) > max_inputs:
        return None
    if not _inputs_consistent(program, dfg, nodes, root, reads_by_reg):
        return None

    defs = program.text[root].defs()
    if not defs or defs[0] == 0:
        return None
    extdef = ExtInstDef(nodes=tuple(ext_nodes), n_inputs=max(1, len(input_regs)))
    return SequenceBuild(
        extdef=extdef, input_regs=input_regs, output_reg=defs[0]
    )


def _operand_refs(
    instr: Instruction,
    producers: tuple[int | None, ...],
    nodes: set[int],
    node_pos: dict[int, int],
    slot_of: dict[int, int],
    reads_by_reg: dict[int, list[int]],
    idx: int,
) -> tuple[OperandRef, OperandRef] | None:
    """Operand references (a, b) for one instruction inside the set."""
    fmt = instr.info.fmt
    regs = instr.uses()

    def reg_ref(pos: int, reg: int) -> OperandRef:
        producer = producers[pos]
        if producer is not None and producer in nodes:
            return ("node", node_pos[producer])
        if reg == 0:
            return ("zero",)
        if reg not in slot_of:
            slot_of[reg] = len(slot_of)
        reads_by_reg.setdefault(reg, []).append(idx)
        return ("in", slot_of[reg])

    if fmt is Fmt.R3:
        return reg_ref(0, regs[0]), reg_ref(1, regs[1])
    if fmt in (Fmt.R2_IMM, Fmt.SHIFT_IMM):
        return reg_ref(0, regs[0]), ("imm", instr.imm or 0)
    return None  # LUI and anything else is not foldable


def _inputs_consistent(
    program: Program,
    dfg: DataflowGraph,
    nodes: set[int],
    root: int,
    reads_by_reg: dict[int, list[int]],
) -> bool:
    """Criterion 4: at the root, each external input register must hold the
    value the sequence's reads originally observed.

    Sequence-interior definitions are irrelevant (those instructions get
    deleted); what matters is that no *surviving* instruction between a
    read and the root redefines the register.
    """
    block_start = dfg.block.start
    text = program.text
    for reg, read_sites in reads_by_reg.items():
        first_read = min(read_sites)
        for i in range(first_read, root):
            if i in nodes:
                continue
            if reg in text[i].defs():
                return False
    return True


# ----------------------------------------------------------------------
# maximal-sequence extraction


def extract_candidate_sequences(
    profile: ProgramProfile,
    params: ExtractionParams | None = None,
    dfgs: dict[int, DataflowGraph] | None = None,
) -> list[CandidateSequence]:
    """Mine maximal candidate sequences from every basic block (over
    the profile's block ``dfgs``, built here when not given)."""
    params = params or ExtractionParams()
    program = profile.program
    cfg = profile.cfg
    if dfgs is None:
        dfgs = build_all_dfgs(cfg, compute_liveness(cfg))

    candidate_nodes = _candidate_node_set(profile, params)
    sequences: list[CandidateSequence] = []

    for blk in cfg.blocks:
        dfg = dfgs[blk.bid]
        assigned: set[int] = set()
        for idx in reversed(range(blk.start, blk.end)):
            if idx not in candidate_nodes or idx in assigned:
                continue
            nodes = _grow(program, dfg, idx, candidate_nodes, assigned, params)
            if len(nodes) < params.min_nodes:
                continue
            build = build_sequence(program, dfg, nodes, params.max_inputs)
            if build is None or build.extdef.depth > params.max_depth:
                continue
            assigned |= nodes
            loop = profile.innermost_loop_of(idx)
            outer = profile.outermost_loop_of(idx)
            sequences.append(
                CandidateSequence(
                    bid=blk.bid,
                    nodes=tuple(sorted(nodes)),
                    extdef=build.extdef,
                    input_regs=build.input_regs,
                    output_reg=build.output_reg,
                    exec_count=profile.exec_counts[idx],
                    loop_header=loop.header if loop else None,
                    outer_loop_header=outer.header if outer else None,
                )
            )
    sequences.sort(key=lambda s: s.nodes[0])
    return sequences


def _candidate_node_set(
    profile: ProgramProfile, params: ExtractionParams
) -> set[int]:
    """Instructions eligible to appear inside an extended instruction."""
    out: set[int] = set()
    for i, instr in enumerate(profile.program.text):
        if not opcode_info(instr.op).candidate:
            continue
        if params.require_executed and profile.exec_counts[i] == 0:
            continue
        if profile.exec_counts[i] > 0 and (
            profile.max_operand_width[i] > params.width_threshold
        ):
            continue
        out.add(i)
    return out


def _grow(
    program: Program,
    dfg: DataflowGraph,
    root: int,
    candidates: set[int],
    assigned: set[int],
    params: ExtractionParams,
) -> set[int]:
    """Grow a maximal sequence backward from ``root``.

    Producers are absorbed nearest-first; each tentative addition is
    re-validated in full (inputs, liveness, consistency), so the result is
    always a valid sequence (or just ``{root}``).
    """
    nodes = {root}
    changed = True
    while changed and len(nodes) < params.max_nodes:
        changed = False
        frontier: list[int] = []
        for idx in nodes:
            for producer in dfg.producers[idx]:
                if (
                    producer is not None
                    and producer not in nodes
                    and producer in candidates
                    and producer not in assigned
                ):
                    frontier.append(producer)
        for producer in sorted(set(frontier), reverse=True):
            if dfg.value_used_outside(producer, nodes | {producer}):
                continue
            trial = nodes | {producer}
            build = build_sequence(program, dfg, trial, params.max_inputs)
            if build is None or build.extdef.depth > params.max_depth:
                continue
            nodes = trial
            changed = True
            if len(nodes) >= params.max_nodes:
                break
    return nodes
