"""Natural-loop detection.

The selective algorithm (§5.1) works loop by loop: "the number of extended
instructions selected within each loop never exceeds the number of PFUs".
We find natural loops from back edges (an edge ``n -> h`` where ``h``
dominates ``n``); loops sharing a header are merged; nesting depth is
computed by body containment so callers can process innermost loops first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.program.cfg import ControlFlowGraph
from repro.program.dominators import dominates, immediate_dominators


@dataclass
class Loop:
    """One natural loop: header block plus the set of body blocks."""

    header: int
    body: set[int] = field(default_factory=set)  # includes the header
    depth: int = 1                                # 1 = outermost

    def instr_indices(self, cfg: ControlFlowGraph) -> list[int]:
        """All instruction indices inside the loop, in program order."""
        out: list[int] = []
        for bid in sorted(self.body):
            out.extend(cfg.blocks[bid].indices())
        return out


def find_natural_loops(cfg: ControlFlowGraph) -> list[Loop]:
    """All natural loops, sorted by (depth, header) — innermost last.

    Loops with the same header are merged (standard treatment of multiple
    back edges, e.g. ``continue`` statements).
    """
    idom = immediate_dominators(cfg)
    loops_by_header: dict[int, Loop] = {}

    for blk in cfg.blocks:
        if blk.bid not in idom:
            continue  # unreachable
        for succ in blk.succs:
            if succ in idom and dominates(idom, succ, blk.bid):
                loop = loops_by_header.setdefault(succ, Loop(header=succ, body={succ}))
                _grow_loop_body(cfg, loop, blk.bid)

    loops = list(loops_by_header.values())
    # Depth by containment: a loop nested in k other loops has depth k+1.
    for loop in loops:
        loop.depth = 1 + sum(
            1
            for other in loops
            if other is not loop
            and loop.header in other.body
            and loop.body < other.body
        )
    loops.sort(key=lambda lp: (lp.depth, lp.header))
    return loops


def _grow_loop_body(cfg: ControlFlowGraph, loop: Loop, tail: int) -> None:
    """Add to ``loop.body`` every block that reaches ``tail`` without
    passing through the header (classic worklist construction)."""
    if tail in loop.body:
        return
    stack = [tail]
    loop.body.add(tail)
    while stack:
        bid = stack.pop()
        for pred in cfg.predecessors(bid):
            if pred not in loop.body:
                loop.body.add(pred)
                stack.append(pred)


def innermost_loop_of_block(loops: list[Loop], bid: int) -> Loop | None:
    """The deepest loop containing block ``bid`` (``None`` if not in a loop)."""
    best: Loop | None = None
    for loop in loops:
        if bid in loop.body and (best is None or loop.depth > best.depth):
            best = loop
    return best
