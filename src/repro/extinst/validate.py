"""Semantic-equivalence validation of rewritten programs.

The rewriter's correctness argument is structural (liveness + input
consistency); this module provides the dynamic check: run original and
rewritten programs and compare observable state. Two kinds of divergence
are legitimate and excluded from the comparison:

- folded interior registers (their defining instructions were deleted
  precisely because the values were dead);
- stack frames: rewriting deletes instructions, so return addresses
  (``jal``'s saved ``$ra``) are different *numbers* for the same control
  flow, and those values get spilled into frames.

What is compared: the full data/heap segments exactly; the stack region
word-by-word with one exemption — a mismatching word is benign when
*both* sides hold text-segment addresses (a spilled return address whose
numeric value shifted with the deleted instructions); the function-result
registers ``$v0``/``$v1``; the stack-pointer balance; and clean halting.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ExtInstError, SimulationError
from repro.extinst.extdef import ExtInstDef
from repro.program.program import Program
from repro.sim.functional import ExecutionResult, FunctionalSimulator
from repro.sim.memory import PAGE_BITS

_V0, _V1 = 2, 3
_SP = 29
#: pages at or above this address hold the stack (frames may contain
#: saved return addresses, which legitimately differ after rewriting)
STACK_REGION_BASE = 0x7000_0000


def memory_snapshot(memory, include_stack: bool = False) -> dict[int, bytes]:
    """Non-empty pages of a simulator memory, for comparison."""
    stack_page = STACK_REGION_BASE >> PAGE_BITS
    return {
        page: bytes(data)
        for page, data in memory._pages.items()
        if any(data) and (include_stack or page < stack_page)
    }


def validate_equivalence(
    original: Program,
    rewritten: Program,
    ext_defs: Mapping[int, ExtInstDef],
    max_steps: int = 50_000_000,
    *,
    reference: ExecutionResult | None = None,
    collect_trace: bool = False,
) -> ExecutionResult:
    """Run both programs; raise :class:`ExtInstError` on any divergence.

    ``reference`` is a finished run of ``original`` (the same
    :class:`Program` object) to compare against instead of running it
    again; it must fit in ``max_steps`` like a fresh run would. Returns
    the rewritten program's run, carrying its dynamic trace when
    ``collect_trace`` is set.
    """
    if reference is None:
        res_a = FunctionalSimulator(original).run(max_steps=max_steps)
    elif reference.program is not original:
        raise ValueError("reference is not a run of the original program")
    elif reference.steps > max_steps:
        raise SimulationError(f"program did not halt within {max_steps} steps")
    else:
        res_a = reference
    res_b = FunctionalSimulator(rewritten, ext_defs=ext_defs).run(
        max_steps=max_steps, collect_trace=collect_trace
    )

    if not (res_a.halted and res_b.halted):
        raise ExtInstError("one of the programs did not halt cleanly")
    if res_a.regs[_SP] != res_b.regs[_SP]:
        raise ExtInstError(
            f"stack pointers diverged: "
            f"{res_a.regs[_SP]:#x} vs {res_b.regs[_SP]:#x}"
        )
    for reg in (_V0, _V1):
        if res_a.regs[reg] != res_b.regs[reg]:
            raise ExtInstError(
                f"result register ${reg} differs: "
                f"{res_a.regs[reg]:#x} vs {res_b.regs[reg]:#x}"
            )
    mem_a = memory_snapshot(res_a.memory, include_stack=True)
    mem_b = memory_snapshot(res_b.memory, include_stack=True)
    if mem_a.keys() != mem_b.keys():
        raise ExtInstError(
            f"memory page sets differ: {sorted(mem_a)} vs {sorted(mem_b)}"
        )
    stack_page = STACK_REGION_BASE >> PAGE_BITS
    text_lo = 0x0040_0000
    text_hi_a = text_lo + 4 * (len(original.text) + 1)
    text_hi_b = text_lo + 4 * (len(rewritten.text) + 1)
    for page in mem_a:
        data_a, data_b = mem_a[page], mem_b[page]
        if data_a == data_b:
            continue
        if page < stack_page:
            raise ExtInstError(f"memory page {page:#x} contents differ")
        # stack region: allow shifted return addresses only
        for off in range(0, len(data_a), 4):
            wa = int.from_bytes(data_a[off : off + 4], "little")
            wb = int.from_bytes(data_b[off : off + 4], "little")
            if wa == wb:
                continue
            if text_lo <= wa < text_hi_a and text_lo <= wb < text_hi_b:
                continue  # both are code addresses: a relocated $ra spill
            raise ExtInstError(
                f"stack word at {(page << PAGE_BITS) + off:#x} differs: "
                f"{wa:#x} vs {wb:#x}"
            )
    return res_b


def dynamic_instruction_reduction(
    original: Program,
    rewritten: Program,
    ext_defs: Mapping[int, ExtInstDef],
    max_steps: int = 50_000_000,
) -> float:
    """Fraction of dynamic instructions removed by folding (diagnostic)."""
    steps_a = FunctionalSimulator(original).run(max_steps=max_steps).steps
    steps_b = FunctionalSimulator(rewritten, ext_defs=ext_defs).run(
        max_steps=max_steps
    ).steps
    return 1.0 - steps_b / steps_a
