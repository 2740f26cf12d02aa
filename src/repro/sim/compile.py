"""Block-compiled fast path for the functional simulator.

Where the native functional kernel (``sim/ooo/_functional.c``) is
loaded it runs every fast-path run it accepts; this interpreter runs the
rest: hosts without a C compiler, runs under ``native.disabled()``, and
the programs the kernel refuses. It is the kernel's fallback and, in
the differential tests, its first oracle, with the reference loop
behind both.

The reference interpreter (:meth:`FunctionalSimulator._run`) dispatches
every dynamic instruction on a small integer kind. This module removes
that per-instruction dispatch entirely: at first use the program is
partitioned into basic blocks and each block is compiled — threaded-code
/ superinstruction style — into one specialized Python function that

- keeps the block's architectural registers in Python locals (loaded
  once on entry, written back once on exit),
- inlines the ALU semantics as plain expressions (masked 32-bit
  arithmetic, compile-time-folded immediates) instead of calling the
  ``_EVAL`` dispatch table,
- appends the block's dynamic-trace entries in one bulk
  :meth:`~repro.sim.trace.DynTrace.extend` call, and
- returns the next static index (or ``-1`` for halt), so the outer
  dispatch loop runs once per *block*, not once per instruction.

The compiled path is semantics-preserving by construction and verified
bit-identical by differential tests (``tests/test_fastpath.py`` and the
:mod:`repro.fuzz` property campaign). ``ext`` instructions compile to a
call of their definition's straight-line evaluator
(:func:`compile_ext`, built from the same expression templates and
cached by the definition's structural key); the per-run ``{conf:
evaluator}`` table is passed into every block function, so the
per-program code cache stays valid across simulators with different
definitions. Anything the compiler does not handle falls back to the
reference single-step interpreter: dynamic jumps landing mid-block and
the last instructions before a ``max_steps`` budget expires. Profiling
runs (``profile=True``) use a separately compiled block variant that
counts one increment per *block* execution (scattered to
per-instruction ``exec_counts`` afterwards) and inlines the
bitwidth-maxima updates exactly where the reference loop performs them.
``REPRO_SIM_REFERENCE=1`` forces the reference loop everywhere (see
docs/simulator.md, "Fast path").

Compiled code is cached on the :class:`Program` instance, keyed by the
identity and length of its text list; programs are treated as immutable
after construction (the rewriter already builds new ``Program`` objects
rather than mutating in place).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError
from repro.isa.encoding import TEXT_BASE
from repro.isa.opcodes import Fmt, Opcode, opcode_info
from repro.isa.semantics import _EVAL
from repro.program.program import Program
from repro.utils.bitops import effective_width, to_u32

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.extdef import ExtInstDef
    from repro.sim.functional import FunctionalSimulator

_M = 4294967295          # 32-bit mask literal inlined into generated code
_CACHE_ATTR = "_compiled_blocks_cache"

#: ALU expression templates; ``{a}``/``{b}`` are operand expressions that
#: are either register locals or literal ints, ``{sa}``/``{sb}`` their
#: signed (two's complement) views.
_EXPR: dict[Opcode, str] = {
    Opcode.ADD: "(({a}) + ({b})) & 4294967295",
    Opcode.ADDU: "(({a}) + ({b})) & 4294967295",
    Opcode.ADDI: "(({a}) + ({b})) & 4294967295",
    Opcode.ADDIU: "(({a}) + ({b})) & 4294967295",
    Opcode.SUB: "(({a}) - ({b})) & 4294967295",
    Opcode.SUBU: "(({a}) - ({b})) & 4294967295",
    Opcode.AND: "({a}) & ({b})",
    Opcode.ANDI: "({a}) & ({b})",
    Opcode.OR: "({a}) | ({b})",
    Opcode.ORI: "({a}) | ({b})",
    Opcode.XOR: "({a}) ^ ({b})",
    Opcode.XORI: "({a}) ^ ({b})",
    Opcode.NOR: "(~(({a}) | ({b}))) & 4294967295",
    Opcode.SLT: "(1 if {sa} < {sb} else 0)",
    Opcode.SLTI: "(1 if {sa} < {sb} else 0)",
    Opcode.SLTU: "(1 if ({a}) < ({b}) else 0)",
    Opcode.SLTIU: "(1 if ({a}) < ({b}) else 0)",
    Opcode.SLL: "(({a}) << (({b}) & 31)) & 4294967295",
    Opcode.SLLV: "(({a}) << (({b}) & 31)) & 4294967295",
    Opcode.SRL: "({a}) >> (({b}) & 31)",
    Opcode.SRLV: "({a}) >> (({b}) & 31)",
    Opcode.SRA: "({sa} >> (({b}) & 31)) & 4294967295",
    Opcode.SRAV: "({sa} >> (({b}) & 31)) & 4294967295",
    Opcode.MUL: "({sa} * {sb}) & 4294967295",
}

_BRANCH_COND: dict[Opcode, str] = {
    Opcode.BEQ: "({a}) == ({b})",
    Opcode.BNE: "({a}) != ({b})",
    Opcode.BLEZ: "{sa} <= 0",
    Opcode.BGTZ: "{sa} > 0",
    Opcode.BLTZ: "{sa} < 0",
    Opcode.BGEZ: "{sa} >= 0",
}

_LOAD_READERS = {
    Opcode.LW: ("read_word", 4, False),
    Opcode.LH: ("read_half", 2, True),
    Opcode.LHU: ("read_half", 2, False),
    Opcode.LB: ("read_byte", 1, True),
    Opcode.LBU: ("read_byte", 1, False),
}
_STORE_WRITERS = {
    Opcode.SW: "write_word",
    Opcode.SH: "write_half",
    Opcode.SB: "write_byte",
}

_TERMINATOR_FMTS = (Fmt.BR2, Fmt.BR1, Fmt.J, Fmt.JR, Fmt.JALR)


def _effective_width_u32(v: int) -> int:
    """:func:`repro.utils.bitops.effective_width`, specialized to inputs
    already in ``[0, 2**32)`` (the register-file invariant) and flattened
    to one call frame — this runs three times per profiled ALU
    instruction. For sign-bit-clear values the unsigned width
    ``max(1, bit_length)`` is the min; for sign-bit-set values the
    unsigned width is 32 and the signed width is
    ``bit_length(~s) + 1 == bit_length(v ^ 0xFFFFFFFF) + 1``."""
    if v & 2147483648:
        w = (v ^ 4294967295).bit_length() + 1
        return w if w < 32 else 32
    return v.bit_length() or 1


def _signed(expr: str) -> str:
    """Two's-complement view of an unsigned-32 expression (inline, no
    function call; operands hold values in ``[0, 2**32)`` by invariant)."""
    return f"((({expr}) ^ 2147483648) - 2147483648)"


def _literal(value: int) -> tuple[str, str]:
    """Unsigned and signed source text of a ``[0, 2**32)`` constant."""
    signed = value - 0x1_0000_0000 if value & 0x8000_0000 else value
    return repr(value), repr(signed)


def _alu_expr(op: Opcode, operands: dict[str, str],
              consts: dict[str, object]) -> str | None:
    """Source of ALU ``op`` over ``operands`` (an ``_EXPR`` fill-in):
    the inline template, else a call of the ``_EVAL`` function bound into
    ``consts``, else None (no semantics)."""
    template = _EXPR.get(op)
    if template is not None:
        return template.format(**operands)
    fn = _EVAL.get(op)
    if fn is None:
        return None
    name = f"F_{op.name}"
    consts[name] = fn
    return f"{name}({operands['a']}, {operands['b']})"


def compile_ext(ext: "ExtInstDef") -> Callable[..., int]:
    """The straight-line evaluator of a PFU configuration.

    Equal to :meth:`ExtInstDef.evaluate` on ``[0, 2**32)`` inputs, which
    stays the oracle (the reference loop and single steps call it).
    Cached by :attr:`ExtInstDef.key` at module level, never on the
    definition: definitions are pickled into store artefacts and wire
    payloads.
    """
    return _compile_ext_key(ext.key)


@lru_cache(maxsize=4096)
def _compile_ext_key(key: tuple) -> Callable[..., int]:
    """Compile one definition from its structural key alone, so equal
    keys always share code: ``(op value, a ref, b ref)`` per node in
    topological order, then the input count."""
    consts: dict[str, object] = {}
    lines = []
    for j, (op_value, *refs) in enumerate(key[:-1]):
        operands = {}
        for slot, ref in zip("ab", refs):
            kind = ref[0]
            if kind == "imm":
                operands[slot], operands["s" + slot] = _literal(
                    ref[1] & 4294967295
                )
            elif kind == "zero":
                operands[slot] = operands["s" + slot] = "0"
            else:
                expr = f"i{ref[1]}" if kind == "in" else f"v{ref[1]}"
                operands[slot] = expr
                operands["s" + slot] = _signed(expr)
        lines.append(f"v{j} = {_alu_expr(Opcode(op_value), operands, consts)}")
    lines.append(f"return v{len(key) - 2}")
    source = "def E(i0, i1=0):\n    " + "\n    ".join(lines) + "\n"
    exec(compile(source, "<t1000-ext>", "exec"), consts)  # noqa: S102
    return consts["E"]


class CompiledProgram:
    """The compiled form of one program's text segment.

    ``entries[pc]`` is ``(block_fn, block_len)`` when ``pc`` starts a
    compiled basic block, else ``None`` (non-leader index, or a block
    the compiler declined — e.g. one containing an opcode with no
    expression template and no ``_EVAL`` entry).
    """

    __slots__ = ("entries", "n_blocks", "n_compiled")

    def __init__(self, entries: list, n_blocks: int, n_compiled: int):
        self.entries = entries
        self.n_blocks = n_blocks
        self.n_compiled = n_compiled


class _BlockCodegen:
    """Generates the source of one basic block's specialized function."""

    def __init__(self, program: Program, start: int, end: int,
                 consts: dict[str, object], profile: bool = False):
        self.program = program
        self.start = start
        self.end = end                      # exclusive
        self.consts = consts                # module-level constant pool
        self.profile = profile              # emit bitwidth-maxima updates
        self.lines: list[str] = []
        self.defined: set[int] = set()      # regs live in locals
        self.loads: list[int] = []          # prologue register loads
        self.addr_exprs: list[str] = []     # per-instruction trace addrs
        self.ext_locals: dict[int, str] = {}  # conf -> prologue-bound eval
        self.tmp = 0

    # -- operand helpers ------------------------------------------------

    def _read(self, reg: int | None) -> str:
        if not reg:
            return "0"
        if reg not in self.defined:
            self.defined.add(reg)
            self.loads.append(reg)
        return f"r{reg}"

    def _write(self, reg: int | None) -> str | None:
        if not reg:
            return None
        self.defined.add(reg)
        return f"r{reg}"

    def _alu_operands(self, op: Opcode, a, b) -> dict[str, str]:
        """Expression fragments for an ALU template. ``a``/``b`` are
        register numbers (int, read) or ``("imm", value)`` literals."""
        out = {}
        for key, operand in (("a", a), ("b", b)):
            if isinstance(operand, tuple):
                out[key], out["s" + key] = _literal(operand[1])
            else:
                expr = self._read(operand)
                out[key] = expr
                out["s" + key] = "0" if expr == "0" else _signed(expr)
        return out

    def _emit_operand_width(self, index: int, ops, exprs) -> None:
        """Inline the reference loop's max-operand-width update for an ALU
        instruction: runtime ``effective_width`` calls for register
        operands, compile-time-folded widths for immediates and ``$zero``
        (``effective_width(0) == 1``)."""
        const_w = 0
        runtime: list[str] = []
        for key, operand in zip(("a", "b"), ops):
            if isinstance(operand, tuple):
                w = effective_width(operand[1])
                if w > const_w:
                    const_w = w
            elif exprs[key] == "0":
                if const_w < 1:
                    const_w = 1
            else:
                runtime.append(exprs[key])
        if not runtime:
            self.lines.append(
                f"if {const_w} > mow[{index}]: mow[{index}] = {const_w}"
            )
            return
        self.lines.append(f"pw = EW({runtime[0]})")
        if len(runtime) == 2:
            self.lines.append(f"pw2 = EW({runtime[1]})")
            self.lines.append("if pw2 > pw: pw = pw2")
        if const_w:
            self.lines.append(f"if pw < {const_w}: pw = {const_w}")
        self.lines.append(f"if pw > mow[{index}]: mow[{index}] = pw")

    # -- per-instruction emission --------------------------------------

    def emit(self, index: int) -> bool:
        """Emit code for the instruction at ``index``; False = give up."""
        instr = self.program.text[index]
        op = instr.op
        fmt = opcode_info(op).fmt
        addr_expr = "-1"

        if fmt is Fmt.R3 or fmt is Fmt.R2_IMM or fmt is Fmt.SHIFT_IMM:
            if fmt is Fmt.R3:
                dst = instr.rd
                a_op, b_op = instr.rs, instr.rt
            elif fmt is Fmt.R2_IMM:
                dst = instr.rt
                a_op, b_op = instr.rs, ("imm", to_u32(instr.imm or 0))
            else:  # SHIFT_IMM
                dst = instr.rd
                a_op, b_op = instr.rs, ("imm", instr.imm or 0)
            operands = self._alu_operands(op, a_op, b_op)
            expr = _alu_expr(op, operands, self.consts)
            if expr is None:
                return False
            if self.profile:
                # operand widths are read pre-execution: the write below
                # may clobber a source local when dst aliases an operand
                self._emit_operand_width(index, (a_op, b_op), operands)
            target = self._write(dst)
            if self.profile:
                if target is None:
                    # result width is profiled even for a $zero dst
                    target = f"a{self.tmp}"
                    self.tmp += 1
                self.lines.append(f"{target} = {expr}")
                self.lines.append(f"prw = EW({target})")
                self.lines.append(f"if prw > mrw[{index}]: mrw[{index}] = prw")
            elif target is not None:
                self.lines.append(f"{target} = {expr}")
        elif fmt is Fmt.LUI:
            value = to_u32((instr.imm or 0) << 16)
            target = self._write(instr.rt)
            if target is not None:
                self.lines.append(f"{target} = {value}")
        elif fmt is Fmt.MEM:
            base = self._read(instr.rs)
            off = instr.imm or 0
            a = f"a{self.tmp}"
            self.tmp += 1
            self.lines.append(f"{a} = (({base}) + ({off})) & 4294967295")
            addr_expr = a
            if instr.is_load:
                reader, _size, signed = _LOAD_READERS[op]
                target = self._write(instr.rt)
                dst = target or f"a{self.tmp}"
                if target is None:
                    self.tmp += 1
                self.lines.append(f"{dst} = mem.{reader}({a})")
                if signed:
                    bit, ext = (
                        (0x8000, 0xFFFF_0000) if op is Opcode.LH
                        else (0x80, 0xFFFF_FF00)
                    )
                    self.lines.append(f"if {dst} & {bit}:")
                    self.lines.append(f"    {dst} |= {ext}")
            else:
                value = self._read(instr.rt)
                writer = _STORE_WRITERS[op]
                self.lines.append(f"mem.{writer}({a}, {value})")
        elif fmt in (Fmt.BR2, Fmt.BR1):
            cond_t = _BRANCH_COND[op]
            a = self._read(instr.rs)
            b = self._read(instr.rt or 0) if fmt is Fmt.BR2 else "0"
            cond = cond_t.format(
                a=a, b=b, sa="0" if a == "0" else _signed(a),
            )
            target = self.program.target_index(instr)
            self._finish(index, f"return {target} if {cond} else {index + 1}")
        elif fmt is Fmt.J:
            target = self.program.target_index(instr)
            if op is Opcode.JAL:
                link = self._write(31)
                self.lines.append(f"{link} = {TEXT_BASE + 4 * (index + 1)}")
            self._finish(index, f"return {target}")
        elif fmt is Fmt.JR:
            src = self._read(instr.rs)
            self._finish(index, f"return IOF({src})")
        elif fmt is Fmt.JALR:
            src = self._read(instr.rs)
            t = f"a{self.tmp}"
            self.tmp += 1
            self.lines.append(f"{t} = IOF({src})")
            link = self._write(instr.rd)
            if link is not None:
                self.lines.append(f"{link} = {TEXT_BASE + 4 * (index + 1)}")
            self._finish(index, f"return {t}")
        elif fmt is Fmt.EXT:
            a = self._read(instr.rs)
            b = self._read(instr.rt or 0)
            conf = instr.conf if instr.conf is not None else -1
            name = self.ext_locals.get(conf)
            if name is None:
                name = f"x{conf}" if conf >= 0 else "x_m1"
                self.ext_locals[conf] = name
            if self.profile:
                # ext profiles operand widths only (no result width)
                self._emit_operand_width(
                    index, (instr.rs, instr.rt or 0), {"a": a, "b": b}
                )
            target = self._write(instr.rd)
            if target is None:
                # the evaluator is still called for a $zero dst, like
                # the reference loop (it may raise; discarding is not
                # eliding)
                target = f"a{self.tmp}"
                self.tmp += 1
            self.lines.append(f"{target} = {name}({a}, {b})")
        elif op is Opcode.HALT:
            self._finish(index, "return -1")
        elif op is Opcode.NOP:
            pass
        else:
            return False

        self.addr_exprs.append(addr_expr)
        return True

    # -- block assembly -------------------------------------------------

    def _finish(self, index: int, return_stmt: str) -> None:
        """Write-back + trace flush + return (terminator path)."""
        self.addr_exprs.append("-1")
        self._epilogue()
        self.addr_exprs.pop()
        self.lines.append(return_stmt)

    def _epilogue(self) -> None:
        for reg in sorted(self.defined):
            self.lines.append(f"regs[{reg}] = r{reg}")
        length = self.end - self.start
        idx_name = f"I{self.start}"
        self.consts[idx_name] = tuple(range(self.start, self.end))
        addrs = self.addr_exprs + ["-1"] * (length - len(self.addr_exprs))
        if all(a == "-1" for a in addrs):
            adr_name = f"A{self.start}"
            self.consts[adr_name] = (-1,) * length
            adr_expr = adr_name
        else:
            adr_expr = "(" + ", ".join(addrs) + ("," if length == 1 else "") + ")"
        self.lines.append("if ti is not None:")
        self.lines.append(f"    ti({idx_name})")
        self.lines.append(f"    ta({adr_expr})")

    def render(self) -> str | None:
        """The full function source, or None if the block is uncompilable."""
        end_reached = True
        for index in range(self.start, self.end):
            if not self.emit(index):
                return None
            fmt = opcode_info(self.program.text[index].op).fmt
            if fmt in _TERMINATOR_FMTS or self.program.text[index].op is Opcode.HALT:
                end_reached = False
        if end_reached:
            # fall-through block (next leader follows immediately)
            self._epilogue()
            self.lines.append(f"return {self.end}")
        prologue = [f"r{reg} = regs[{reg}]" for reg in self.loads]
        prologue += [
            f"{name} = xe[{conf}]"
            for conf, name in sorted(self.ext_locals.items())
        ]
        body = prologue + self.lines
        text = "\n    ".join(body) if body else "pass"
        args = (
            "regs, mem, ti, ta, xe, mow, mrw" if self.profile
            else "regs, mem, ti, ta, xe"
        )
        return f"def B{self.start}({args}):\n    {text}\n"


def _block_starts(program: Program) -> list[int]:
    """Leader indices: entry, every label, every branch target, and every
    instruction following a control transfer or halt."""
    n = len(program.text)
    leaders = {0}
    for idx in program.labels.values():
        if 0 <= idx < n:
            leaders.add(idx)
    for i, instr in enumerate(program.text):
        fmt = opcode_info(instr.op).fmt
        if fmt in _TERMINATOR_FMTS or instr.op is Opcode.HALT:
            if i + 1 < n:
                leaders.add(i + 1)
            if fmt in (Fmt.BR2, Fmt.BR1, Fmt.J):
                target = program.target_index(instr)
                if 0 <= target < n:
                    leaders.add(target)
    return sorted(leaders)


def compile_blocks(program: Program, profile: bool = False) -> CompiledProgram:
    """Compile ``program``'s basic blocks (cached on the instance).

    The plain and profiling variants are compiled and cached
    independently — profiling blocks carry the inline bitwidth updates
    and take the two maxima arrays as extra arguments."""
    cache = program.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        program.__dict__[_CACHE_ATTR] = cache
    cached = cache.get(profile)
    if cached is not None:
        text_id, n, compiled = cached
        if text_id == id(program.text) and n == len(program.text):
            return compiled

    n = len(program.text)
    starts = _block_starts(program)
    consts: dict[str, object] = {
        "IOF": program.index_of_pc,
        "SimulationError": SimulationError,
    }
    if profile:
        consts["EW"] = _effective_width_u32
    sources: list[str] = []
    spans: list[tuple[int, int]] = []
    for bi, start in enumerate(starts):
        limit = starts[bi + 1] if bi + 1 < len(starts) else n
        end = limit
        for i in range(start, limit):
            instr = program.text[i]
            fmt = opcode_info(instr.op).fmt
            if fmt in _TERMINATOR_FMTS or instr.op is Opcode.HALT:
                end = i + 1
                break
        gen = _BlockCodegen(program, start, end, consts, profile)
        src = gen.render()
        if src is not None:
            sources.append(src)
            spans.append((start, end))

    entries: list = [None] * n
    n_compiled = 0
    if sources:
        namespace = dict(consts)
        tag = ":profile" if profile else ""
        code = compile(
            "\n".join(sources), f"<t1000-blocks:{program.name}{tag}>", "exec"
        )
        exec(code, namespace)  # noqa: S102 - trusted, self-generated source
        for start, end in spans:
            entries[start] = (namespace[f"B{start}"], end - start)
            n_compiled += 1

    compiled = CompiledProgram(entries, len(starts), n_compiled)
    cache[profile] = (id(program.text), n, compiled)
    return compiled


def run_compiled(
    sim: "FunctionalSimulator",
    max_steps: int,
    collect_trace: bool,
    entry_label: str,
    profile: bool = False,
):
    """Execute ``sim.program`` through the block-compiled fast path.

    Blocks the compiler declined, dynamic-jump entries into the
    middle of a block, and the final instructions of a near-exhausted
    step budget all run through the reference single-step interpreter
    (:meth:`FunctionalSimulator._step_one`), so observable behaviour —
    registers, memory, trace, step counts, and error conditions — is
    identical to the reference loop.

    With ``profile``, execution counts are tallied one increment per
    *block* execution (a basic block is straight-line: every entry runs
    all of it) and scattered to per-instruction counts at the end; the
    bitwidth maxima are updated inline by the profiling block variant.
    Fallback single steps profile individually via ``_step_one``.
    """
    from repro.program.program import STACK_TOP
    from repro.sim.functional import BitwidthProfile, ExecutionResult
    from repro.sim.trace import DynTrace

    program = sim.program
    compiled = compile_blocks(program, profile)
    entries = compiled.entries
    n = len(program.text)
    regs = [0] * 32
    regs[29] = STACK_TOP
    mem = sim.memory
    trace = DynTrace() if collect_trace else None
    ti = trace.indices.extend if trace is not None else None
    ta = trace.addrs.extend if trace is not None else None
    xe = {conf: compile_ext(ext) for conf, ext in sim.ext_defs.items()}

    counts = [0] * n if profile else None
    widths = BitwidthProfile.empty(n) if profile else None
    block_execs = [0] * n if profile else None

    pc = program.labels.get(entry_label, 0)
    steps = 0
    halted = False
    if profile:
        mow = widths.max_operand_width
        mrw = widths.max_result_width
        while True:
            if pc == -1:
                halted = True
                break
            if steps >= max_steps:
                break
            if not 0 <= pc < n:
                raise SimulationError(f"PC out of text segment: index {pc}")
            entry = entries[pc]
            if entry is not None and steps + entry[1] <= max_steps:
                steps += entry[1]
                block_execs[pc] += 1
                pc = entry[0](regs, mem, ti, ta, xe, mow, mrw)
            else:
                pc = sim._step_one(pc, regs, trace, counts, widths)
                steps += 1
        for start, entry in enumerate(entries):
            if entry is not None:
                c = block_execs[start]
                if c:
                    for i in range(start, start + entry[1]):
                        counts[i] += c
    else:
        while True:
            if pc == -1:
                halted = True
                break
            if steps >= max_steps:
                break
            if not 0 <= pc < n:
                raise SimulationError(f"PC out of text segment: index {pc}")
            entry = entries[pc]
            if entry is not None and steps + entry[1] <= max_steps:
                steps += entry[1]
                pc = entry[0](regs, mem, ti, ta, xe)
            else:
                # uncompiled block, mid-block entry from a dynamic
                # jump, or fewer than a block's worth of budget left
                pc = sim._step_one(pc, regs, trace)
                steps += 1

    if not halted and steps >= max_steps:
        raise SimulationError(f"program did not halt within {max_steps} steps")

    return ExecutionResult(
        steps=steps,
        halted=halted,
        regs=regs,
        memory=mem,
        trace=trace,
        exec_counts=counts,
        bitwidths=widths,
        program=program,
    )
