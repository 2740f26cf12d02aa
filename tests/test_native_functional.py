"""The native functional kernel (``sim/ooo/_functional.c``).

The kernel is the functional simulator's first fast path; the
block-compiled interpreter is its fallback and the reference loop the
oracle of both. Every case here runs a program through all three and
requires the same answer: the same steps, registers, memory (stack
included), trace, execution counts and bitwidth profile, or the same
exception type and message with the same memory left behind. The kernel
must actually have run each case when it is loaded (a silent refusal
would make the comparison vacuous), except where a case is about a
refusal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.engine import get_default_pipeline
from repro.errors import SimulationError
from repro.extinst import SelectionParams
from repro.extinst.extdef import ExtInstDef, ExtOp, sequential_chain
from repro.extinst.validate import memory_snapshot
from repro.fuzz import check_functional
from repro.isa.encoding import TEXT_BASE
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.program.program import DATA_BASE, Program
from repro.sim.functional import FunctionalSimulator
from repro.sim.memory import PAGE_MASK, Memory
from repro.sim.ooo import native
from repro.workloads import WORKLOAD_NAMES

from test_fastpath import ext_defs, u32

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
#: the operands every edge table crosses
VALUES = (0, 1, -1, INT_MIN, INT_MAX, 0x8000, 0x80)
#: second operands: the values plus shift amounts at and past 32
SECOND = VALUES + (31, 32, 33, 64)

T0, T1, T2, S1, V0, A0, RA = 8, 9, 10, 17, 2, 4, 31
#: where the tables store their results: a page no image maps
OUT = DATA_BASE + 0x40000


def I(op, **fields) -> Instruction:
    return Instruction(op, **fields)


def li(reg: int, value: int) -> list[Instruction]:
    """``reg`` = ``value`` (any 32-bit pattern), in two instructions."""
    value &= 0xFFFF_FFFF
    return [I(Opcode.LUI, rt=reg, imm=value >> 16),
            I(Opcode.ORI, rt=reg, rs=reg, imm=value & 0xFFFF)]


def program(text: list[Instruction], labels=None, data=b"",
            name="edge") -> Program:
    labels = dict(labels or {})
    labels.setdefault("main", 0)
    return Program(text=list(text), labels=labels, data=data, name=name)


@pytest.fixture
def kernel_runs(monkeypatch):
    """How each :func:`native.functional` call answered: True when the
    kernel ran, False when it refused."""
    seen = []
    inner = native.functional

    def spy(*args, **kwargs):
        got = inner(*args, **kwargs)
        seen.append(got is not None)
        return got

    monkeypatch.setattr(native, "functional", spy)
    return seen


def _run(prog, defs, compile_blocks, memory, kwargs):
    sim = FunctionalSimulator(prog, ext_defs=defs, memory=memory(),
                              compile_blocks=compile_blocks)
    try:
        result = sim.run(**kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc),
                memory_snapshot(sim.memory, include_stack=True),
                sim.memory.mapped_pages())
    out = ["ok", result.steps, result.halted, result.regs,
           memory_snapshot(result.memory, include_stack=True),
           result.memory.mapped_pages()]
    if result.trace is not None:
        out += [result.trace.indices.tolist(), result.trace.addrs.tolist()]
    if result.exec_counts is not None:
        out += [result.exec_counts, result.bitwidths.max_operand_width,
                result.bitwidths.max_result_width]
    return tuple(out)


def outcomes(prog, defs=None, memory=Memory, **kwargs) -> dict:
    """The native, block-compiled and reference outcome of one run."""
    kwargs.setdefault("collect_trace", True)
    kwargs.setdefault("profile", True)
    got = {"native": _run(prog, defs, None, memory, kwargs)}
    with native.disabled():
        got["blocks"] = _run(prog, defs, True, memory, kwargs)
    got["reference"] = _run(prog, defs, False, memory, kwargs)
    return got


def assert_same(got: dict, kernel_runs: list) -> tuple:
    assert got["native"] == got["reference"]
    assert got["blocks"] == got["reference"]
    if native.available():
        assert kernel_runs and all(kernel_runs), "the kernel did not run"
    return got["reference"]


# ----------------------------------------------------------------------
# per-opcode edge tables


def _table(op_rows) -> Program:
    """One program: for each ``(a, b, instructions)`` set $t0/$t1 to
    ``a``/``b``, run the instructions (which leave a result in $t2) and
    store $t2 at the next word of ``OUT``."""
    text = li(S1, OUT)
    for k, (a, b, body) in enumerate(op_rows):
        text += li(T0, a) + li(T1, b) + body
        text.append(I(Opcode.SW, rt=T2, rs=S1, imm=4 * k))
    text.append(I(Opcode.HALT))
    return program(text)


R3_OPS = [Opcode.ADD, Opcode.ADDU, Opcode.SUB, Opcode.SUBU, Opcode.AND,
          Opcode.OR, Opcode.XOR, Opcode.NOR, Opcode.SLT, Opcode.SLTU,
          Opcode.SLLV, Opcode.SRLV, Opcode.SRAV, Opcode.MUL, Opcode.DIV,
          Opcode.REM]


@pytest.mark.parametrize("op", R3_OPS, ids=lambda op: op.value)
def test_register_alu_edge_table(op, kernel_runs):
    """Every register ALU op over every operand pair: INT_MIN / -1 and
    x / 0 for div and rem, shifts by 32 and more, sra of negatives and
    mul overflow among them; also into $zero (its result width is
    profiled) and with a source aliasing the destination."""
    rows = [(a, b, [I(op, rd=T2, rs=T0, rt=T1)])
            for a in VALUES for b in SECOND]
    rows += [(a, b, [I(op, rd=0, rs=T0, rt=T1), I(op, rd=T2, rs=T2, rt=T0)])
             for a in VALUES for b in (0, -1)]
    assert_same(outcomes(_table(rows)), kernel_runs)


IMM_OPS = [Opcode.ADDI, Opcode.ADDIU, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
           Opcode.SLTI, Opcode.SLTIU, Opcode.SLL, Opcode.SRL, Opcode.SRA]
IMMEDIATES = (0, 1, -1, 0x7FFF, -0x8000, 0x80, 0x8000, 0xFFFF, 31, 32, 33,
              40)


@pytest.mark.parametrize("op", IMM_OPS, ids=lambda op: op.value)
def test_immediate_alu_edge_table(op, kernel_runs):
    """Immediate forms, shift amounts past 31 and negative immediates
    included (the reference sees them through to_u32)."""
    field = "rd" if op in (Opcode.SLL, Opcode.SRL, Opcode.SRA) else "rt"
    rows = [(a, 0, [I(op, rs=T0, imm=imm, **{field: T2})])
            for a in VALUES for imm in IMMEDIATES]
    assert_same(outcomes(_table(rows)), kernel_runs)


def test_lui_edge_table(kernel_runs):
    rows = [(0, 0, [I(Opcode.LUI, rt=T2, imm=imm)])
            for imm in (0, 1, 0x80, 0x7FFF, 0x8000, 0xFFFF, -1, 0x1_0001)]
    rows.append((0, 0, [I(Opcode.LUI, rt=0, imm=5),
                        I(Opcode.ADDU, rd=T2, rs=0, rt=0)]))
    assert_same(outcomes(_table(rows)), kernel_runs)


def test_loads_sign_and_zero_extend(kernel_runs):
    """lh/lb sign-extend, lhu/lbu do not, at every offset of a word; a
    read of an unmapped page reads 0 and maps nothing."""
    text = li(S1, OUT) + li(T0, 0x80FF_7F80)
    text.append(I(Opcode.SW, rt=T0, rs=S1, imm=0))
    rows = []
    for op, step in ((Opcode.LB, 1), (Opcode.LBU, 1), (Opcode.LH, 2),
                     (Opcode.LHU, 2), (Opcode.LW, 4)):
        for off in range(0, 4, step):
            rows.append(I(op, rt=T2, rs=S1, imm=off))
            rows.append(I(Opcode.SW, rt=T2, rs=S1, imm=16 + 4 * len(rows)))
    rows.append(I(Opcode.LW, rt=T2, rs=S1, imm=0x20000))
    rows.append(I(Opcode.LB, rt=0, rs=S1, imm=3))
    got = assert_same(outcomes(program(text + rows + [I(Opcode.HALT)])),
                      kernel_runs)
    assert got[0] == "ok"


@pytest.mark.parametrize("case", [
    "lw+2", "lw+1", "lh+1", "lhu+3", "sw+2", "sw+1", "sh+1",
])
def test_misaligned_access(case, kernel_runs):
    """The same MemoryFault, and the stores before it in memory."""
    name, off = case.split("+")
    op = Opcode(name)
    text = li(S1, OUT) + li(T0, 0x1234_5678)
    text.append(I(Opcode.SW, rt=T0, rs=S1, imm=8))
    if op in (Opcode.SW, Opcode.SH):
        text.append(I(op, rt=T0, rs=S1, imm=int(off)))
    else:
        text.append(I(op, rt=T2, rs=S1, imm=int(off)))
    text.append(I(Opcode.HALT))
    got = assert_same(outcomes(program(text)), kernel_runs)
    assert got[0] == "raised" and "misaligned" in got[2]


def test_strict_memory_faults_on_unmapped_reads(kernel_runs):
    data = bytes(range(1, 41))
    text = li(S1, DATA_BASE) + [
        I(Opcode.LW, rt=T0, rs=S1, imm=4),          # the image: mapped
        I(Opcode.SW, rt=T0, rs=S1, imm=0x30000),    # maps a new page
        I(Opcode.LW, rt=T1, rs=S1, imm=0x30000),
        I(Opcode.LB, rt=T2, rs=S1, imm=0x50001),    # unmapped: faults
        I(Opcode.HALT),
    ]
    got = assert_same(outcomes(program(text, data=data),
                               memory=lambda: Memory(strict=True)),
                      kernel_runs)
    assert got[0] == "raised"
    assert got[2] == f"read from unmapped address {DATA_BASE + 0x50001:#010x}"
    # without the fault the strict run halts
    ok = assert_same(outcomes(program(text[:-2] + [I(Opcode.HALT)],
                                      data=data),
                              memory=lambda: Memory(strict=True)),
                     kernel_runs)
    assert ok[0] == "ok"


@pytest.mark.parametrize("case", [
    "jr_misaligned", "jr_below_text", "jr_past_text", "jalr_misaligned",
    "jalr_past_text", "jalr_link_alias", "jal_jr_return", "entry_at_end",
])
def test_jumps(case, kernel_runs):
    """Bad and out-of-text jr/jalr targets raise what the reference
    raises; good ones link and return as it does."""
    target = {
        "jr_misaligned": TEXT_BASE + 6, "jr_below_text": 0x100,
        "jr_past_text": TEXT_BASE + 4 * 1000,
        "jalr_misaligned": TEXT_BASE + 1,
        "jalr_past_text": TEXT_BASE + 4 * 50,
        "jalr_link_alias": TEXT_BASE + 4 * 8,
    }.get(case, 0)
    text = li(T0, target)
    if case.startswith("jr"):
        text.append(I(Opcode.JR, rs=T0))
    elif case == "jalr_link_alias":
        text.append(I(Opcode.JALR, rd=T0, rs=T0))
    elif case.startswith("jalr"):
        text.append(I(Opcode.JALR, rd=RA, rs=T0))
    elif case == "jal_jr_return":
        text.append(I(Opcode.JAL, target="fn"))
    else:
        text.append(I(Opcode.NOP))
    text += [I(Opcode.ADDIU, rt=V0, rs=V0, imm=1), I(Opcode.HALT),
             I(Opcode.ADDIU, rt=V0, rs=V0, imm=7), I(Opcode.JR, rs=RA),
             I(Opcode.HALT), I(Opcode.ADDIU, rt=A0, rs=T0, imm=0),
             I(Opcode.HALT)]
    labels = {"fn": 5}
    if case == "entry_at_end":
        labels["main"] = len(text)
    got = assert_same(outcomes(program(text, labels)), kernel_runs)
    if case in ("jal_jr_return", "jalr_link_alias"):
        assert got[0] == "ok"
    else:
        assert got[0] == "raised"


def _loop(iterations: int) -> Program:
    """A counted loop of a 6-instruction block with a store."""
    text = li(S1, OUT) + [
        I(Opcode.ADDIU, rt=T0, rs=0, imm=iterations),
        I(Opcode.ADDU, rd=T1, rs=T1, rt=T0),
        I(Opcode.SLL, rd=T2, rs=T1, imm=3),
        I(Opcode.XOR, rd=T1, rs=T1, rt=T2),
        I(Opcode.SW, rt=T1, rs=S1, imm=0),
        I(Opcode.ADDIU, rt=T0, rs=T0, imm=-1),
        I(Opcode.BGTZ, rs=T0, target="loop"),
        I(Opcode.HALT),
    ]
    return program(text, {"loop": 3})


@pytest.mark.parametrize("max_steps", [
    -1, 0, 1, 2, 3, 4, 5, 6, 8, 11, 30, 62, 63, 64, 65, 2**70,
])
def test_step_budget(max_steps, kernel_runs):
    """A budget that runs out anywhere, mid-block included, raises what
    the reference raises; one that covers the run (64 steps) does not."""
    got = assert_same(outcomes(_loop(10), max_steps=max_steps), kernel_runs)
    assert got[0] == ("ok" if max_steps >= 64 else "raised")


@pytest.mark.parametrize("start", [1, 7, 1 << 13])
def test_trace_columns_grow(start, monkeypatch, kernel_runs):
    """Full trace columns resume the run after growing, from any start
    size, and the finished columns hold exactly the run."""
    monkeypatch.setattr(native, "_TRACE_START", start)
    iterations = 40 if start < 100 else 11_000
    got = assert_same(outcomes(_loop(iterations)), kernel_runs)
    assert got[0] == "ok" and len(got[6]) == got[1]


def test_stores_map_pages_anywhere(kernel_runs):
    """Stores to new pages, the last word of the address space and an
    address that wraps past 2**32 map the pages the reference maps."""
    text = li(T0, 0xDEAD_BEEF)
    for base, off in ((0xFFFF_FFF0, 12), (0xFFFF_FFFC, 8), (0x0, 0x10),
                      (0x7FFF_0000, -4), (OUT, 0x1_0000 - 2)):
        text += li(S1, base)
        store = Opcode.SH if off % 4 else Opcode.SW
        text.append(I(store, rt=T0, rs=S1, imm=off))
        text.append(I(Opcode.LBU, rt=T2, rs=S1, imm=off))
    text.append(I(Opcode.HALT))
    got = assert_same(outcomes(program(text)), kernel_runs)
    assert got[0] == "ok"


# ----------------------------------------------------------------------
# ext instructions


def _ext_program(defs: dict, values=VALUES) -> Program:
    """Every configuration of ``defs`` over every operand pair, results
    stored to ``OUT``; one call writes $zero, one reads one register
    twice."""
    rows = []
    for conf in defs:
        rows += [(a, b, [I(Opcode.EXT, rd=T2, rs=T0, rt=T1, conf=conf)])
                 for a in values for b in values]
        rows.append((3, 5, [I(Opcode.EXT, rd=0, rs=T0, rt=T1, conf=conf),
                            I(Opcode.EXT, rd=T2, rs=T0, rt=T0, conf=conf)]))
    return _table(rows)


EDGE_DEFS = {
    1: sequential_chain([(Opcode.MUL, ("in", 0), ("in", 1)),
                         (Opcode.SRA, ("node", 0), ("imm", 33))]),
    2: sequential_chain([(Opcode.DIV, ("in", 0), ("in", 1)),
                         (Opcode.REM, ("in", 0), ("node", 0)),
                         (Opcode.ADDU, ("node", 1), ("node", 0))]),
    3: sequential_chain([(Opcode.LUI, ("zero",), ("imm", 0x1_8001)),
                         (Opcode.OR, ("node", 0), ("in", 0)),
                         (Opcode.SRAV, ("node", 1), ("in", 1))]),
    4: sequential_chain([(Opcode.REM, ("in", 0), ("imm", -1)),
                         (Opcode.DIV, ("imm", INT_MIN), ("node", 0)),
                         (Opcode.SLTU, ("node", 1), ("in", 1))]),
    7: sequential_chain([(Opcode.SLL, ("in", 0), ("imm", 40)),
                         (Opcode.NOR, ("node", 0), ("zero",)),
                         (Opcode.SLT, ("node", 1), ("in", 0))]),
}


def test_ext_edge_table(kernel_runs):
    """Configurations with mul, div, rem, sra and lui nodes, immediates
    and the zero operand, over every operand pair."""
    got = assert_same(outcomes(_ext_program(EDGE_DEFS), EDGE_DEFS),
                      kernel_runs)
    assert got[0] == "ok"


@settings(max_examples=60, deadline=None)
@given(ext_defs(), u32, u32)
def test_random_ext_dags(ext, a, b):
    got = outcomes(_ext_program({5: ext}, values=(a, b)), {5: ext})
    assert got["native"] == got["blocks"] == got["reference"]


def test_kernel_refuses_a_third_input(kernel_runs):
    """A node reading input 2 has no operand in an ``ext`` instruction's
    two register reads: construction raises, on every path alike, and
    no kernel run starts."""
    wide = ExtInstDef(nodes=(ExtOp(Opcode.ADDU, ("in", 0), ("in", 2)),),
                      n_inputs=3)
    prog = _ext_program({9: wide}, values=(5,))
    got = {}
    for path, compile_blocks in (("native", None), ("blocks", True),
                                 ("reference", False)):
        with pytest.raises(SimulationError) as raised:
            FunctionalSimulator(prog, ext_defs={9: wide},
                                compile_blocks=compile_blocks)
        got[path] = str(raised.value)
    assert got["native"] == got["blocks"] == got["reference"] == (
        "instr 6: ext conf 9 reads an input past its two register operands")
    assert not kernel_runs


def test_unknown_conf_raises_at_construction():
    prog = program([I(Opcode.EXT, rd=T2, rs=T0, rt=T1, conf=6),
                    I(Opcode.HALT)])
    with pytest.raises(SimulationError,
                       match="instr 0: ext references unknown conf 6"):
        FunctionalSimulator(prog, ext_defs=EDGE_DEFS)


def test_reference_decode_is_built_on_first_use(kernel_runs):
    prog = _loop(3)
    fast = FunctionalSimulator(prog)
    fast.run()
    assert "_decoded" not in vars(fast) or not native.available()
    ref = FunctionalSimulator(prog, compile_blocks=False)
    assert "_decoded" not in vars(ref)
    ref.run()
    assert len(vars(ref)["_decoded"]) == len(prog.text)


# ----------------------------------------------------------------------
# workloads and construction


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_and_its_rewrite(name, kernel_runs):
    """:func:`repro.fuzz.check_functional` on every registered workload
    at scale 1 and on its selective 2-PFU rewrite."""
    pipeline = get_default_pipeline()
    check_functional(pipeline.program(name, 1))
    rewritten, defs = pipeline.rewrite(
        name, 1, SelectionParams("selective", 2), True)
    check_functional(rewritten, defs)
    if native.available():
        assert kernel_runs and all(kernel_runs)


@pytest.mark.parametrize("base, size", [
    (DATA_BASE, 0), (DATA_BASE, 1), (DATA_BASE, 70_000),
    (DATA_BASE + PAGE_MASK - 2, 9), (0xFFFF_FFF0, 40), (0x1_0000_0003, 5),
])
def test_load_image_maps_what_bytewise_writes_map(base, size):
    image = bytes((7 * k + 1) & 0xFF for k in range(size))
    sliced, bytewise = Memory(), Memory()
    sliced.load_image(base, image)
    for offset, byte in enumerate(image):
        bytewise.write_byte(base + offset, byte)
    assert sliced.mapped_pages() == bytewise.mapped_pages()
    assert {n: bytes(p) for n, p in sliced._pages.items()} == \
        {n: bytes(p) for n, p in bytewise._pages.items()}
