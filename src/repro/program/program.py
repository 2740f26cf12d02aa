"""The :class:`Program` container.

A Program is the unit everything operates on: the assembler produces one,
the extended-instruction rewriter transforms one into another, and both
simulators execute one. The text segment is a list of
:class:`~repro.isa.instruction.Instruction` with *symbolic* control-flow
targets plus a label table, so instructions can be inserted or deleted
without patching offsets; concrete addresses exist only for the memory
system (``pc = TEXT_BASE + 4 * index``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidProgramError
from repro.isa.encoding import TEXT_BASE
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, Opcode

#: Base address of the data segment (SimpleScalar-like layout).
DATA_BASE = 0x1000_0000
#: Initial stack pointer (grows downward).
STACK_TOP = 0x7FFF_F000


@dataclass
class Program:
    """An assembled program.

    Attributes:
        text: the instruction sequence.
        labels: text label -> instruction index. An index equal to
            ``len(text)`` is permitted (an "end" label) but jumping to it
            at runtime is a simulation error.
        data: initial data-segment image, loaded at :data:`DATA_BASE`.
        symbols: data symbol -> absolute address.
        name: optional human-readable program name.
    """

    text: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: bytes = b""
    symbols: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.text)

    def __getstate__(self):
        """Pickle only the declared fields: simulators cache derived,
        process-local state on the instance (underscore attributes, e.g.
        the compiled basic blocks, which hold unpicklable code objects);
        it is rebuilt on demand after unpickling."""
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }

    def pc_of(self, index: int) -> int:
        """Byte address of the instruction at ``index``."""
        return TEXT_BASE + 4 * index

    def index_of_pc(self, pc: int) -> int:
        """Instruction index for byte address ``pc``."""
        if pc % 4 != 0 or pc < TEXT_BASE:
            raise InvalidProgramError(f"bad text address {pc:#x}")
        return (pc - TEXT_BASE) // 4

    def target_index(self, instr: Instruction) -> int:
        """Resolve the symbolic target of a control instruction to an index."""
        if instr.target is None:
            raise InvalidProgramError(f"{instr} has no symbolic target")
        try:
            return self.labels[instr.target]
        except KeyError:
            raise InvalidProgramError(f"undefined label {instr.target!r}") from None

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`InvalidProgramError`.

        - every control-flow target resolves to a label within the program;
        - label indices are within ``[0, len(text)]``;
        - register numbers are in range;
        - the program contains at least one ``halt``.

        A pass is remembered on the instance with a copy of the text and
        labels it checked, so validating an unchanged program again (the
        assembler, the rewriter and every simulator construction each
        validate) costs a comparison, not a walk of the text.
        """
        checked = (tuple(self.text), dict(self.labels))
        if self.__dict__.get("_validated") == checked:
            return
        self._check_invariants()
        self._validated = checked

    def _check_invariants(self) -> None:
        n = len(self.text)
        for label, idx in self.labels.items():
            if not 0 <= idx <= n:
                raise InvalidProgramError(f"label {label!r} -> bad index {idx}")
        has_halt = False
        for i, ins in enumerate(self.text):
            if ins.op is Opcode.HALT:
                has_halt = True
            fmt = ins.info.fmt
            needs_target = fmt in (Fmt.BR2, Fmt.BR1, Fmt.J)
            if needs_target:
                if ins.target is None:
                    raise InvalidProgramError(f"instr {i}: {ins.op} missing target")
                if ins.target not in self.labels:
                    raise InvalidProgramError(
                        f"instr {i}: undefined label {ins.target!r}"
                    )
                if self.labels[ins.target] >= n:
                    raise InvalidProgramError(
                        f"instr {i}: target {ins.target!r} points past end of text"
                    )
            for reg in (ins.rd, ins.rs, ins.rt):
                if reg is not None and not 0 <= reg < 32:
                    raise InvalidProgramError(f"instr {i}: bad register {reg}")
        if not has_halt and n > 0:
            raise InvalidProgramError("program has no halt instruction")

    # ------------------------------------------------------------------

    def labels_at(self, index: int) -> list[str]:
        """All labels attached to instruction ``index`` (sorted)."""
        return sorted(lbl for lbl, i in self.labels.items() if i == index)

    def render(self) -> str:
        """Render the text segment as assembly source (labels inline)."""
        by_index: dict[int, list[str]] = {}
        for lbl, idx in self.labels.items():
            by_index.setdefault(idx, []).append(lbl)
        lines: list[str] = []
        for i, ins in enumerate(self.text):
            for lbl in sorted(by_index.get(i, [])):
                lines.append(f"{lbl}:")
            lines.append(f"    {ins.render()}")
        for lbl in sorted(by_index.get(len(self.text), [])):
            lines.append(f"{lbl}:")
        return "\n".join(lines)

    def with_text(
        self, text: list[Instruction], labels: dict[str, int]
    ) -> "Program":
        """A copy of this program with a replaced text segment.

        The data segment and symbol table are shared (they are immutable
        from the program's point of view).
        """
        return Program(
            text=list(text),
            labels=dict(labels),
            data=self.data,
            symbols=dict(self.symbols),
            name=self.name,
        )
