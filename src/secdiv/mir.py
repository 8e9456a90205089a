"""Low-level IR with security-policy annotations.

A function is a list of basic blocks over 8-bit temps in SSA-like form
(every temp has exactly one definition).  Inputs carry a security label
(secret, public, or random); all other labels are inferred later.  The
block list is required to be a topological order of the CFG, which rules
out loops by construction.

Text format (one function per file, ``#`` comments, LF line endings):

    func <name> ( <temp>:<secret|public|random> , ... )
    block <n> [weight <w>]
      [opt] <def> = <opcode> <use> [, <use>]
      ...
      <beq|bne> <use>, <use>, <blockid>  |  b <blockid>  |  ret <use>

``st`` lines have no def (``st <slot>, <use>``) and ``ld`` reads a named
slot (``<def> = ld <slot>``).  Blocks without a terminator fall through
to the next block.  Immediates and block ids are ASCII decimal numbers,
and a weight is an ASCII decimal number or fraction ``<n>/<d>`` with
``d`` non-zero.  Nothing follows the ``)`` of the ``func`` header.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Union

TEMP_WIDTH = 8
VALUE_MASK = (1 << TEMP_WIDTH) - 1


class SecurityLabel(Enum):
    SECRET = "secret"
    PUBLIC = "public"
    RANDOM = "random"


class Opcode(Enum):
    ADD = "add"
    SUB = "sub"
    XOR = "xor"
    AND = "and"
    OR = "or"
    MOV = "mov"
    LI = "li"
    LD = "ld"
    ST = "st"
    BEQ = "beq"
    BNE = "bne"
    B = "b"
    RET = "ret"
    NOP = "nop"
    COPY = "copy"


TERMINATORS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.B, Opcode.RET})
COMMUTATIVE = frozenset({Opcode.ADD, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.BEQ, Opcode.BNE})
# Operations that may be inactive in a solution: copies (and spill
# reloads, which are copies too) plus balancing NOPs.
OPTIONAL_ALLOWED = frozenset({Opcode.COPY, Opcode.NOP})

# A use is a temp name, a named memory slot, or an 8-bit immediate.
Operand = Union[str, int]

# The one statement of each opcode's operands: the number of defs, then
# the kind of each use, "t" a temp, "s" a memory slot name, "i" an
# immediate, "b" a block id.  The parser checks ops against it, and the
# machine encoder and decoder lay out words by it.
OPERANDS: dict[Opcode, tuple[int, str]] = {
    **{op: (1, "tt") for op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR)},
    Opcode.MOV: (1, "t"),
    Opcode.LI: (1, "i"),
    Opcode.LD: (1, "s"),
    Opcode.ST: (0, "st"),
    Opcode.BEQ: (0, "ttb"),
    Opcode.BNE: (0, "ttb"),
    Opcode.B: (0, "b"),
    Opcode.RET: (0, "t"),
    Opcode.NOP: (0, ""),
    Opcode.COPY: (1, "t"),
}
_KIND_NAMES = {"t": "a temp", "s": "a slot name", "i": "an immediate", "b": "a block id"}


class IRError(Exception):
    """Base class for parse and validation failures."""


class IRSyntaxError(IRError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column


class IRValidationError(IRError):
    pass


@dataclass(frozen=True)
class Operation:
    index: int
    opcode: Opcode
    defs: tuple[str, ...]
    uses: tuple[Operand, ...]
    optional: bool = False

    @property
    def commutative(self) -> bool:
        return self.opcode in COMMUTATIVE

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def slot(self) -> Optional[str]:
        """Named memory slot for LD/ST, else None."""
        kinds = OPERANDS[self.opcode][1]
        return self.uses[kinds.index("s")] if "s" in kinds else None  # type: ignore[return-value]

    def temp_uses(self) -> tuple[str, ...]:
        """Temp-name operands only (immediates and slot names excluded)."""
        kinds = OPERANDS[self.opcode][1]
        return tuple(u for u, k in zip(self.uses, kinds) if k == "t")  # type: ignore[misc]


@dataclass
class Block:
    index: int
    weight: Fraction
    ops: list[Operation] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Operation]:
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None

    @property
    def body(self) -> list[Operation]:
        term = self.terminator
        return self.ops[:-1] if term is not None else list(self.ops)


@dataclass
class FunctionIR:
    name: str
    inputs: list[tuple[str, SecurityLabel]]
    blocks: list[Block]
    # every temp name: the inputs first, then the defs in op order
    temps: tuple[str, ...] = ()
    slots: tuple[str, ...] = ()

    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.inputs)

    def all_ops(self) -> Iterable[Operation]:
        for block in self.blocks:
            yield from block.ops

    def successors(self, block_index: int) -> tuple[int, ...]:
        block = self.blocks[block_index]
        term = block.terminator
        if term is None:
            return (block_index + 1,)
        if term.opcode is Opcode.RET:
            return ()
        if term.opcode is Opcode.B:
            return (term.uses[0],)  # type: ignore[return-value]
        # beq/bne: fall-through first, then the taken target
        return (block_index + 1, term.uses[2])  # type: ignore[return-value]

    def taken_successor(self, block_index: int) -> Optional[int]:
        term = self.blocks[block_index].terminator
        if term is not None and term.opcode in (Opcode.BEQ, Opcode.BNE):
            return term.uses[2]  # type: ignore[return-value]
        return None

    def renumber_ops(self) -> None:
        """Reassign op indices to a dense program order."""
        fresh = 0
        for block in self.blocks:
            new_ops = []
            for op in block.ops:
                new_ops.append(replace(op, index=fresh))
                fresh += 1
            block.ops = new_ops


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_LABELS = {lab.value: lab for lab in SecurityLabel}
_OPCODES = {op.value: op for op in Opcode}
# header numbers: a block id, and a weight whose denominator, if any, has
# a non-zero digit
_BLOCK_ID = re.compile(r"[0-9]+")
_WEIGHT = re.compile(r"([0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_function(text: str) -> FunctionIR:
    """Parse and validate one function in the textual IR grammar."""
    lines = text.split("\n")
    func: Optional[FunctionIR] = None
    current: Optional[Block] = None
    op_index = 0
    slots: list[str] = []

    for lineno, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        words = line.split()
        if words[0] == "func":
            if func is not None:
                raise IRSyntaxError("duplicate func header", lineno)
            func = _parse_header(line, lineno)
        elif func is None:
            raise IRSyntaxError("expected 'func' header", lineno)
        elif words[0] == "block":
            current = _parse_block_header(words, lineno, len(func.blocks))
            func.blocks.append(current)
        elif current is None:
            raise IRSyntaxError("operation outside of a block", lineno)
        else:
            if current.terminator is not None:
                raise IRSyntaxError("operation after block terminator", lineno)
            op = _parse_op(line, lineno, op_index)
            op_index += 1
            current.ops.append(op)
            if op.slot is not None and op.slot not in slots:
                slots.append(op.slot)

    if func is None:
        raise IRSyntaxError("no function found", len(lines))
    func.slots = tuple(slots)
    _collect_temps(func)
    validate_function(func)
    return func


def _parse_header(line: str, lineno: int) -> FunctionIR:
    open_paren = line.find("(")
    close_paren = line.rfind(")")
    if open_paren < 0 or close_paren < open_paren:
        raise IRSyntaxError("malformed func header", lineno)
    if line[close_paren + 1 :].strip():
        raise IRSyntaxError("text after func header", lineno)
    name = line[4:open_paren].strip()
    if not name.isidentifier():
        raise IRSyntaxError(f"bad function name {name!r}", lineno)
    inputs: list[tuple[str, SecurityLabel]] = []
    args = line[open_paren + 1 : close_paren].strip()
    if args:
        for part in args.split(","):
            if ":" not in part:
                raise IRSyntaxError(f"input {part.strip()!r} missing label", lineno)
            tname, lab = (s.strip() for s in part.split(":", 1))
            if lab not in _LABELS:
                raise IRSyntaxError(f"unknown label {lab!r}", lineno)
            if not tname.isidentifier():
                raise IRSyntaxError(f"bad temp name {tname!r}", lineno)
            inputs.append((tname, _LABELS[lab]))
    return FunctionIR(name=name, inputs=inputs, blocks=[])


def _parse_block_header(words: list[str], lineno: int, expected: int) -> Block:
    if len(words) not in (2, 4):
        raise IRSyntaxError("malformed block header", lineno)
    if not _BLOCK_ID.fullmatch(words[1]):
        raise IRSyntaxError(f"bad block id {words[1]!r}", lineno)
    index = int(words[1])
    if index != expected:
        raise IRSyntaxError(f"block {index} out of order (expected {expected})", lineno)
    weight = Fraction(1)
    if len(words) == 4:
        if words[2] != "weight":
            raise IRSyntaxError("expected 'weight'", lineno)
        number = _WEIGHT.fullmatch(words[3])
        if number is None:
            raise IRSyntaxError(f"bad weight {words[3]!r}", lineno)
        weight = Fraction(int(number[1]), int(number[2] or 1))
        if weight <= 0:
            raise IRSyntaxError("weight must be positive", lineno)
    return Block(index=index, weight=weight)


def _parse_operand(tok: str, lineno: int) -> Operand:
    tok = tok.strip()
    if not tok:
        raise IRSyntaxError("empty operand", lineno)
    if tok.isascii() and tok.removeprefix("-").isdigit():
        value = int(tok)
        if not 0 <= value <= VALUE_MASK:
            raise IRSyntaxError(f"immediate {value} out of range", lineno)
        return value
    if not tok.isidentifier():
        raise IRSyntaxError(f"bad operand {tok!r}", lineno)
    return tok


def _parse_op(line: str, lineno: int, index: int) -> Operation:
    optional = line.startswith("opt ")
    if optional:
        line = line[4:].strip()

    defs: tuple[str, ...] = ()
    if "=" in line:
        dest, line = (s.strip() for s in line.split("=", 1))
        if not dest.isidentifier():
            raise IRSyntaxError(f"bad def {dest!r}", lineno)
        defs = (dest,)

    parts = line.split(None, 1)
    if not parts:
        raise IRSyntaxError("missing opcode", lineno)
    opname = parts[0]
    if opname not in _OPCODES:
        raise IRSyntaxError(f"unknown opcode {opname!r}", lineno)
    opcode = _OPCODES[opname]
    raw_uses = parts[1] if len(parts) > 1 else ""
    uses = tuple(_parse_operand(t, lineno) for t in raw_uses.split(",")) if raw_uses else ()
    op = Operation(index=index, opcode=opcode, defs=defs, uses=uses, optional=optional)
    _check_shape(op, lineno)
    return op


def _check_shape(op: Operation, lineno: int) -> None:
    ndefs, kinds = OPERANDS[op.opcode]
    if len(op.defs) != ndefs or len(op.uses) != len(kinds):
        raise IRSyntaxError(
            f"{op.opcode.value} expects {ndefs} def(s), {len(kinds)} use(s)", lineno
        )
    if op.optional and op.opcode not in OPTIONAL_ALLOWED:
        raise IRSyntaxError(f"{op.opcode.value} cannot be optional", lineno)
    for n, (kind, use) in enumerate(zip(kinds, op.uses), 1):
        if isinstance(use, int) != (kind in "ib"):
            raise IRSyntaxError(
                f"{op.opcode.value} use {n} must be {_KIND_NAMES[kind]}, not {use!r}", lineno
            )


def _collect_temps(func: FunctionIR) -> None:
    temps: dict[str, None] = {}  # insertion-ordered set
    for name, _ in func.inputs:
        if name in temps:
            raise IRValidationError(f"duplicate input {name!r}")
        temps[name] = None
    for op in func.all_ops():
        for d in op.defs:
            if d in temps:
                raise IRValidationError(f"temp {d!r} defined more than once")
            temps[d] = None
    func.temps = tuple(temps)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def validate_function(func: FunctionIR) -> None:
    """Check every structural invariant; raises IRValidationError."""
    if not func.blocks:
        raise IRValidationError("function has no blocks")
    nblocks = len(func.blocks)

    slot_names = set(func.slots)
    clash = slot_names & set(func.temps)
    if clash:
        raise IRValidationError(f"slot names collide with temps: {sorted(clash)}")

    rets = 0
    for block in func.blocks:
        term = block.terminator
        for op in block.body:
            if op.is_terminator:
                raise IRValidationError(
                    f"terminator {op.opcode.value} not at end of block {block.index}"
                )
        if term is not None:
            if term.opcode is Opcode.RET:
                rets += 1
            else:
                targets = [u for u in term.uses if isinstance(u, int)]
                for target in targets:
                    if not 0 <= target < nblocks:
                        raise IRValidationError(
                            f"block {block.index} branches to unknown block {target}"
                        )
                    if target <= block.index:
                        raise IRValidationError(
                            f"back edge {block.index} -> {target} (loops are unsupported)"
                        )
                if term.opcode in (Opcode.BEQ, Opcode.BNE) and term.uses[2] == block.index + 1:
                    raise IRValidationError(
                        f"block {block.index}: conditional branch target equals fall-through"
                    )
        else:
            if block.index + 1 >= nblocks:
                raise IRValidationError(f"block {block.index} falls off the end of the function")
    if rets == 0:
        raise IRValidationError("function has no ret")

    # def-before-use in the block order
    defined: set[str] = {name for name, _ in func.inputs}
    for block in func.blocks:
        for op in block.ops:
            for use in op.temp_uses():
                if use not in defined:
                    raise IRValidationError(f"use of undefined temp {use!r} in op {op.index}")
            for d in op.defs:
                defined.add(d)

    # the defining block must dominate every using block, otherwise some
    # execution path would read an undefined register
    dom = _dominators(func)
    def_block: dict[str, int] = {name: 0 for name, _ in func.inputs}
    for block in func.blocks:
        for op in block.ops:
            for d in op.defs:
                def_block[d] = block.index
    for block in func.blocks:
        for op in block.ops:
            for use in op.temp_uses():
                db = def_block[use]
                if db != block.index and db not in dom[block.index]:
                    raise IRValidationError(
                        f"def of {use!r} (block {db}) does not dominate its use "
                        f"in block {block.index}"
                    )

    # reachability: every non-entry block needs an incoming edge
    incoming = {b.index: 0 for b in func.blocks}
    for block in func.blocks:
        for s in func.successors(block.index):
            incoming[s] += 1
    for block in func.blocks[1:]:
        if incoming[block.index] == 0:
            raise IRValidationError(f"block {block.index} is unreachable")


def _dominators(func: FunctionIR) -> dict[int, set[int]]:
    """Dominator sets; forward-only edges let one in-order pass converge."""
    preds: dict[int, list[int]] = {b.index: [] for b in func.blocks}
    for block in func.blocks:
        for s in func.successors(block.index):
            preds[s].append(block.index)
    every = set(range(len(func.blocks)))
    dom: dict[int, set[int]] = {0: {0}}
    for block in func.blocks[1:]:
        b = block.index
        sets = [dom[p] for p in preds[b] if p in dom]
        merged = set.intersection(*sets) if sets else set(every)
        dom[b] = merged | {b}
    return dom


# ----------------------------------------------------------------------
# paths
# ----------------------------------------------------------------------


def paths(
    func: FunctionIR, start: int = 0, stop: Optional[int] = None
) -> tuple[tuple[int, ...], ...]:
    """Every path from block `start` that ends at block `stop` or at a
    return, in sorted order."""
    found: list[tuple[int, ...]] = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        succ = () if path[-1] == stop else func.successors(path[-1])
        if not succ:
            found.append(path)
        stack.extend(path + (s,) for s in succ)
    return tuple(sorted(found))


def post_dominator(func: FunctionIR, block: int) -> Optional[int]:
    """The first block on every path from `block` to a return, or None
    when the paths share no block after `block`.

    One backward pass builds the post-dominator sets of the later blocks.
    Edges only go forward, so every path visits the blocks of a set in
    increasing order and the smallest one comes first.
    """
    pdom: dict[int, frozenset[int]] = {}
    for b in range(len(func.blocks) - 1, block - 1, -1):
        succ = func.successors(b)
        common = frozenset.intersection(*(pdom[s] for s in succ)) if succ else frozenset()
        pdom[b] = common | {b}
    later = pdom[block] - {block}
    return min(later) if later else None


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _operand_str(use: Operand) -> str:
    return str(use)


def serialize_function(func: FunctionIR) -> str:
    """Canonical printer; parse(serialize(f)) is structurally equal to f."""
    out: list[str] = []
    args = ", ".join(f"{name}:{label.value}" for name, label in func.inputs)
    out.append(f"func {func.name} ({args})")
    for block in func.blocks:
        if block.weight == 1:
            out.append(f"block {block.index}")
        else:
            out.append(f"block {block.index} weight {block.weight}")
        for op in block.ops:
            prefix = "  opt " if op.optional else "  "
            uses = ", ".join(_operand_str(u) for u in op.uses)
            if op.defs:
                rhs = f"{op.opcode.value} {uses}" if uses else op.opcode.value
                out.append(f"{prefix}{op.defs[0]} = {rhs}")
            elif uses:
                out.append(f"{prefix}{op.opcode.value} {uses}")
            else:
                out.append(f"{prefix}{op.opcode.value}")
    return "\n".join(out) + "\n"
