"""MiniRISC machine model: profiles, encoding, and cycle-accurate execution.

Instructions are fixed 4-byte words (opcode byte plus three operand
bytes) laid out from address 0, so the address of the i-th word of the
program is 4*i.  The vectorized interpreter `run_batch` is the ground
truth for every oracle: it runs many input lanes at once and reports
functional results, cycle counts, and the register/memory-bus value
transitions that the Hamming-distance leakage model observes, lane by
lane: branches only go forward, so a lane runs each site at most once.

What each word does is decoded in one place, `_decode`, once per
program: a `MachineProgram` is immutable and keeps what `_decode` gives
as its `decoded` property.  Per block, that is its writes over compact
state rows (one per register and memory slot the program names, one per
constant an LI loads, then the bus, so an unnamed location costs
nothing): each sets a row to the ufunc of two rows or to a copy of one,
and names the transition sites it updates.  Then its cycles, the edges
to its successors with the cycles each adds, and the rows its branch
tests or its RET returns.  `run_batch` runs these blocks, and `verify` reads the
same ones for its equivalence proof, its taint pass and its static
constant-resource proof; none of them names a MOV, LI, LD or ST.
`_decode` also states the one shape a program may have, the one the
encoder emits (every word of a block runs, every run ends at a RET), and
rejects any other with a MachineError.  One set of lane buffers serves
every `run_batch` call in the process, so repeated calls allocate no
large array besides the ones they return.  The tests check `run_batch`
lane by lane against a scalar reference interpreter
(`tests/scalar_machine.py`), which decodes the words and checks the same
shape on its own.

Cost model: ALU/MOV/LI/NOP take 1 cycle, LD/ST take 2, the unconditional
branch takes 3, a conditional branch takes 1 plus a 2-cycle overhead when
taken, RET takes 1.  The LD/ST latency of 2 is a model choice for a
predictable microcontroller and is flagged in emitted reports.  An IR
copy takes 2 cycles whatever word `copy_opcode` lowers it to, and `encode`
advances by each IR op's slot, so a register move gets a NOP right after
it, even at the end of its block.  The profile's `latency` is the one
table of these costs: the analysis, the model and the encoder read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .mir import OPERANDS, TERMINATORS, FunctionIR, Opcode

MAGIC = b"MRSC"

_OPCODE_BYTES = {op: i for i, op in enumerate(Opcode)}
_BYTE_OPCODES = {i: op for op, i in _OPCODE_BYTES.items()}


@dataclass(frozen=True)
class MachineProfile:
    name: str
    num_registers: int
    latency: dict[Opcode, int]
    taken_branch_overhead: int = 2
    mem_slots: int = 8


def _base_latency() -> dict[Opcode, int]:
    lat = {op: 1 for op in Opcode}
    lat[Opcode.LD] = 2
    lat[Opcode.ST] = 2
    lat[Opcode.COPY] = 2  # one slot for any word: scheduling stays apart from allocation
    lat[Opcode.B] = 3
    return lat


TIGHT8 = MachineProfile(name="tight8", num_registers=8, latency=_base_latency())
WIDE32 = MachineProfile(name="wide32", num_registers=32, latency=_base_latency())
PROFILES = {p.name: p for p in (TIGHT8, WIDE32)}


class MachineError(Exception):
    pass


@dataclass(frozen=True)
class Instr:
    opcode: Opcode
    a: int = 0
    b: int = 0
    c: int = 0

    def word(self) -> int:
        return (
            _OPCODE_BYTES[self.opcode]
            | (self.a & 0xFF) << 8
            | (self.b & 0xFF) << 16
            | (self.c & 0xFF) << 24
        )

    @staticmethod
    def from_word(word: int) -> "Instr":
        op = word & 0xFF
        if op not in _BYTE_OPCODES:
            raise MachineError(f"undecodable opcode byte {op}")
        return Instr(
            opcode=_BYTE_OPCODES[op],
            a=(word >> 8) & 0xFF,
            b=(word >> 16) & 0xFF,
            c=(word >> 24) & 0xFF,
        )


@dataclass(frozen=True)
class MachineProgram:
    """Encoded program: one instruction tuple per block, base address 0.

    Immutable (blocks given as lists become tuples), so it decodes once:
    `decoded` is `_decode` of it, computed on first use and kept."""

    profile_name: str
    num_inputs: int
    blocks: tuple[tuple[Instr, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))

    @functools.cached_property
    def decoded(self) -> "_Decoded":
        return _decode(self)

    def flat(self) -> list[Instr]:
        return [ins for block in self.blocks for ins in block]

    def to_bytes(self) -> bytes:
        name = self.profile_name.encode("ascii")
        out = bytearray(MAGIC)
        out.append(len(name))
        out += name
        out.append(self.num_inputs)
        out += len(self.blocks).to_bytes(2, "little")
        for block in self.blocks:
            out += len(block).to_bytes(2, "little")
        for block in self.blocks:
            for ins in block:
                out += ins.word().to_bytes(4, "little")
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "MachineProgram":
        """Parse `to_bytes` output; truncated or trailing data, or an
        unknown profile name, is a MachineError."""
        if data[:4] != MAGIC:
            raise MachineError("bad magic")
        pos = 4

        def take(size: int) -> int:
            nonlocal pos
            if pos + size > len(data):
                raise MachineError(f"program truncated at byte {len(data)}")
            pos += size
            return int.from_bytes(data[pos - size : pos], "little")

        name_len = take(1)
        take(name_len)
        profile_name = data[pos - name_len : pos].decode("ascii", errors="replace")
        if profile_name not in PROFILES:
            raise MachineError(f"unknown profile {profile_name!r}")
        num_inputs = take(1)
        counts = [take(2) for _ in range(take(2))]
        blocks = [[Instr.from_word(take(4)) for _ in range(count)] for count in counts]
        if pos != len(data):
            raise MachineError(f"{len(data) - pos} bytes after the program's last word")
        return MachineProgram(profile_name=profile_name, num_inputs=num_inputs, blocks=blocks)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


@dataclass
class Schedule:
    """Fully decided code layout handed to the encoder.

    `loc` maps every temp to a unified location index: values below the
    register count are registers, values at or above it are memory slots.
    Temps aliased to another temp must already be resolved to the same
    location.  `impl` gives the concrete opcode chosen for ops with
    instruction alternatives (copies and moves); absent entries keep the
    op's own opcode.
    """

    active: set[int]
    cycle: dict[int, int]
    loc: dict[str, int]
    impl: dict[int, Opcode] = field(default_factory=dict)
    swapped: set[int] = field(default_factory=set)


def encode(func: FunctionIR, schedule: Schedule, profile: MachineProfile) -> MachineProgram:
    """Emit instructions in issue-cycle order, filling idle cycles with NOPs."""
    nregs = profile.num_registers

    def reg_of(temp: str) -> int:
        if temp not in schedule.loc:
            raise MachineError(f"unmapped temp {temp!r}")
        loc = schedule.loc[temp]
        if loc >= nregs:
            raise MachineError(f"temp {temp!r} used from memory slot {loc - nregs}")
        return loc

    blocks: list[list[Instr]] = []
    for block in func.blocks:
        chosen = [op for op in block.ops if op.index in schedule.active]
        chosen.sort(key=lambda op: schedule.cycle[op.index])
        words: list[Instr] = []
        clock = 0
        for op in chosen:
            start = schedule.cycle[op.index]
            if start < clock:
                raise MachineError(
                    f"cycle collision at op {op.index} in block {block.index}"
                )
            while clock < start:
                words.append(Instr(Opcode.NOP))
                clock += 1
            ins = _lower(func, schedule, op, reg_of, nregs)
            slot = profile.latency[op.opcode]
            # NOPs fill what the op's slot outlasts its word by (a register
            # copy's second cycle), at the end of a block too
            words += [ins] + [Instr(Opcode.NOP)] * (slot - profile.latency[ins.opcode])
            clock = start + slot
        blocks.append(words)
    return MachineProgram(
        profile_name=profile.name, num_inputs=len(func.inputs), blocks=blocks
    )


def remat_constant(func: FunctionIR, temp: str) -> Optional[int]:
    """Immediate value when `temp` is defined by LI, else None."""
    for op in func.all_ops():
        if temp in op.defs:
            return op.uses[0] if op.opcode is Opcode.LI else None
    return None


def copy_opcode(impl: Opcode, src_loc: int, dst_loc: int, nregs: int) -> Optional[Opcode]:
    """A copy's machine opcode: ST into a memory slot, LD out of one, else
    `impl`, the chosen instruction; None from memory to memory."""
    if dst_loc >= nregs:
        return None if src_loc >= nregs else Opcode.ST
    return Opcode.LD if src_loc >= nregs else impl


def _lower(func: FunctionIR, schedule: Schedule, op, reg_of, nregs: int) -> Instr:
    """One word for `op`: its defs, then its uses (the first two swapped
    when the schedule says so), each laid out by its kind in `OPERANDS`;
    a copy's opcode is `copy_opcode`'s (MOV unless chosen otherwise)."""
    opcode = schedule.impl.get(op.index, op.opcode)
    if op.opcode is Opcode.COPY:
        src, dst = schedule.loc[op.uses[0]], schedule.loc[op.defs[0]]
        opcode = copy_opcode(schedule.impl.get(op.index, Opcode.MOV), src, dst, nregs)
        if opcode is None:
            raise MachineError(f"copy op {op.index} moves memory to memory")
        if opcode is Opcode.ST:  # spill the source register into the slot
            return Instr(Opcode.ST, dst - nregs, reg_of(op.uses[0]))
        if opcode is Opcode.LD:  # reload from the spill slot
            return Instr(Opcode.LD, dst, src - nregs)
        if opcode is Opcode.LI:
            imm = remat_constant(func, op.uses[0])
            if imm is None:
                raise MachineError(f"copy of {op.uses[0]!r} is not rematerializable")
            return Instr(Opcode.LI, dst, imm)
    if op.opcode in (Opcode.MOV, Opcode.COPY) and opcode is not Opcode.MOV:
        # self-move alternative: or/and of the source with itself
        src = reg_of(op.uses[0])
        return Instr(opcode, reg_of(op.defs[0]), src, src)
    uses = list(op.uses)
    if op.index in schedule.swapped:
        uses[:2] = uses[1::-1]
    convert = {"t": reg_of, "s": func.slots.index, "i": int, "b": int}
    kinds = OPERANDS[op.opcode][1]
    return Instr(opcode, *map(reg_of, op.defs), *(convert[k](u) for k, u in zip(kinds, uses)))


# ----------------------------------------------------------------------
# execution (vectorized; used by the exhaustive-enumeration oracles)
# ----------------------------------------------------------------------


@dataclass
class BatchResult:
    returns: np.ndarray
    cycles: np.ndarray
    # site -> the transition value each lane wrote there, int16 over the
    # lanes, -1 for a lane that did not run the site
    transitions: dict[tuple[int, str, int], np.ndarray]


_ALU = {
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.XOR: np.bitwise_xor,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
}

# What operands a, b and c of each machine opcode name: "r" a register,
# "s" a memory slot, "k" a constant (LI's immediate), "-" a block or
# nothing.  A word holds its op's defs (registers), then its uses by their
# kind in `OPERANDS`.
_ROLES = {
    op: ("r" * ndefs + kinds.translate(str.maketrans("tib", "rk-"))).ljust(3, "-")
    for op, (ndefs, kinds) in OPERANDS.items()
    if op is not Opcode.COPY
}


class _Block(NamedTuple):
    # per ALU op, MOV, LI, LD and ST: (opcode, a, b, c, ALU ufunc,
    # register site, bus site), row a <- ufunc(row b, row c), or <- row b
    # (c None) where the ufunc is None
    writes: list[tuple]
    cycles: int  # the latencies of all its words
    edges: list[tuple[int, int]]  # (successor, extra cycles on that edge)
    test: Optional[tuple[int, int, bool]]  # a BEQ/BNE's (row, row, taken if equal)
    ret: Optional[int]  # a RET's row


class _Decoded(NamedTuple):
    """A program decoded once: what each word reads and writes, over
    compact state rows, and its control flow.

    `blocks` holds a `_Block` per block, all of whose words run.  Its
    writes state every word that changes the state, in order: an ALU op
    writes the ufunc of two rows, a MOV, LD or ST copies a row (LD and ST
    to the bus row too), and an LI copies the row of its constant.  Each
    write carries its register site (not ST) and its bus site (LD and ST
    only), `(byte address, "reg" or "bus", register index)`.  Its cycles
    are the latencies of all its words.  Its edges come from its last
    word: to the target of a BEQ or BNE, with the profile's taken-branch
    overhead, and to the next block; to the target of a B; nowhere after a
    RET; otherwise to the next block.  Its test is a BEQ or BNE's two rows
    and whether equal rows take the branch, and its ret a RET's row; B and
    NOP give only edges and cycles.
    `run_batch` runs these blocks and `verify` proves equivalence, constant
    resource and taint results on them.  `input_regs` lists the input
    registers that have a row (their rows come first, in the same order);
    `constants` the (row, value) of each constant, a row that no word
    writes; `nrows` the number of rows.  It holds no lane buffers:
    `run_batch` keeps one set for every program (`_lanes`), so two
    `run_batch` calls must not run at the same time.
    """

    blocks: list[_Block]
    input_regs: list[int]
    constants: list[tuple[int, int]]
    nrows: int


# the lane buffers of `run_batch`, one set per process, grown to the
# largest call seen: the rows of the root state, then per lane an ALU
# result, a transition value and a branch condition
_lanes = np.empty(0, dtype=np.uint8)

_JUMPS = (Opcode.B, Opcode.BEQ, Opcode.BNE)


def _decode(program: MachineProgram) -> _Decoded:
    """Decode a program (`MachineProgram.decoded` calls this once per
    program): the one place that states what each MiniRISC word reads and
    writes, its control flow, and the shape a program may have.

    Only the registers some word names get a row, in index order, then
    the memory slots some LD/ST names, then each distinct LI immediate,
    then the bus as the last row; a location no word names is never read
    or written.  A MachineError, whether or not the word would run, is
    first a register or slot operand outside the profile, then a branch
    to a block that is not a later block, then the first B, BEQ, BNE or
    RET before the last word of its block, COPY (no machine opcode) or
    last block not ending in RET.  So every word runs, and every run ends
    at a RET.
    """
    profile = PROFILES[program.profile_name]
    named: dict[str, set[int]] = {"r": set(), "s": set(), "k": set(), "-": set()}
    backward = None  # the first branch that does not go to a later block
    malformed = None  # the first word out of the block shape
    for index, block in enumerate(program.blocks):
        for pos, ins in enumerate(block, 1):
            op = ins.opcode
            if op not in _ROLES:
                malformed = malformed or f"block {index} holds {op.value}, not a machine opcode"
                continue
            ra, rb, rc = _ROLES[op]
            named[ra].add(ins.a)
            named[rb].add(ins.b)
            named[rc].add(ins.c)
            if op in TERMINATORS and pos < len(block):
                malformed = malformed or f"block {index} has words after its {op.value}"
            if op in _JUMPS and backward is None:
                target = ins.a if op is Opcode.B else ins.c
                if not index < target < len(program.blocks):
                    backward = (index, target)
    if [block[-1].opcode for block in program.blocks[-1:] if block] != [Opcode.RET]:
        malformed = malformed or "the last block does not end in ret"
    for role, what, limit in (
        ("r", "register", profile.num_registers),
        ("s", "memory slot", profile.mem_slots),
    ):
        if named[role] and max(named[role]) >= limit:
            raise MachineError(
                f"{what} operand {max(named[role])} out of range for profile "
                f"{profile.name} ({limit} {what}s)"
            )
    if backward is not None:
        raise MachineError(
            "block {} branches to block {}, not to a later block".format(*backward)
        )
    if malformed is not None:
        raise MachineError(malformed)
    registers = sorted(named["r"])
    row = {("r", r): i for i, r in enumerate(registers)}
    for role in "sk":
        row.update({(role, v): len(row) + i for i, v in enumerate(sorted(named[role]))})
    constants = [(row["k", v], v) for v in sorted(named["k"])]

    blocks, start = [], 0
    for index, block in enumerate(program.blocks):
        writes, cycles, edges, test, ret = [], 0, [(index + 1, 0)], None, None
        for address, ins in enumerate(block, start):
            op = ins.opcode
            cycles += profile.latency[op]
            if op is Opcode.B:
                edges = [(ins.a, 0)]
            elif op is Opcode.RET:
                edges, ret = [], row["r", ins.a]
            elif op in (Opcode.BEQ, Opcode.BNE):
                edges = [(ins.c, profile.taken_branch_overhead), (index + 1, 0)]
                test = (row["r", ins.a], row["r", ins.b], op is Opcode.BEQ)
            elif op is not Opcode.NOP:
                ra, rb, rc = _ROLES[op]
                fn = _ALU.get(op)
                writes.append((
                    op, row[ra, ins.a], row[rb, ins.b], row[rc, ins.c] if fn else None, fn,
                    (4 * address, "reg", ins.a) if ra == "r" else None,
                    (4 * address, "bus", 0) if "s" in (ra, rb) else None,
                ))
        blocks.append(_Block(writes, cycles, edges, test, ret))
        start += len(block)
    input_regs = [r for r in registers if r < program.num_inputs]
    return _Decoded(blocks, input_regs, constants, len(row) + 1)


def run_batch(
    program: MachineProgram,
    inputs: np.ndarray,
    collect_transitions: bool = True,
) -> BatchResult:
    """Run the program over many input lanes at once.

    `inputs` has shape (num_inputs, n); lane j runs on the input vector
    inputs[:, j], as if it ran alone.  Branching partitions the lanes, so
    the cost is proportional to the number of executed paths, not lanes.
    With `collect_transitions`, every site that some lane ran maps to the
    transition value of each lane there, -1 for the lanes that did not
    run it; grouping the lanes is the caller's business.

    The program is decoded once per program, not per call
    (`MachineProgram.decoded`), and the decoded blocks are the whole of
    what it does: a work item adds its block's cycles, makes its writes
    in order, then returns at its RET, splits its lanes on its branch
    test or follows its one edge.  The state holds a row only for each
    register and memory slot that a word names, each constant, and the
    bus, so a branch split copies no more rows than the program uses;
    transition sites keep the architectural register index.  A program
    that `_decode` rejects raises MachineError before anything runs, so
    every run ends at a RET.

    The root state, ALU results, transition values and branch conditions
    live in lane buffers that every call in the process shares (`_lanes`),
    grown to the largest call seen, so two calls must not run at the same
    time; the returned arrays are new on every call.  Cycles are summed
    per work item in a Python int that travels with the lanes across
    branches and is written once at RET.
    """
    global _lanes
    if inputs.shape[0] != program.num_inputs:
        raise MachineError(f"expected {program.num_inputs} input rows")
    n = inputs.shape[1]
    decoded = program.decoded
    blocks, nrows = decoded.blocks, decoded.nrows
    if _lanes.size < (nrows + 3) * n:
        _lanes = np.empty((nrows + 3) * n, dtype=np.uint8)
    buffers = _lanes[: (nrows + 3) * n].reshape(nrows + 3, n)
    values, deltas, conditions = buffers[nrows:]
    conditions = conditions.view(bool)

    # machine state, one column per lane: the rows of _decode
    state0 = buffers[:nrows]
    for row, r in enumerate(decoded.input_regs):
        state0[row] = inputs[r]
    state0[len(decoded.input_regs) :].fill(0)
    for row, constant in decoded.constants:
        state0[row] = constant
    bus = nrows - 1

    returns = np.zeros(n, dtype=np.uint8)
    cycles = np.zeros(n, dtype=np.int64)
    transitions: dict[tuple[int, str, int], np.ndarray] = {}

    def record(site: tuple[int, str, int], values: np.ndarray) -> None:
        if lanes is None:  # every lane, so no other item runs the site
            transitions[site] = values.astype(np.int16)
            return
        seen = transitions.get(site)
        if seen is None:
            seen = transitions[site] = np.full(n, -1, dtype=np.int16)
        seen[lanes] = values

    # worklist of (block, lane indices, state, cycles so far); lane indices
    # stay sorted, and None stands for every lane
    work = [(0, None, state0, 0)] if n else []
    while work:
        block, lanes, state, spent = work.pop()
        writes, block_cycles, edges, test, ret = blocks[block]
        spent += block_cycles
        rows = list(state)
        # this item's slices of the lane buffers
        m = state.shape[1]
        value, delta, mask = values[:m], deltas[:m], conditions[:m]
        for _, a, b, c, fn, reg_site, bus_site in writes:
            new = rows[b] if fn is None else fn(rows[b], rows[c], out=value)
            if bus_site:
                if collect_transitions:
                    record(bus_site, np.bitwise_xor(rows[bus], new, out=delta))
                rows[bus][:] = new
            if reg_site and collect_transitions:
                record(reg_site, np.bitwise_xor(rows[a], new, out=delta))
            rows[a][:] = new
        if ret is not None:
            where = slice(None) if lanes is None else lanes
            returns[where] = rows[ret]
            cycles[where] = spent
        elif test is not None:
            x, y, if_equal = test
            (target, extra), (fall, _) = edges
            taken_mask = (np.equal if if_equal else np.not_equal)(rows[x], rows[y], out=mask)
            taken = spent + extra
            if taken_mask.all():
                work.append((target, lanes, state, taken))
            elif not taken_mask.any():
                work.append((fall, lanes, state, spent))
            else:
                for idx, succ, cost in (
                    (np.nonzero(taken_mask)[0], target, taken),
                    (np.nonzero(~taken_mask)[0], fall, spent),
                ):
                    sub = idx if lanes is None else lanes[idx]
                    work.append((succ, sub, np.take(state, idx, axis=1), cost))
        else:  # a B or a fall-through
            (succ, _), = edges
            work.append((succ, lanes, state, spent))

    return BatchResult(returns=returns, cycles=cycles, transitions=transitions)
