"""Scalar reference interpreter for MiniRISC programs.

It runs one input vector at a time and records every step.  The tests
use it as the reference for `secdiv.machine.run_batch`, lane by lane:
return values, cycle counts, and the Hamming-distance transitions of
every register write and memory-bus update.  It rejects the block
shapes that `run_batch` rejects, checked here on its own: a B, BEQ, BNE
or RET before the last word of its block, a COPY, and a last block that
does not end in RET.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from secdiv.machine import PROFILES, MachineError, MachineProfile, MachineProgram
from secdiv.mir import TERMINATORS, VALUE_MASK, Opcode


@dataclass(frozen=True)
class Step:
    address: int
    opcode: Opcode
    cycles: int
    registers: tuple[int, ...]
    bus: int
    reg_write: Optional[tuple[int, int, int]]  # (reg, old, new)
    bus_write: Optional[tuple[int, int]]  # (old, new)


@dataclass
class ExecTrace:
    steps: list[Step]
    total_cycles: int
    return_value: int
    path: list[int]


def run(
    program: MachineProgram,
    inputs: Sequence[int],
    profile: Optional[MachineProfile] = None,
) -> ExecTrace:
    """Execute to RET; deterministic for identical (program, inputs, profile)."""
    if profile is None:
        profile = PROFILES[program.profile_name]
    if len(inputs) != program.num_inputs:
        raise MachineError(f"expected {program.num_inputs} inputs, got {len(inputs)}")
    check_shape(program)

    regs = [0] * profile.num_registers
    for i, value in enumerate(inputs):
        regs[i] = value & VALUE_MASK
    slots = [0] * profile.mem_slots
    bus = 0

    starts = list(itertools.accumulate((len(b) for b in program.blocks[:-1]), initial=0))
    steps: list[Step] = []
    path: list[int] = []
    total = 0
    block = 0
    while True:
        if block >= len(program.blocks):
            raise MachineError("fell off program end")
        path.append(block)
        pos = 0
        words = program.blocks[block]
        next_block = block + 1
        returned = None
        while pos < len(words):
            ins = words[pos]
            address = 4 * (starts[block] + pos)
            cycles = profile.latency[ins.opcode]
            reg_write = None
            bus_write = None
            op = ins.opcode
            if op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR):
                x, y = regs[ins.b], regs[ins.c]
                if op is Opcode.ADD:
                    value = (x + y) & VALUE_MASK
                elif op is Opcode.SUB:
                    value = (x - y) & VALUE_MASK
                elif op is Opcode.XOR:
                    value = x ^ y
                elif op is Opcode.AND:
                    value = x & y
                else:
                    value = x | y
                reg_write = (ins.a, regs[ins.a], value)
                regs[ins.a] = value
            elif op is Opcode.MOV:
                value = regs[ins.b]
                reg_write = (ins.a, regs[ins.a], value)
                regs[ins.a] = value
            elif op is Opcode.LI:
                reg_write = (ins.a, regs[ins.a], ins.b)
                regs[ins.a] = ins.b
            elif op is Opcode.LD:
                value = slots[ins.b]
                bus_write = (bus, value)
                bus = value
                reg_write = (ins.a, regs[ins.a], value)
                regs[ins.a] = value
            elif op is Opcode.ST:
                value = regs[ins.b]
                bus_write = (bus, value)
                bus = value
                slots[ins.a] = value
            elif op is Opcode.NOP:
                pass
            elif op is Opcode.B:
                next_block = ins.a
            elif op in (Opcode.BEQ, Opcode.BNE):
                taken = (regs[ins.a] == regs[ins.b]) == (op is Opcode.BEQ)
                if taken:
                    cycles += profile.taken_branch_overhead
                    next_block = ins.c
            else:  # RET: check_shape leaves no other opcode
                returned = regs[ins.a]
            total += cycles
            steps.append(
                Step(
                    address=address,
                    opcode=op,
                    cycles=cycles,
                    registers=tuple(regs),
                    bus=bus,
                    reg_write=reg_write,
                    bus_write=bus_write,
                )
            )
            if returned is not None:
                return ExecTrace(
                    steps=steps, total_cycles=total, return_value=returned, path=path
                )
            pos += 1
        block = next_block


def check_shape(program: MachineProgram) -> None:
    """MachineError unless every block ends at its first B, BEQ, BNE or
    RET, no word is a COPY, and the last block ends in a RET."""
    for index, block in enumerate(program.blocks):
        opcodes = [ins.opcode for ins in block]
        if Opcode.COPY in opcodes:
            raise MachineError(f"block {index} holds a copy")
        ends = [i for i, op in enumerate(opcodes) if op in TERMINATORS]
        if ends and ends[0] != len(block) - 1:
            raise MachineError(f"block {index} goes on after its {opcodes[ends[0]].value}")
    last = [ins.opcode for block in program.blocks[-1:] for ins in block[-1:]]
    if last != [Opcode.RET]:
        raise MachineError("the last block does not end in a ret")


LeakPoint = tuple[tuple[int, str, int], int]


def hd_leak_points(trace: ExecTrace) -> list[LeakPoint]:
    """(site, old^new) for every register write and memory-bus update.

    Sites are (instruction address, kind, index) with kind "reg" for
    register-overwrite transitions and "bus" for memory-remnant ones.
    """
    points: list[LeakPoint] = []
    for step in trace.steps:
        if step.reg_write is not None:
            reg, old, new = step.reg_write
            points.append(((step.address, "reg", reg), old ^ new))
        if step.bus_write is not None:
            old, new = step.bus_write
            points.append(((step.address, "bus", 0), old ^ new))
    return points

