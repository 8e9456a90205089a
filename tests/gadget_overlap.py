"""Test-side gadget overlap measures, written from the definition in the
`secdiv.gadgets` docstring rather than from its extractor.

A gadget is a suffix of a program's flat instruction stream that ends at
a RET, holds at most k instructions and no other control transfer before
that RET; it is known by the byte address of its first instruction and
its words with the NOPs removed.  The package reports overlap only as
`pool_histogram`; these are the plain definitions the tests check it,
its extractor and the pools against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from secdiv.gadgets import DEFAULT_MAX_LEN
from secdiv.machine import MachineProgram
from secdiv.mir import Opcode

_CONTROL = frozenset({Opcode.B, Opcode.BEQ, Opcode.BNE, Opcode.RET})


def gadgets(
    program: MachineProgram, k: int = DEFAULT_MAX_LEN
) -> set[tuple[int, tuple[int, ...]]]:
    """Every gadget of `program` as (start byte address, NOP-stripped words)."""
    flat = program.flat()
    found = set()
    for end, last in enumerate(flat):
        if last.opcode is not Opcode.RET:
            continue
        for start in range(max(0, end - k + 1), end + 1):
            body = flat[start : end + 1]
            if any(ins.opcode in _CONTROL for ins in body[:-1]):
                continue
            words = tuple(ins.word() for ins in body if ins.opcode is not Opcode.NOP)
            found.add((4 * start, words))
    return found


def srate(a: MachineProgram, b: MachineProgram, k: int = DEFAULT_MAX_LEN) -> Fraction:
    """Share of a's gadgets found, NOP-stripped, at the same byte address
    in b; 0 when a has no gadget."""
    in_a = gadgets(a, k)
    if not in_a:
        return Fraction(0)
    return Fraction(len(in_a & gadgets(b, k)), len(in_a))


def mean_srate(programs: Sequence[MachineProgram], k: int = DEFAULT_MAX_LEN) -> Fraction:
    """Mean srate over all ordered pairs."""
    if len(programs) < 2:
        raise ValueError("mean srate needs at least two variants")
    rates = [srate(a, b, k) for a, b in itertools.permutations(programs, 2)]
    return sum(rates, Fraction(0)) / len(rates)
