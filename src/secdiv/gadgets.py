"""Code-reuse gadget extraction and pairwise gadget-overlap analysis.

A gadget is a suffix of the linear instruction stream ending at a return:
that is what an attacker who redirects control into the middle of the
code gets to execute.  Suffixes containing another control transfer are
not useful chain links and are skipped.  The overlap (srate) of a
variant with another is the share of its gadgets that appear,
NOP-stripped but at the same byte address, in the other; a program
without any gadget has srate 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .machine import Instr, MachineProgram, Opcode
from .mir import TERMINATORS

DEFAULT_MAX_LEN = 5

_NOP_WORD = Instr(Opcode.NOP).word()


@dataclass(frozen=True)
class Gadget:
    start: int  # byte address of the first instruction
    words: tuple[int, ...]
    normalized: tuple[int, ...]  # words with NOPs removed


def extract_gadgets(program: MachineProgram, k: int = DEFAULT_MAX_LEN) -> set[Gadget]:
    """All suffixes of length 1..k ending at a return instruction."""
    flat = program.flat()
    gadgets: set[Gadget] = set()
    for end, ins in enumerate(flat):
        if ins.opcode is not Opcode.RET:
            continue
        for length in range(1, k + 1):
            start = end - length + 1
            if start < 0:
                break
            seq = flat[start : end + 1]
            if any(w.opcode in TERMINATORS for w in seq[:-1]):
                break  # a longer suffix would contain it too
            words = tuple(w.word() for w in seq)
            normalized = tuple(w for w in words if w != _NOP_WORD)
            gadgets.add(Gadget(start=4 * start, words=words, normalized=normalized))
    return gadgets


def _address_index(gadgets: set[Gadget]) -> dict[int, tuple[int, ...]]:
    # a suffix stops at the first terminator, so its start fixes the gadget
    return {g.start: g.normalized for g in gadgets}


def _shared_fraction(gadgets: set[Gadget], index: dict[int, tuple[int, ...]]) -> Fraction:
    if not gadgets:
        return Fraction(0)
    shared = sum(1 for g in gadgets if index.get(g.start) == g.normalized)
    return Fraction(shared, len(gadgets))


def _pair_srates(programs: Sequence[MachineProgram], k: int) -> Iterator[Fraction]:
    """The srate of programs[i] against programs[j] for every ordered pair
    i != j, by i then j; each program's gadgets are extracted once."""
    gadget_sets = [extract_gadgets(p, k) for p in programs]
    indexes = [_address_index(g) for g in gadget_sets]
    for i, gadgets in enumerate(gadget_sets):
        for j, index in enumerate(indexes):
            if i != j:
                yield _shared_fraction(gadgets, index)


@dataclass
class SrateHistogram:
    """Ordered-pair counts bucketed as {0}, (0, 0.2], (0.2, 1]."""

    zero: int = 0
    low: int = 0
    high: int = 0

    @property
    def total(self) -> int:
        return self.zero + self.low + self.high

    def percentages(self) -> tuple[Fraction, Fraction, Fraction]:
        if self.total == 0:
            return (Fraction(0), Fraction(0), Fraction(0))
        return (
            Fraction(self.zero, self.total),
            Fraction(self.low, self.total),
            Fraction(self.high, self.total),
        )

    def add(self, rate: Fraction) -> None:
        if rate == 0:
            self.zero += 1
        elif rate <= Fraction(1, 5):
            self.low += 1
        else:
            self.high += 1


def pool_histogram(
    programs: Sequence[MachineProgram], k: int = DEFAULT_MAX_LEN
) -> SrateHistogram:
    """Bucketed srate over all ordered pairs of a variant pool."""
    if len(programs) < 2:
        raise ValueError("histogram needs at least two variants")
    hist = SrateHistogram()
    for rate in _pair_srates(programs, k):
        hist.add(rate)
    return hist
