"""Code-reuse gadget extraction and pairwise gadget-overlap analysis.

A gadget is a suffix of the linear instruction stream ending at a return:
that is what an attacker who redirects control into the middle of the
code gets to execute.  A suffix holding another control transfer is no
useful chain link and is skipped, so a gadget's start byte address fixes
it: a program's gadgets are one map from start to NOP-stripped words.  The
overlap (srate) of a variant with another is the share of its gadgets found
at the same address in the other; a program without any gadget has srate 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .machine import Instr, MachineProgram, Opcode
from .mir import TERMINATORS

DEFAULT_MAX_LEN = 5

_NOP_WORD = Instr(Opcode.NOP).word()


def extract_gadgets(
    program: MachineProgram, k: int = DEFAULT_MAX_LEN
) -> dict[int, tuple[int, ...]]:
    """The NOP-stripped words of every suffix of length 1..k ending at a
    return, by the byte address of its first instruction."""
    flat = program.flat()
    gadgets: dict[int, tuple[int, ...]] = {}
    for end, ins in enumerate(flat):
        if ins.opcode is not Opcode.RET:
            continue
        stripped: tuple[int, ...] = ()
        for start in range(end, max(end - k, -1), -1):
            if start < end and flat[start].opcode in TERMINATORS:
                break  # a longer suffix would contain it too
            word = flat[start].word()
            if word != _NOP_WORD:
                stripped = (word,) + stripped
            gadgets[4 * start] = stripped
    return gadgets


@dataclass
class SrateHistogram:
    """Ordered-pair counts bucketed by srate as {0}, (0, 0.2], (0.2, 1]."""

    zero: int = 0
    low: int = 0
    high: int = 0

    @property
    def total(self) -> int:
        return self.zero + self.low + self.high

    def add(self, shared: int, total: int) -> None:
        """Count a pair whose first program has `total` gadgets, `shared` in the second."""
        if shared == 0:
            self.zero += 1
        elif 5 * shared <= total:
            self.low += 1
        else:
            self.high += 1


def pool_histogram(
    programs: Sequence[MachineProgram], k: int = DEFAULT_MAX_LEN
) -> SrateHistogram:
    """Bucketed srate over all ordered pairs of a variant pool."""
    if len(programs) < 2:
        raise ValueError("histogram needs at least two variants")
    maps = [extract_gadgets(p, k) for p in programs]
    hist = SrateHistogram()
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i != j:
                hist.add(sum(1 for start, ws in a.items() if b.get(start) == ws), len(a))
    return hist
