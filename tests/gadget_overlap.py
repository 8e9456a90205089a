"""Test-side gadget overlap measures, written from `extract_gadgets`.

The package reports overlap only as `pool_histogram`; these are the
plain definitions the tests check it and the pools against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from secdiv.gadgets import DEFAULT_MAX_LEN, extract_gadgets
from secdiv.machine import MachineProgram


def srate(a: MachineProgram, b: MachineProgram, k: int = DEFAULT_MAX_LEN) -> Fraction:
    """Share of a's gadgets found, NOP-stripped, at the same byte address
    in b; 0 when a has no gadget."""
    gadgets = extract_gadgets(a, k)
    if not gadgets:
        return Fraction(0)
    in_b = {(g.start, g.normalized) for g in extract_gadgets(b, k)}
    return Fraction(sum((g.start, g.normalized) in in_b for g in gadgets), len(gadgets))


def mean_srate(programs: Sequence[MachineProgram], k: int = DEFAULT_MAX_LEN) -> Fraction:
    """Mean srate over all ordered pairs."""
    if len(programs) < 2:
        raise ValueError("mean srate needs at least two variants")
    rates = [srate(a, b, k) for a, b in itertools.permutations(programs, 2)]
    return sum(rates, Fraction(0)) / len(rates)
