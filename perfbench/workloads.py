"""Workload definitions: which (function, mode, gap, pool size) jobs a pass runs.

A job is one pool taken through ``secdiv diversify``, ``secdiv verify``
and ``secdiv gadgets``.  The job lists are fixed here rather than derived
from the program under test, so a change to the analysis cannot change
what the benchmark measures.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from typing import NamedTuple


class Workload(NamedTuple):
    jobs: list["Job"]
    # passes per run; pass k of a run on seed s gives diversify the seed
    # s * passes + k, so a run's medians cover several solver seeds
    passes: int


class Job(NamedTuple):
    function: str
    mode: str
    gap: int
    variants: int

    @property
    def key(self) -> str:
        """Name of the run directory the CLI writes the pool to."""
        return f"{self.function}-{self.mode}-g{self.gap}"


# Modes that apply to each corpus function: tsc needs a secret branch, psc
# a random input, naive either; none always applies.
CORPUS_MODES = {
    "check_bit": ("none", "tsc", "naive"),
    "long_arm": ("none", "tsc", "naive"),
    "masked_xor": ("none", "psc", "naive"),
    "masked_xor_broken": ("none", "psc", "naive"),
    "minimal": ("none",),
    "modexp_step": ("none", "tsc", "naive"),
    "share_compare": ("none", "tsc", "naive"),
    "spill_pair": ("none",),
    "straightline": ("none",),
    "two_branches": ("none", "tsc", "naive"),
    "two_exits": ("none",),
}

SWEEP_GAPS = (0, 5, 10, 25)

# The search time of a pool depends on the seed.  On modexp_step it has a
# heavy tail from gap 5 up: at n=10, 1-7 s of CPU at gap 5 over 30 seeds
# and 5-57 s at gap 10; at n=4 and gap 10, 0.4-11 s.  No run that fits the
# time budget holds a median of such pools steady across seeds, so
# tsc_pool uses pools whose search time repeats within about 10% (modexp_step
# at gap 0, the others at gap 5), and the sweep skips modexp_step at gap 10.
HEAVY_TAIL = {("modexp_step", "tsc", 10)}


def _sweep(functions, variants: int) -> list[Job]:
    jobs = []
    for name in functions:
        for mode in CORPUS_MODES[name]:
            gaps = (0,) if mode == "naive" else SWEEP_GAPS
            jobs.extend(
                Job(name, mode, gap, variants)
                for gap in gaps
                if (name, mode, gap) not in HEAVY_TAIL
            )
    return jobs


WORKLOADS: dict[str, Workload] = {
    "tsc_pool": Workload(
        [
            Job("modexp_step", "tsc", 0, 30),
            Job("two_branches", "tsc", 5, 40),
            Job("long_arm", "tsc", 5, 40),
        ],
        passes=3,
    ),
    "psc_oracle": Workload(
        [Job("masked_chain", "psc", 10, 3), Job("masked_xor", "psc", 10, 20)],
        passes=2,
    ),
    "corpus_sweep": Workload(_sweep(sorted(CORPUS_MODES), 4), passes=2),
    # harness self-check in seconds; minimal's one-variant pools exercise
    # the exit-2 answer of gadgets
    "smoke": Workload(_sweep(["minimal", "straightline"], 4), passes=2),
}
