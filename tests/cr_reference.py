"""Constant resource by enumeration: the differential reference for the
static proof of `verify.check_cr`.

For each assignment of the public inputs, `cycle_bounds` runs the
program through `run_batch` on every value of the secret and random
inputs and keeps the fewest and most cycles.  One public input takes all
256 values, any other public input the probes, so the reference sees
public values that no probe set holds.

`static_path_cost` adds up the cycles of one block path from the decoded
blocks, the terms that the DP of `verify._region` adds up over a region;
the tests compare it with the scalar interpreter's traces.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from secdiv.machine import MachineProgram, run_batch
from secdiv.mir import SecurityLabel
from secdiv.verify import PUBLIC_PROBES

# lanes per run_batch call; several public assignments share one call
MAX_LANES = 1 << 20


def cycle_bounds(
    program: MachineProgram, policy, swept: Optional[int] = 0, probes=PUBLIC_PROBES
) -> dict[tuple[int, ...], tuple[int, int]]:
    """{public assignment: (BCET, WCET)} over the full grid of hidden
    values.  The `swept`-th public input takes every value, the others
    `probes` (with `swept` None, every public input takes the probes).
    At most two inputs may be secret or random: the grid has
    256**hidden lanes."""
    public_idx = [i for i, (_, lab) in enumerate(policy) if lab is SecurityLabel.PUBLIC]
    hidden_idx = [i for i in range(len(policy)) if i not in public_idx]
    if len(hidden_idx) > 2:
        raise ValueError(f"{len(hidden_idx)} hidden inputs: the grid would be too large")
    values = [range(256) if pos == swept else probes for pos in range(len(public_idx))]
    assignments = list(itertools.product(*values))
    per = 256 ** len(hidden_idx)
    step = min(len(assignments), max(1, MAX_LANES // per))
    # the hidden rows are the same in every call: the first hidden input
    # most significant, and a uint8 row keeps the low byte
    block = np.empty((len(policy), step, per), dtype=np.uint8)
    lane = np.arange(per)
    for pos, i in enumerate(hidden_idx):
        block[i] = lane >> 8 * (len(hidden_idx) - 1 - pos)
    bounds = {}
    for start in range(0, len(assignments), step):
        chunk = assignments[start : start + step]
        for pos, i in enumerate(public_idx):
            block[i, : len(chunk)] = np.array([a[pos] for a in chunk], dtype=np.uint8)[:, None]
        inputs = block[:, : len(chunk)].reshape(len(policy), len(chunk) * per)
        cycles = run_batch(program, inputs, collect_transitions=False).cycles
        cycles = cycles.reshape(len(chunk), per)
        for assignment, lo, hi in zip(chunk, cycles.min(axis=1).tolist(), cycles.max(axis=1).tolist()):
            bounds[assignment] = (lo, hi)
    return bounds


def constant_resource(program: MachineProgram, policy, **kwargs) -> bool:
    """BCET = WCET under every public assignment of `cycle_bounds`."""
    return all(lo == hi for lo, hi in cycle_bounds(program, policy, **kwargs).values())


def static_path_cost(program: MachineProgram, path: Sequence[int]) -> int:
    """Cycle cost of a block path in `program.decoded`: each block's
    cycles, plus the extra cycles of the edge taken out of it, the
    taken-branch overhead on a branch's taken edge.  A step from a branch
    block to the next block counts as the fall-through, at no overhead,
    also where the branch targets that block."""
    blocks = program.decoded.blocks
    total = sum(blocks[b].cycles for b in path)
    for b, succ in zip(path, path[1:]):
        total += min(extra for target, extra in blocks[b].edges if target == succ)
    return total
