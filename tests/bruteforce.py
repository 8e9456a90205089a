"""Exhaustive-enumeration oracle for small solver instances.

Enumerates every canonical assignment of a problem: optional-op
activation (NOP-block activations as prefixes), every dependency-valid
per-block operation order scheduled compactly, and every location
assignment, validating each candidate with the independent constraint
checker and taking the minimum objective.

Completeness argument for the minimum: any feasible solution can be
left-compacted without changing op order, which preserves dependencies,
single-issue, interference (order-preserving), transition adjacency
(order-based), and never increases any block makespan.  Padding needed by
the timing-balance equality is only ever useful on a path that costs less
than its siblings, and the empty-block balancing puts explicit optional
NOPs on every edge of a secret region with such a deficit, so the
compact+NOP space contains an optimal solution.  This holds for uniform
block weights, which the small corpus functions use; instruction
alternatives and operand swaps never affect feasibility or cost and are
fixed at their defaults.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from secdiv.copmodel import (
    CopProblem,
    check_solution,
    make_solution,
    resolve_roots,
)
from secdiv.mir import FunctionIR, Opcode


def def_site(func: FunctionIR, temp: str) -> Optional[int]:
    """Operation index defining `temp`, or None for inputs."""
    for op in func.all_ops():
        if temp in op.defs:
            return op.index
    return None


def brute_optimal(prob: CopProblem) -> Optional[Fraction]:
    """Minimum objective over all feasible assignments, None if UNSAT."""
    assert all(
        b.weight == 1 for b in prob.function.blocks
    ), "oracle requires uniform block weights"
    best: Optional[Fraction] = None
    for active in _active_configs(prob):
        roots = resolve_roots(prob, active)
        for cycles in _compact_schedules(prob, active, roots):
            for loc in _location_assignments(prob, active, roots):
                values = _assemble(prob, active, cycles, loc, roots)
                sol = make_solution(prob, values)
                if check_solution(sol, prob):
                    continue
                if best is None or sol.objective < best:
                    best = sol.objective
    return best


def _active_configs(prob: CopProblem):
    """All activation choices; NOP-block activations only as prefixes."""
    nop_ops = {idx for nops in prob.nop_blocks.values() for idx in nops}
    free = [op.index for op in prob.ops if op.optional and op.index not in nop_ops]
    mandatory = {op.index for op in prob.ops if not op.optional}
    prefix_choices = []
    for nops in sorted(prob.nop_blocks.values()):
        prefix_choices.append([set(nops[:k]) for k in range(len(nops) + 1)])
    for bits in itertools.product([False, True], repeat=len(free)):
        chosen = mandatory | {idx for idx, bit in zip(free, bits) if bit}
        for prefixes in itertools.product(*prefix_choices) if prefix_choices else [()]:
            active = set(chosen)
            for p in prefixes:
                active |= p
            yield active


def _compact_schedules(prob, active, roots):
    """Every dependency-valid per-block order, scheduled back to back."""
    func = prob.function
    per_block_orders = []
    for block in func.blocks:
        ops_here = [op for op in block.ops if op.index in active]
        term = [op for op in ops_here if op.is_terminator]
        body = [op for op in ops_here if not op.is_terminator]
        orders = []
        nops = [op for op in body if op.opcode is Opcode.NOP]
        rest = [op for op in body if op.opcode is not Opcode.NOP]
        # identical NOPs are interchangeable: keep them in index order at
        # the front of the block (canonical for NOP-only blocks)
        for perm in itertools.permutations(rest):
            if _deps_respected(prob, perm, active, roots):
                orders.append(nops + list(perm) + term)
        per_block_orders.append(orders)
    mem_before: dict[int, list[int]] = {}
    for a, b in prob.mem_deps:
        mem_before.setdefault(b, []).append(a)
    for combo in itertools.product(*per_block_orders):
        cycles = {}
        feasible = True
        for order in combo:
            clock = 0
            ready = {}
            for op in order:
                lo = clock
                for temp in op.temp_uses():
                    root = roots[temp]
                    site = def_site(prob.function, root)
                    if site is not None and site in active and site in ready:
                        lo = max(lo, ready[site])
                for site in mem_before.get(op.index, ()):
                    if site in ready:
                        lo = max(lo, ready[site])
                    elif site in active and prob.op_block[site] == prob.op_block[op.index]:
                        feasible = False  # same-slot access reordered
                cycles[op.index] = lo
                clock = lo + prob.latency[op.index]
                ready[op.index] = clock
                if clock > prob.horizon[prob.op_block[op.index]]:
                    feasible = False
        if feasible:
            yield cycles


def _deps_respected(prob, perm, active, roots) -> bool:
    pos = {op.index: i for i, op in enumerate(perm)}
    for i, op in enumerate(perm):
        for temp in op.temp_uses():
            site = def_site(prob.function, roots[temp])
            if site is not None and site in pos and pos[site] >= i:
                return False
    return True


def _location_assignments(prob, active, roots):
    """Product over root-value locations with cheap same-register pruning
    left to the checker; aliased temps follow their roots."""
    root_values = sorted({roots[n] for n in prob.function.temps})
    domains = [prob.reg_domain[v] for v in root_values]
    for combo in itertools.product(*domains):
        yield dict(zip(root_values, combo))


def _assemble(prob, active, cycles, loc, roots):
    values = {}
    for op in prob.ops:
        if op.optional:
            values[("active", op.index)] = op.index in active
        values[("cycle", op.index)] = cycles.get(
            op.index, prob.cycle_domain[op.index][0]
        )
    for name in prob.function.temps:
        values[("reg", name)] = loc[roots[name]]
    return values
