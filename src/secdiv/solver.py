"""Branch-and-bound search over the backend model, plus the pool driver
that produces diverse secure variants.

The search runs in three phases per branch: structural decisions first
(op activation, instruction alternative, operand swap), then issue cycles
block by block, then a location for every live value.  The objective is
fully determined once cycles are placed, so incumbent bounding happens
before allocation and the allocation phase is a pure feasibility search.
The bound is integer arithmetic on block weights scaled to integers, and
it is kept incremental: fixing a block's span adds that block's term.
Every accepted leaf is re-validated by the independent constraint checker
before it may become an incumbent or a pool member.

The phases are generators chained with ``yield from``: the innermost one
yields every leaf that passes the checker and the blocking distance, and
``_Search.run`` is their only consumer.  A first-solution search stops at
the first leaf; an optimizing search keeps each improving leaf as the
incumbent, which the bounds read as soon as the search resumes.
``_Timeout`` is the search's only exception: the deadline is read in
``_tick`` at any depth, and raising there spares a test after every
``yield from``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

from .copmodel import (
    CopProblem,
    Solution,
    VarKey,
    active_set,
    build_value_model,
    check_solution,
    make_solution,
    path_cost,
    resolve_roots,
    worst_edge_overhead,
)
from .machine import Opcode
from .mir import FunctionIR, SecurityLabel
from .secanalysis import Mode, extract_secret_path_sets, infer_types


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


class PoolReason(Enum):
    COMPLETE = "complete"
    EXHAUSTED = "exhausted"
    TIMEOUT = "timeout"


@dataclass
class SolveResult:
    status: SolveStatus
    solution: Optional[Solution] = None
    failing_family: Optional[str] = None
    nodes: int = 0


@dataclass
class VariantPool:
    solutions: list[Solution]
    reason: PoolReason
    problem: CopProblem


class _Timeout(Exception):
    pass


class _Search:
    def __init__(
        self,
        prob: CopProblem,
        seed: int = 0,
        shuffle: bool = False,
        blocking: Optional[list[Solution]] = None,
        dthresh: int = 1,
        deadline: Optional[float] = None,
    ):
        self.prob = prob
        self.shuffle = shuffle
        self.blocking = blocking or []
        self.dthresh = dthresh
        self.deadline = deadline
        self.rng = random.Random(f"secdiv:{seed}")
        self.nodes = 0
        self.fail_counts: dict[str, int] = {}

        func = prob.function
        # the objective in integers: block weights scaled by the LCM of
        # their denominators, and the bound and incumbent scaled alike; the
        # scaled objective is an int, so flooring the scaled bound is exact
        self.scale = math.lcm(*(b.weight.denominator for b in func.blocks))
        self.weight = [int(b.weight * self.scale) for b in func.blocks]
        self.bound = None if prob.opt_bound is None else math.floor(prob.opt_bound * self.scale)
        self.best: Optional[Solution] = None
        self.best_objective: Optional[int] = None
        self.inputs = func.input_names()
        self.ops_by_block = [list(b.ops) for b in func.blocks]
        self.lat = {op.index: prob.op_lat(op) for op in prob.ops}
        self.mandatory = {op.index for op in prob.ops if not op.optional}
        self.terminators = {op.index for op in prob.ops if op.is_terminator}
        # only activations are searched: instruction alternatives and
        # operand swaps touch no constraint and no cost, so the leaf picks
        # their values (enumerating combinations only when blocking
        # requires it)
        self.active_vars = [op.index for op in prob.ops if op.optional]
        self.instr_vars = [
            op.index for op in prob.ops if len(prob.alternatives[op.index]) > 1
        ]
        self.swap_vars = list(prob.swap_ops)

        self.cycle_order: list[int] = []
        for block in func.blocks:
            for op in block.ops:
                self.cycle_order.append(op.index)

        # per-variable value orders, fixed up front for reproducibility
        self.value_order: dict[VarKey, list] = {}
        for idx in self.active_vars:
            self.value_order[("active", idx)] = self._ordered([False, True])
        for idx in self.instr_vars:
            n = len(prob.alternatives[idx])
            self.value_order[("instr", idx)] = self._ordered(list(range(n)))
        for idx in self.swap_vars:
            self.value_order[("swap", idx)] = self._ordered([False, True])
        for idx in self.cycle_order:
            self.value_order[("cycle", idx)] = self._ordered(list(prob.cycle_domain[idx]))
        for name in func.temps:
            self.value_order[("reg", name)] = self._ordered(list(prob.reg_domain[name]))

        # the blocks each block reaches, itself included
        self.reach: list[set[int]] = [set() for _ in func.blocks]
        for b in reversed(range(len(func.blocks))):
            self.reach[b] = {b}.union(*(self.reach[s] for s in func.successors(b)))

        self.edge_const = {
            b.index: worst_edge_overhead(prob, b.index) for b in func.blocks
        }

        # balance equalities in difference form: shared blocks cancel, so
        # the check fires as soon as the differing blocks are scheduled
        # (path_cost with zero makespans is the taken-edge overhead alone)
        self.balance_diffs: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        no_spans = dict.fromkeys(range(len(func.blocks)), 0)
        for pset in prob.psets:
            anchor, *others = pset.paths
            for other in others:
                left = tuple(b for b in anchor if b not in set(other))
                right = tuple(b for b in other if b not in set(anchor))
                const = path_cost(prob, anchor, no_spans) - path_cost(prob, other, no_spans)
                self.balance_diffs.append((left, right, const))

    def _ordered(self, values: list) -> list:
        # shuffles in place: every caller passes a fresh list
        if self.shuffle:
            self.rng.shuffle(values)
        return values

    def _scaled(self, sol: Solution) -> int:
        return int(sol.objective * self.scale)

    def _fail(self, family: str) -> None:
        self.fail_counts[family] = self.fail_counts.get(family, 0) + 1

    def _tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 512 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout()

    # -- phase A: structural decisions ---------------------------------

    def run(self) -> SolveResult:
        try:
            for sol in self._assign_structural(0, {}):
                if self.shuffle:
                    return SolveResult(status=SolveStatus.SAT, solution=sol, nodes=self.nodes)
                objective = self._scaled(sol)
                if self.best_objective is None or objective < self.best_objective:
                    self.best, self.best_objective = sol, objective
        except _Timeout:
            return SolveResult(status=SolveStatus.TIMEOUT, solution=self.best, nodes=self.nodes)
        if self.best is not None:
            return SolveResult(status=SolveStatus.OPTIMAL, solution=self.best, nodes=self.nodes)
        family = max(self.fail_counts, key=lambda k: (self.fail_counts[k], k), default="search")
        return SolveResult(status=SolveStatus.UNSAT, failing_family=family, nodes=self.nodes)

    def _assign_structural(self, k: int, chosen: dict[VarKey, object]) -> Iterator[Solution]:
        self._tick()
        if k == len(self.active_vars):
            yield from self._enter_schedule(chosen)
            return
        idx = self.active_vars[k]
        key = ("active", idx)
        for value in self.value_order[key]:
            if value and not self._nop_prefix_ok(idx, chosen):
                continue
            chosen[key] = value
            yield from self._assign_structural(k + 1, chosen)
            del chosen[key]

    def _nop_prefix_ok(self, idx: int, chosen: dict[VarKey, object]) -> bool:
        """A balancing NOP may be active only after the one before it, so
        the active NOPs of a block always form a prefix."""
        block = self.prob.op_block[idx]
        nops = self.prob.nop_blocks.get(block)
        if not nops or idx not in nops:
            return True
        pos = nops.index(idx)
        return pos == 0 or chosen.get(("active", nops[pos - 1]), False)

    # -- phase B: cycles ------------------------------------------------

    def _enter_schedule(self, structural: dict[VarKey, object]) -> Iterator[Solution]:
        prob = self.prob
        active = set(self.mandatory)
        for idx in self.active_vars:
            if structural.get(("active", idx)):
                active.add(idx)
        roots = resolve_roots(prob, active)

        deps: dict[int, list[tuple[int, int]]] = {}
        for block_ops in self.ops_by_block:
            for op in block_ops:
                if op.index not in active:
                    continue
                for temp in prob.op_uses[op.index]:
                    site = prob.def_site.get(roots[temp])
                    if site is None or site not in active:
                        continue
                    if prob.op_block[site] == prob.op_block[op.index]:
                        deps.setdefault(op.index, []).append((site, self.lat[site]))
        for a, b in prob.mem_deps:
            if a in active and b in active:
                deps.setdefault(b, []).append((a, self.lat[a]))

        # placing a block's last active op fixes the block's span; a block
        # with no active op spans 0 cycles and a NOP block its active NOPs,
        # so the balance bounds are exact once the last block closes
        lb_span, ub_span = {}, {}
        closing = set()
        for b, block_ops in enumerate(self.ops_by_block):
            actives = [o.index for o in block_ops if o.index in active]
            lb_span[b] = sum(self.lat[i] for i in actives)
            if actives:
                closing.add(actives[-1])
            fixed = not actives or b in prob.nop_blocks
            ub_span[b] = lb_span[b] if fixed else prob.horizon[b]

        if not self._balance_bounds_ok(lb_span, ub_span):
            self._fail("balance")
            return
        objective = sum(
            self.weight[b] * (lb_span[b] + self.edge_const[b]) for b in lb_span
        )
        if not self._objective_bound_ok(objective):
            self._fail("optimality-gap")
            return

        state = _ScheduleState(
            active=active,
            roots=roots,
            deps=deps,
            lb_span=lb_span,
            ub_span=ub_span,
            closing=closing,
            objective=objective,
        )
        yield from self._assign_cycles(0, state)

    def _balance_bounds_ok(self, lb_span, ub_span, spans=None) -> bool:
        spans = spans or {}
        for left, right, const in self.balance_diffs:
            lo = hi = const
            for b in left:
                exact = spans.get(b)
                lo += exact if exact is not None else lb_span[b]
                hi += exact if exact is not None else ub_span[b]
            for b in right:
                exact = spans.get(b)
                lo -= exact if exact is not None else ub_span[b]
                hi -= exact if exact is not None else lb_span[b]
            if lo > 0 or hi < 0:
                return False
        return True

    def _objective_bound_ok(self, objective: int) -> bool:
        if self.bound is not None and objective > self.bound:
            return False
        if self.best_objective is not None and objective >= self.best_objective:
            return False
        return True

    def _assign_cycles(self, k: int, state: "_ScheduleState") -> Iterator[Solution]:
        self._tick()
        prob = self.prob
        while k < len(self.cycle_order) and self.cycle_order[k] not in state.active:
            k += 1
        if k == len(self.cycle_order):
            yield from self._enter_allocation(state)
            return
        idx = self.cycle_order[k]
        block = prob.op_block[idx]
        lat = self.lat[idx]
        horizon = prob.horizon[block]
        intervals = state.intervals.setdefault(block, [])
        lo = 0
        for site, site_lat in state.deps.get(idx, ()):
            lo = max(lo, state.cycle[site] + site_lat)
        if idx in self.terminators:
            lo = max(lo, state.block_end.get(block, 0))

        last_in_block = idx in state.closing
        weight = self.weight[block]
        lb = state.lb_span[block]
        prev_objective = state.objective

        for c in self.value_order[("cycle", idx)]:
            if c < lo or c + lat > horizon:
                continue
            if any(c < e and s < c + lat for s, e in intervals):
                continue
            state.cycle[idx] = c
            intervals.append((c, c + lat))
            prev_end = state.block_end.get(block, 0)
            state.block_end[block] = max(prev_end, c + lat)
            ok = True
            if last_in_block:
                state.spans[block] = state.block_end[block]
                state.objective = prev_objective + weight * (state.block_end[block] - lb)
                if not self._balance_bounds_ok(state.lb_span, state.ub_span, state.spans):
                    self._fail("balance")
                    ok = False
                elif not self._objective_bound_ok(state.objective):
                    self._fail("optimality-gap")
                    ok = False
            else:
                # the unfinished block's span is at least its current end
                lb_here = max(state.block_end[block], lb)
                if not self._objective_bound_ok(prev_objective + weight * (lb_here - lb)):
                    self._fail("optimality-gap")
                    ok = False
            if ok:
                yield from self._assign_cycles(k + 1, state)
            if last_in_block:
                state.spans.pop(block, None)
                state.objective = prev_objective
            state.block_end[block] = prev_end
            intervals.pop()
            del state.cycle[idx]

    # -- phase C: locations ---------------------------------------------

    def _enter_allocation(self, state: "_ScheduleState") -> Iterator[Solution]:
        prob = self.prob
        model = build_value_model(prob, state.active, state.cycle, state.roots)
        order = sorted(
            model.values,
            key=lambda v: (model.def_point[v][0], model.def_point[v][1], v),
        )
        overlap: dict[str, list[str]] = {v: [] for v in model.values}
        for i, v1 in enumerate(order):
            for v2 in order[i + 1 :]:
                if _intervals_overlap(model.intervals[v1], model.intervals[v2]):
                    overlap[v1].append(v2)
                    overlap[v2].append(v1)

        # values that may live in a memory slot: every use must be a copy
        # source (the value gets reloaded before any real use)
        mem_ok = {}
        for v in model.values:
            uses = model.uses[v]
            mem_ok[v] = all(
                prob.op_at[op_idx].opcode is Opcode.COPY for _, _, op_idx in uses
            )

        # the objective is fixed by the schedule: one feasible allocation per
        # schedule is enough when optimizing, and a first-solution search
        # stops at its first leaf anyway
        leaves = self._assign_locs(0, order, overlap, mem_ok, model, state, {})
        yield from itertools.islice(leaves, 1)

    def _assign_locs(self, k, order, overlap, mem_ok, model, state, loc) -> Iterator[Solution]:
        self._tick()
        prob = self.prob
        nregs = prob.num_registers
        if k == len(order):
            yield from self._leaf(state, loc, model)
            return
        value = order[k]
        copy_src_mem = False
        site = prob.def_site.get(value)
        if site is not None and site in prob.copy_ops:
            src, _ = prob.copy_ops[site]
            copy_src_mem = loc[state.roots[src]] >= nregs

        for r in self.value_order[("reg", value)]:
            # a memory slot takes neither a value with a non-copy use nor
            # a reload (a copy whose source is in memory)
            if r >= nregs and (not mem_ok[value] or copy_src_mem):
                continue
            if any(loc.get(other) == r for other in overlap[value]):
                continue
            if not self._psc_candidate_ok(value, r, loc, model):
                self._fail("rot-conflict")
                continue
            loc[value] = r
            yield from self._assign_locs(k + 1, order, overlap, mem_ok, model, state, loc)
            del loc[value]

    def _psc_candidate_ok(self, value, r, loc, model) -> bool:
        """Forbid a location when it provably creates a hazardous adjacent
        register transition (no unplaced value could break the adjacency)."""
        prob = self.prob
        if r >= prob.num_registers:
            return True
        if not prob.pairs.rpairs and not prob.pairs.hazard_temps:
            return True
        here = model.def_point[value]
        inputs = self.inputs
        prev = None
        prev_key = None
        for v, rv in loc.items():
            key = model.def_point[v]
            # a value whose block cannot reach this value's block is on no
            # path to it
            if rv != r or v == value or here[0] not in self.reach[key[0]]:
                continue
            if key <= here and (prev_key is None or key >= prev_key):
                prev, prev_key = v, key
        unplaced = [v for v in model.values if v not in loc and v != value]
        if prev is None:
            if any(model.def_point[v] <= here for v in unplaced):
                return True  # something may still be written to r first
            init = inputs[r] if r < len(inputs) else None
            if init is None:
                return value not in prob.pairs.hazard_temps
            pair = (init, value) if init < value else (value, init)
            return init == value or pair not in prob.pairs.rpairs
        # an unplaced value defined between prev and this one could still
        # take r and break the adjacency
        if any(prev_key < model.def_point[v] <= here for v in unplaced):
            return True
        pair = (prev, value) if prev < value else (value, prev)
        return prev == value or pair not in prob.pairs.rpairs

    # -- leaf -----------------------------------------------------------

    def _leaf(self, state, loc, model) -> Iterator[Solution]:
        prob = self.prob
        values: dict[VarKey, object] = {}
        for idx in self.active_vars:
            values[("active", idx)] = idx in state.active
        for op in prob.ops:
            if op.index in state.active:
                values[("cycle", op.index)] = state.cycle[op.index]
            else:
                values[("cycle", op.index)] = prob.cycle_domain[op.index][0]
        for name in prob.function.temps:
            root = state.roots[name]
            values[("reg", name)] = loc[root]

        checked = False
        for combo in self._leaf_combos():
            values.update(combo)
            sol = make_solution(prob, values)
            if not checked:
                # feasibility is independent of instr/swap choices: the
                # checker verdict of the first combination binds them all
                checked = True
                violations = check_solution(sol, prob)
                if violations:
                    self._fail(violations[0].family)
                    return
            if any(distance(sol, blocked) < self.dthresh for blocked in self.blocking):
                self._fail("distance")
                continue
            yield sol

    def _leaf_combos(self):
        """Assignments of the free instr/swap variables: the defaults when
        optimizing, every combination (shuffled) when generating variants."""
        if not self.shuffle or (not self.instr_vars and not self.swap_vars):
            yield {
                **{("instr", i): 0 for i in self.instr_vars},
                **{("swap", i): False for i in self.swap_vars},
            }
            return
        keys = [("instr", i) for i in self.instr_vars] + [
            ("swap", i) for i in self.swap_vars
        ]
        orders = [self.value_order[k] for k in keys]
        for combo in itertools.product(*orders):
            yield dict(zip(keys, combo))


@dataclass
class _ScheduleState:
    active: set[int]
    roots: dict[str, str]
    deps: dict[int, list[tuple[int, int]]]
    lb_span: dict[int, int]
    ub_span: dict[int, int]
    # ops whose placement fixes their block's span
    closing: set[int]
    # scaled objective with the spans fixed so far and lb_span elsewhere
    objective: int
    cycle: dict[int, int] = field(default_factory=dict)
    intervals: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    block_end: dict[int, int] = field(default_factory=dict)
    spans: dict[int, int] = field(default_factory=dict)


def _intervals_overlap(a, b) -> bool:
    for b1, s1, e1 in a:
        for b2, s2, e2 in b:
            if b1 == b2 and s1 <= e2 and s2 <= e1:
                return True
    return False


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------


def solve_optimal(prob: CopProblem, time_budget: float = 600.0) -> SolveResult:
    """Best solution by one exhaustive branch-and-bound search, or
    UNSAT/TIMEOUT.

    The search starts with no incumbent, and each improving leaf becomes
    the incumbent that bounds the rest.  A TIMEOUT carries the best leaf
    found so far, if any, and `nodes` counts every node of the solve.
    """
    return _Search(prob, deadline=time.monotonic() + time_budget).run()


def solve_one(
    prob: CopProblem,
    blocking: Optional[list[Solution]] = None,
    dthresh: int = 1,
    time_budget: float = 600.0,
    seed: int = 0,
) -> SolveResult:
    """First feasible solution under the problem bound and blocking set."""
    deadline = time.monotonic() + time_budget
    search = _Search(
        prob,
        seed=seed,
        shuffle=True,
        blocking=blocking,
        dthresh=dthresh,
        deadline=deadline,
    )
    return search.run()


def distance(a: Solution, b: Solution) -> int:
    """Hamming distance over the decision-variable vectors."""
    keys_a = tuple(k for k, _ in a.assignment)
    keys_b = tuple(k for k, _ in b.assignment)
    if keys_a != keys_b:
        raise ValueError("solutions come from different problems")
    return sum(1 for (_, va), (_, vb) in zip(a.assignment, b.assignment) if va != vb)


def diversify(
    prob: CopProblem,
    best: Solution,
    n: int,
    gap: Fraction = Fraction(0),
    dthresh: int = 1,
    time_budget: float = 600.0,
    seed: int = 0,
) -> VariantPool:
    """Grow a pool of solutions within the optimality gap, each at least
    `dthresh` away from every other; the best solution is variant 0."""
    bounded = replace(prob, opt_bound=(1 + gap) * best.objective)
    pool = [best]
    deadline = time.monotonic() + time_budget
    reason = PoolReason.COMPLETE
    i = 0
    while len(pool) < n:
        i += 1
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            reason = PoolReason.TIMEOUT
            break
        result = solve_one(
            bounded,
            blocking=list(pool),
            dthresh=dthresh,
            time_budget=remaining,
            seed=seed * 100003 + i,
        )
        if result.status is SolveStatus.SAT:
            pool.append(result.solution)
        elif result.status is SolveStatus.UNSAT:
            reason = PoolReason.EXHAUSTED
            break
        else:
            reason = PoolReason.TIMEOUT
            break
    return VariantPool(solutions=pool, reason=reason, problem=bounded)


# ----------------------------------------------------------------------
# security-unaware randomizing baseline
# ----------------------------------------------------------------------


def pick_base_mode(func: FunctionIR) -> Mode:
    types = infer_types(func)
    if extract_secret_path_sets(func, types):
        return Mode.TSC
    if any(label is SecurityLabel.RANDOM for _, label in func.inputs):
        return Mode.PSC
    return Mode.NONE


def naive_diversify(
    prob: CopProblem,
    base: Solution,
    n: int,
    seed: int = 0,
) -> VariantPool:
    """Random register renaming plus random NOP insertion on top of a
    secure base solution, with no knowledge of balancing or leak pairs.

    `prob` is built in the mode `pick_base_mode` picks, and `base` solves
    it.  Renaming keeps live-range validity (variants stay functionally
    correct) and prefers recently freed registers the way a reuse-friendly
    allocator does, but it ignores transition hazards; NOP insertion
    ignores path balance.
    """
    pool = [base]
    seen = {base.assignment}

    base_values = base.as_dict()
    active = active_set(prob, base_values)
    roots = resolve_roots(prob, active)
    cycle = {op.index: base_values[("cycle", op.index)] for op in prob.ops}
    model = build_value_model(prob, active, cycle, roots)
    order = sorted(
        model.values, key=lambda v: (model.def_point[v][0], model.def_point[v][1], v)
    )
    inputs = prob.function.input_names()

    variant = 0
    while len(pool) < n:
        variant += 1
        if variant > 50 * n:
            break
        rng = random.Random(f"naive:{seed}:{variant}")
        values = dict(base_values)
        if not _naive_rename(prob, model, order, inputs, roots, values, rng):
            continue
        _naive_insert_nops(prob, active, values, rng)
        sol = make_solution(prob, values)
        if sol.assignment in seen:
            continue
        seen.add(sol.assignment)
        pool.append(sol)
    return VariantPool(
        solutions=pool,
        reason=PoolReason.COMPLETE if len(pool) == n else PoolReason.EXHAUSTED,
        problem=prob,
    )


_REUSE_WEIGHT = 5


def _naive_rename(prob, model, order, inputs, roots, values, rng) -> bool:
    nregs = prob.num_registers
    loc: dict[str, int] = {}
    for value in order:
        base_loc = values[("reg", value)]
        if value in inputs or base_loc >= nregs:
            loc[value] = base_loc
            continue
        db, dt = model.def_point[value]
        candidates = []
        for r in range(nregs):
            clash = False
            for other, rother in loc.items():
                if rother == r and _intervals_overlap(
                    model.intervals[value], model.intervals[other]
                ):
                    clash = True
                    break
            if not clash:
                candidates.append(r)
        if not candidates:
            return False
        weights = []
        for r in candidates:
            recent = False
            for other, rother in loc.items():
                if rother != r:
                    continue
                for b, s, e in model.intervals[other]:
                    if b == db and e <= dt and dt - e <= 2:
                        recent = True
            weights.append(_REUSE_WEIGHT if recent else 1)
        loc[value] = rng.choices(candidates, weights=weights, k=1)[0]
    for name in prob.function.temps:
        values[("reg", name)] = loc[roots[name]]
    return True


def _naive_insert_nops(prob, active, values, rng) -> None:
    for block in prob.function.blocks:
        if rng.random() >= 0.6:
            continue
        ops_here = [o.index for o in block.ops if o.index in active]
        if not ops_here:
            continue
        pivot = rng.choice(ops_here)
        k = rng.randint(1, 2)
        threshold = values[("cycle", pivot)]
        for idx in ops_here:
            if values[("cycle", idx)] >= threshold:
                values[("cycle", idx)] = values[("cycle", idx)] + k
