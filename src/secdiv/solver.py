"""Branch-and-bound search over the backend model, plus the pool driver
that produces diverse secure variants.

The search runs in three phases per branch: structural decisions first
(which optional ops are active), then issue cycles block by block, then a
location for every live value.  The objective is fully determined once
cycles are placed, so incumbent bounding happens before allocation and the
allocation phase is a pure feasibility search.  The bound is integer
arithmetic on block weights scaled to integers, and it is kept
incremental: fixing a block's span adds that block's term.  Every accepted
leaf is re-validated by the independent constraint checker before it may
become an incumbent or a pool member.

What depends on neither the seed nor the blocking set is built once per
problem, in a ``_Plan``: ``diversify`` builds one for its bounded problem,
and every search of the pool reads it.  It holds the structural steps and
each block's span from its mandatory ops.  What the model states (tables,
domains, canonical form, transition rule, the balance rows, what each op
waits for in its block, and each schedule's clashing and copy-only
values), the search reads from the problem and does not restate.

The search cuts every subtree that holds no leaf, and only those, so the
leaves and their order are those of a search without the cuts:

- a balancing block's NOPs are one step, the pad's length, whose order
  comes from the NOPs' activation values;
- every structural node tests the balance rows and the objective on span
  intervals that count the optional latency still undecided;
- in the cycle phase, the open block's unplaced ops fill its free cycles
  preemptively (each block's busy cycles are one int bitmask), and that
  end bounds the objective, the balance rows and the horizon;
- within one schedule entry, a vector of closed spans from which the later
  blocks reached no schedule is skipped when it recurs.

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
import operator
import random
import time
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .copmodel import (
    ZERO,
    CopProblem,
    Solution,
    VarKey,
    active_set,
    build_value_model,
    check_solution,
    hazard,
    make_solution,
    resolve_roots,
    waits_for,
)


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


class _Plan:
    """What every search of one problem shares, built once per problem:
    everything that depends on neither the seed nor the blocking set and
    that the model does not state (the balance rows are the problem's)."""

    def __init__(self, prob: CopProblem):
        self.prob = prob
        func = prob.function
        nblocks = len(func.blocks)
        # the objective in integers: the problem's scaled block weights, and
        # the bound and incumbent scaled alike; the scaled objective is an
        # int, so flooring the scaled bound is exact
        bound = prob.opt_bound
        self.bound = None if bound is None else math.floor(bound * prob.weight_scale)
        self.keys = tuple(prob.var_order)
        self.inputs = func.input_names()
        self.ops_by_block = [[op.index for op in b.ops] for b in func.blocks]
        self.cycle_order = [idx for ops in self.ops_by_block for idx in ops]
        self.mandatory = frozenset(op.index for op in prob.ops if not op.optional)
        self.terminators = {op.index for op in prob.ops if op.is_terminator}
        # only activations are searched: instruction alternatives and
        # operand swaps touch no constraint and no cost, so the leaf picks
        # their values (enumerating combinations only when blocking
        # requires it)
        self.active_vars = [op.index for op in prob.ops if op.optional]
        self.instr_vars = [
            op.index for op in prob.ops if len(prob.alternatives[op.index]) > 1
        ]
        # the structural phase decides one step at a time: an optional op on
        # or off, or a pad's length (a balancing block's active NOPs always
        # form a prefix, pinned to cycles 0, 1, ...); turning on n ops of
        # step k adds step_lat[k][n] cycles to the span of step_block[k]
        self.steps: list[tuple[int, ...]] = []
        for idx in self.active_vars:
            nops = prob.nop_blocks.get(prob.op_block[idx])
            if nops is None:
                self.steps.append((idx,))
            elif idx == nops[0]:
                self.steps.append(nops)
        assert [idx for step in self.steps for idx in step] == self.active_vars, (
            "each pad's NOPs are contiguous in active_vars"
        )
        self.step_block = [prob.op_block[step[0]] for step in self.steps]
        self.step_lat = [
            tuple(itertools.accumulate((prob.latency[idx] for idx in step), initial=0))
            for step in self.steps
        ]

        # the blocks each block reaches, itself included
        self.reach: list[set[int]] = [set() for _ in func.blocks]
        for b in reversed(range(nblocks)):
            self.reach[b] = {b}.union(*(self.reach[s] for s in func.successors(b)))

        # each block's span bounds with its mandatory ops alone, which the
        # structural phase updates as it decides optional ops: the lower
        # bound is the latency sum of the active ops; `undecided` is the
        # latency of the optional ops not yet decided
        self.span_cap = [None if b in prob.nop_blocks else prob.horizon[b] for b in range(nblocks)]
        self.lb_span = [0] * nblocks
        for idx in self.mandatory:
            self.lb_span[prob.op_block[idx]] += prob.latency[idx]
        self.undecided = [0] * nblocks
        for idx in self.active_vars:
            self.undecided[prob.op_block[idx]] += prob.latency[idx]
        self.ub_span = [self.span_upper(b, self.lb_span[b], self.undecided[b]) for b in range(nblocks)]
        spans = zip(prob.scaled_weights, self.lb_span, prob.edge_overhead)
        self.objective = sum(w * (lb + e) for w, lb, e in spans)

    def span_upper(self, b: int, lb: int, undecided: int) -> int:
        """Block b's largest span when its active ops take `lb` cycles and
        its undecided optional ops `undecided`: the horizon, except that a
        block that can hold no op spans 0 cycles (every latency is at
        least 1) and a pad (span_cap None) spans its NOPs."""
        cap = self.span_cap[b]
        return cap if cap is not None and (lb or undecided) else lb + undecided

    def values(self, sol: Solution) -> tuple:
        """The solution's value vector, in the problem's variable order."""
        if tuple(k for k, _ in sol.assignment) != self.keys:
            raise ValueError("solutions come from different problems")
        return tuple(v for _, v in sol.assignment)


class _Search:
    """One search of a plan's problem.  Its cuts (see the module docstring)
    live in methods that can be overridden to switch them off: the
    pad-length steps and the bounds at every structural node in
    `_assign_structural`, the open block's end in `_open_end`, and the
    closed-span nogoods in `_close_block`.

    The cycle phase narrows the structural phase's span bounds and
    objective in place and restores them as it backtracks;
    `_enter_schedule` sets up the rest of each schedule entry's state on
    the search."""

    def __init__(
        self,
        plan: _Plan,
        seed: int = 0,
        shuffle: bool = False,
        blocked: Sequence[tuple] = (),
        dthresh: int = 1,
        deadline: Optional[float] = None,
    ):
        self.plan = plan
        self.prob = prob = plan.prob
        self.shuffle = shuffle
        # the blocking set as value vectors (_Plan.values)
        self.blocked = blocked
        self.dthresh = dthresh
        self.deadline = deadline
        self.rng = random.Random(f"secdiv:{seed}")
        self.nodes = 0
        # schedules handed to the allocation phase
        self.scheduled = 0
        self.fail_counts: dict[str, int] = {}
        self.best: Optional[Solution] = None
        self.best_objective: Optional[int] = None

        # the structural phase's state: the active optional ops, each
        # block's span bounds and undecided optional latency, and the
        # objective's lower bound, updated as steps are decided
        self.on: set[int] = set()
        self.lb_span = list(plan.lb_span)
        self.ub_span = list(plan.ub_span)
        self.undecided = list(plan.undecided)
        self.objective = plan.objective

        # per-variable value orders over the problem's domains, fixed up
        # front for reproducibility: a seed's draws go in this key order
        keys = [("active", idx) for idx in plan.active_vars]
        keys += [("instr", idx) for idx in plan.instr_vars]
        keys += [("swap", idx) for idx in prob.swap_ops]
        keys += [("cycle", idx) for idx in plan.cycle_order]
        keys += [("reg", name) for name in prob.function.temps]
        self.value_order: dict[VarKey, list] = {
            key: self._ordered(list(prob.domain(key))) for key in keys
        }
        # each step's lengths, in the order the activations' values give
        self.lengths = [
            _pad_lengths([self.value_order[("active", idx)] for idx in step])
            for step in plan.steps
        ]

    def _ordered(self, values: list) -> list:
        # shuffles in place: every caller passes a fresh list; a shuffle of
        # fewer than two values draws nothing, so it is skipped
        if self.shuffle and len(values) > 1:
            self.rng.shuffle(values)
        return values

    def _scaled(self, sol: Solution) -> int:
        return int(sol.objective * self.prob.weight_scale)

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
            for sol in self._assign_structural(0):
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

    def _assign_structural(self, k: int) -> Iterator[Solution]:
        """Decide step k and the steps after it.  A pad's length is one
        choice, so each length costs one node.  Every node tests the bounds
        on span intervals: a block's span lies between its active latency
        and its upper bound with its undecided ops on."""
        self._tick()
        if not self._bounds_ok(self.lb_span, self.ub_span, self.objective):
            return
        if k == len(self.plan.steps):
            yield from self._enter_schedule()
            return
        for n in self.lengths[k]:
            self._shift(k, n, 1)
            yield from self._assign_structural(k + 1)
            self._shift(k, n, -1)

    def _shift(self, k: int, n: int, sign: int) -> None:
        """Turn the first n ops of step k on (sign 1) or back off (sign -1),
        with the step's block span bounds and the objective's lower bound."""
        plan = self.plan
        ops = plan.steps[k][:n]
        if sign > 0:
            self.on.update(ops)
        else:
            self.on.difference_update(ops)
        b = plan.step_block[k]
        lats = plan.step_lat[k]
        lb = self.lb_span[b] = self.lb_span[b] + sign * lats[n]
        undecided = self.undecided[b] = self.undecided[b] - sign * lats[-1]
        self.ub_span[b] = plan.span_upper(b, lb, undecided)
        self.objective += sign * self.prob.scaled_weights[b] * lats[n]

    # -- phase B: cycles ------------------------------------------------

    def _enter_schedule(self) -> Iterator[Solution]:
        plan = self.plan
        prob = self.prob
        active = self.active = plan.mandatory | self.on
        roots = self.roots = resolve_roots(prob, active)
        deps = self.deps = waits_for(prob, active, roots)
        # each active op's later active ops in its block, as (op, latency,
        # dependencies): none for the op whose placement closes the block
        # and fixes its span
        self.later: dict[int, tuple[tuple[int, int, Sequence[tuple[int, int]]], ...]] = {}
        for ops in plan.ops_by_block:
            ops = [(idx, prob.latency[idx], deps.get(idx, ())) for idx in ops if idx in active]
            for i, (idx, _, _) in enumerate(ops):
                self.later[idx] = tuple(ops[i + 1 :])
        # each block's busy cycles, bit c for cycle c (every latency is at
        # least 1, so a block's placed ops end by busy.bit_length())
        self.busy = [0] * len(plan.ops_by_block)
        self.cycle: dict[int, int] = {}
        # the closed-span vectors whose subtree reached no schedule
        self.dead: set[tuple[int, ...]] = set()
        yield from self._assign_cycles(0)

    def _bounds_ok(self, lo_span: list[int], hi_span: list[int], objective: int) -> bool:
        if not self._balance_bounds_ok(lo_span, hi_span):
            self._fail("balance")
            return False
        if not self._objective_bound_ok(objective):
            self._fail("optimality-gap")
            return False
        return True

    def _balance_bounds_ok(self, lo_span: list[int], hi_span: list[int]) -> bool:
        for left, right, const in self.prob.balance:
            lo = hi = const
            for b in left:
                lo += lo_span[b]
                hi += hi_span[b]
            for b in right:
                lo -= hi_span[b]
                hi -= lo_span[b]
            if lo > 0 or hi < 0:
                return False
        return True

    def _objective_bound_ok(self, objective: int) -> bool:
        bound = self.plan.bound
        if bound is not None and objective > bound:
            return False
        if self.best_objective is not None and objective >= self.best_objective:
            return False
        return True

    def _assign_cycles(self, k: int) -> Iterator[Solution]:
        self._tick()
        plan = self.plan
        order = plan.cycle_order
        while k < len(order) and order[k] not in self.active:
            k += 1
        if k == len(order):
            yield from self._enter_allocation()
            return
        idx = order[k]
        prob = self.prob
        block = prob.op_block[idx]
        lat = prob.latency[idx]
        horizon = prob.horizon[block]
        busy = self.busy[block]
        lo = 0
        for site, site_lat in self.deps.get(idx, ()):
            lo = max(lo, self.cycle[site] + site_lat)
        if idx in plan.terminators:
            lo = max(lo, busy.bit_length())

        rest = self.later[idx]
        weight = prob.scaled_weights[block]
        lb = self.lb_span[block]
        ub = self.ub_span[block]
        objective = self.objective
        ones = (1 << lat) - 1

        for c in self.value_order[("cycle", idx)]:
            if c < lo or c + lat > horizon or busy >> c & ones:
                continue
            self.cycle[idx] = c
            self.busy[block] = busy | ones << c
            if not rest:
                end = self.busy[block].bit_length()
                self.lb_span[block] = self.ub_span[block] = end
                self.objective = objective + weight * (end - lb)
                if self._bounds_ok(self.lb_span, self.ub_span, self.objective):
                    yield from self._close_block(k, block)
                self.lb_span[block], self.ub_span[block] = lb, ub
                self.objective = objective
                continue
            end = self._open_end(block, rest)
            if end > horizon:
                continue
            self.lb_span[block] = end
            ok = self._bounds_ok(self.lb_span, self.ub_span, objective + weight * (end - lb))
            self.lb_span[block] = lb
            if ok:
                yield from self._assign_cycles(k + 1)
        self.busy[block] = busy
        self.cycle.pop(idx, None)

    def _open_end(self, block: int, rest: tuple) -> int:
        """A lower bound on the end of an open block: its unplaced ops
        `rest` fill its free cycles preemptively, each from its release (its
        earliest start after its same-block dependencies), in release
        order, and the terminator comes after all of them.  On one unit
        with preemption, filling in release order ends earliest (the
        preemptive relaxation of Baptiste, Le Pape and Nuijten,
        "Constraint-Based Scheduling", 2001)."""
        cycle = self.cycle
        release: dict[int, int] = {}
        jobs = []
        for idx, lat, deps in rest:
            r = 0
            for site, site_lat in deps:
                start = cycle.get(site)
                if start is None:
                    start = release.get(site, 0)
                if start + site_lat > r:
                    r = start + site_lat
            release[idx] = r
            jobs.append((r, lat))
        # a block's terminator is its last op
        last = jobs.pop() if rest[-1][0] in self.plan.terminators else None
        busy = self.busy[block]
        jobs.sort()
        for r, lat in jobs:
            for _ in range(lat):
                free = ~busy >> r << r
                busy |= free & -free
        # every op placed or filled ends by the highest busy cycle
        end = busy.bit_length()
        if last is not None:
            r, lat = last
            end = (r if r > end else end) + lat
        return end

    def _close_block(self, k: int, block: int) -> Iterator[Solution]:
        """Place the ops after op k, `block` now closed.  The later blocks'
        search reads only the spans of the closed blocks, its own blocks'
        dependencies and an incumbent that never gets worse.  So once it
        reaches no schedule from one vector of closed spans, it never will
        from that vector in this entry, and the vector is skipped."""
        key = tuple(self.lb_span[: block + 1])
        if key in self.dead:
            return
        scheduled = self.scheduled
        yield from self._assign_cycles(k + 1)
        if self.scheduled == scheduled:
            self.dead.add(key)

    # -- phase C: locations ---------------------------------------------

    def _enter_allocation(self) -> Iterator[Solution]:
        self.scheduled += 1
        model = build_value_model(self.prob, self.active, self.cycle)
        # the objective is fixed by the schedule: one feasible allocation per
        # schedule is enough when optimizing, and a first-solution search
        # stops at its first leaf anyway
        leaves = self._assign_locs(0, _allocation_order(model), model, {})
        yield from itertools.islice(leaves, 1)

    def _assign_locs(self, k, order, model, loc) -> Iterator[Solution]:
        self._tick()
        prob = self.prob
        nregs = prob.num_registers
        if k == len(order):
            yield from self._leaf(loc, model)
            return
        value = order[k]
        copy_src_mem = False
        site = prob.def_site.get(value)
        if site is not None and site in prob.copy_ops:
            src, _ = prob.copy_ops[site]
            copy_src_mem = loc[self.roots[src]] >= nregs

        for r in self.value_order[("reg", value)]:
            # a memory slot takes neither a value with a non-copy use nor
            # a reload (a copy whose source is in memory)
            if r >= nregs and (value not in model.copied_only or copy_src_mem):
                continue
            if any(loc.get(other) == r for other in model.interference[value]):
                continue
            if not self._psc_candidate_ok(value, r, loc, model):
                self._fail("rot-conflict")
                continue
            loc[value] = r
            yield from self._assign_locs(k + 1, order, model, loc)
            del loc[value]

    def _psc_candidate_ok(self, value, r, loc, model) -> bool:
        """Forbid a location when it provably makes an adjacent register
        transition that `hazard` forbids (no unplaced value could break the
        adjacency)."""
        prob = self.prob
        if r >= prob.num_registers:
            return True
        if not prob.pairs.rpairs and not prob.pairs.hazard_temps:
            return True
        here = model.def_point[value]
        prev = None
        prev_key = None
        for v, rv in loc.items():
            key = model.def_point[v]
            # a value whose block cannot reach this value's block is on no
            # path to it
            if rv != r or v == value or here[0] not in self.plan.reach[key[0]]:
                continue
            if key <= here and (prev_key is None or key >= prev_key):
                prev, prev_key = v, key
        unplaced = [v for v in model.values if v not in loc and v != value]
        if prev is None:
            if any(model.def_point[v] <= here for v in unplaced):
                return True  # something may still be written to r first
            inputs = self.plan.inputs
            prev = inputs[r] if r < len(inputs) else ZERO
        # an unplaced value defined between prev and this one could still
        # take r and break the adjacency
        elif any(prev_key < model.def_point[v] <= here for v in unplaced):
            return True
        return not hazard(prob, prev, value)

    # -- leaf -----------------------------------------------------------

    def _leaf(self, loc, model) -> Iterator[Solution]:
        # canonical form fills in what the leaf did not decide
        prob = self.prob
        values: dict[VarKey, object] = {
            ("active", idx): idx in self.active for idx in self.plan.active_vars
        }
        values.update((("cycle", idx), c) for idx, c in self.cycle.items())
        values.update((("reg", v), r) for v, r in loc.items())

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
            if self._too_close(sol):
                self._fail("distance")
                continue
            yield sol

    def _too_close(self, sol: Solution) -> bool:
        """Whether `sol` lies closer than `dthresh` to a blocked solution
        (the Hamming distance of `distance`, on value vectors)."""
        values = [v for _, v in sol.assignment]
        return any(sum(map(operator.ne, values, b)) < self.dthresh for b in self.blocked)

    def _leaf_combos(self):
        """Assignments of the free instr/swap variables, in their value
        orders.  An optimizing search's orders are unshuffled, so its first
        combination is the defaults, and `_enter_allocation` keeps one leaf
        of a schedule."""
        keys = [("instr", i) for i in self.plan.instr_vars]
        keys += [("swap", i) for i in self.prob.swap_ops]
        for combo in itertools.product(*(self.value_order[k] for k in keys)):
            yield dict(zip(keys, combo))


def _pad_lengths(orders: Sequence[Sequence[bool]]) -> list[int]:
    """The order in which a NOP-by-NOP search visits a pad's lengths, given
    the value order of each NOP's activation.  NOP i, decided with NOPs
    0..i-1 on, is off exactly for length i and on for every longer length,
    so `[False, True]` puts length i before the longer lengths and
    `[True, False]` after them."""
    lengths = [len(orders)]
    for i in reversed(range(len(orders))):
        if orders[i][0]:
            lengths.append(i)
        else:
            lengths.insert(0, i)
    return lengths


def _allocation_order(model) -> list[str]:
    """The values in the order both allocators place them: by defining
    block, then ready cycle, then name."""
    return sorted(model.values, key=lambda v: (model.def_point[v], v))


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------


def _deadline(time_budget: float) -> float:
    """The monotonic time at which a search stops.  A budget of 0 or less
    stops it at its first deadline check; a NaN budget would never stop it,
    because no comparison with NaN holds."""
    if math.isnan(time_budget):
        raise ValueError("time_budget must be a number, not NaN")
    return time.monotonic() + time_budget


def solve_optimal(prob: CopProblem, time_budget: float = 600.0) -> SolveResult:
    """Best solution by one exhaustive branch-and-bound search, or
    UNSAT/TIMEOUT.

    The search starts with no incumbent, and each improving leaf becomes
    the incumbent that bounds the rest.  A TIMEOUT carries the best leaf
    found so far, if any, and `nodes` counts every node of the solve.
    """
    return _Search(_Plan(prob), deadline=_deadline(time_budget)).run()


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
    `dthresh` away from every other; the best solution is variant 0.
    A `gap` below 0 would bound the objective below `best`'s own, and an
    `n` below 1 asks for less than variant 0: both raise ValueError, as a
    `dthresh` below 1 does, before any search."""
    deadline = _deadline(time_budget)
    if dthresh < 1:
        raise ValueError(f"dthresh must be at least 1, not {dthresh}")
    if gap < 0:
        raise ValueError(f"gap must be at least 0, not {gap}")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    bounded = replace(prob, opt_bound=(1 + gap) * best.objective)
    # a value model reads nothing that opt_bound changes: share the memo
    bounded.value_models = prob.value_models
    # every search of the pool shares one plan, and the pool's value vectors
    plan = _Plan(bounded)
    pool = [best]
    blocked = [plan.values(best)]
    reason = PoolReason.COMPLETE
    i = 0
    while len(pool) < n:
        i += 1
        if time.monotonic() >= deadline:
            reason = PoolReason.TIMEOUT
            break
        result = _Search(
            plan,
            seed=seed * 100003 + i,
            shuffle=True,
            blocked=blocked,
            dthresh=dthresh,
            deadline=deadline,
        ).run()
        if result.status is SolveStatus.SAT:
            pool.append(result.solution)
            blocked.append(plan.values(result.solution))
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


def naive_diversify(
    prob: CopProblem,
    base: Solution,
    n: int,
    seed: int = 0,
) -> VariantPool:
    """Random register renaming plus random NOP insertion on top of a
    secure base solution, with no knowledge of balancing or leak pairs.

    `base` solves `prob`; ``secdiv diversify --mode naive`` builds `prob`
    in the mode `secanalysis.pick_base_mode` picks.  The pool promises
    equivalence to `base` only, and no gap or distance bounds it.
    Renaming keeps live-range validity (variants stay functionally
    correct) and prefers recently freed registers the way a reuse-friendly
    allocator does, but it ignores transition hazards; NOP insertion
    ignores path balance.
    """
    pool = [base]
    seen = {base.assignment}

    base_values = base.as_dict()
    active = active_set(prob, base_values)
    cycle = {op.index: base_values[("cycle", op.index)] for op in prob.ops}
    model = build_value_model(prob, active, cycle)
    order = _allocation_order(model)
    inputs = prob.function.input_names()

    variant = 0
    while len(pool) < n:
        variant += 1
        if variant > 50 * n:
            break
        rng = random.Random(f"naive:{seed}:{variant}")
        values = dict(base_values)
        if not _naive_rename(prob, model, order, inputs, values, rng):
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


def _naive_rename(prob, model, order, inputs, values, rng) -> bool:
    nregs = prob.num_registers
    loc: dict[str, int] = {}
    for value in order:
        base_loc = values[("reg", value)]
        if value in inputs or base_loc >= nregs:
            loc[value] = base_loc
            continue
        db, dt = model.def_point[value]
        clashing = {loc[other] for other in model.interference[value] if other in loc}
        candidates = [r for r in range(nregs) if r not in clashing]
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
    values.update((("reg", v), r) for v, r in loc.items())  # the roots' locations
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
