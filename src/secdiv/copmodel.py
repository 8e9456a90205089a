"""Combinatorial backend model: scheduling plus register allocation under
security constraints.

A problem instance is built from an analyzed function and exposes

  * decision variables: per-op activation, issue cycle, instruction
    alternative and operand swap, and a unified location index per temp
    (registers first, then memory slots),
  * base constraints: data dependencies, single-issue blocks, live-range
    interference, copy aliasing semantics,
  * security constraint families: path balancing for the timing model,
    register-transition and memory-order conflicts for the power model,
  * an optional optimality-gap bound on the block-weighted objective.

The model states each fact once, for the solver and the lowering to read:
`CopProblem.domain` lists each variable's values, `_canonical` is the
canonical form that every `Solution` is in, `hazard` the transition rule,
`CopProblem.balance` the balance rows, `waits_for` what each op waits
for in its block, and a schedule's `ValueModel` its live ranges, which
values clash (`interference`) and which only copies read (`copied_only`).
The search bounds each of them, and the checker evaluates them.  The
canonical form and the checker read which copy spills or reloads from
`machine.copy_opcode`, as the encoder does.

`build_problem` fills what every leaf reads once per problem: each op's
latency (`CopProblem.latency`, the profile's, a copy's 2 cycles too),
the balance rows, each block's taken-edge overhead and the block weights
as integers, scaled by the LCM of their denominators, so the objective
is an integer sum divided by that scale, exact and equal to the
`Fraction` sum.  `build_value_model` is memoized
per problem instance on the active set and the cycles of the active ops,
the inputs it reads (the roots follow from the active set); the memo
lives on the problem and only as long as it, and a `ValueModel` is
read-only.  It is built in one pass per fact: each block's last use of
each value, live-in and live-out in one backward pass, one interval per
block a value is defined in or live into, and the clashes from each
block's intervals.

`check_solution` re-evaluates every constraint from scratch on a
`Solution`, its `objective` field included, after checking that every
variable takes a value of its domain and of its type (an activation or
swap is a bool, an instruction, cycle or location an int); it reads the
model's statements, as the search does, but none of the search's
propagation, and is the final word on feasibility.
It derives each fact of the assignment once per check, and a memo hit
means only that the same pure function got equal inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Mapping, Optional, Sequence

from .machine import MachineProfile, Opcode, Schedule, copy_opcode, remat_constant
from .mir import FunctionIR, Operation
from .secanalysis import AnalyzedFunction, LeakPairSets, Mode, SecretPathSet, memory_conflicts

VarKey = tuple[str, object]

# idle cycles a block may gain beyond its ops' summed latency (blocks of
# balancing NOPs gain none: their NOPs are the padding)
NOP_BUDGET = 3


class ModelInfeasibleError(Exception):
    """Raised when the problem is infeasible by construction."""


@dataclass(frozen=True)
class Violation:
    family: str
    message: str

    def __str__(self) -> str:
        return f"[{self.family}] {self.message}"


@dataclass(frozen=True)
class Solution:
    """Full assignment of the decision variables, in canonical form."""

    assignment: tuple[tuple[VarKey, object], ...]
    objective: Fraction

    def as_dict(self) -> dict[VarKey, object]:
        return dict(self.assignment)


def make_solution(prob: "CopProblem", values: Mapping[VarKey, object]) -> Solution:
    """The canonical solution of `values`: the activations, the active ops'
    cycles and each root value's location, and canonical form for the rest."""
    active = active_set(prob, values)
    assignment = _canonical(prob, values, active, resolve_roots(prob, active))
    cycle = {idx: values[("cycle", idx)] for idx in active}
    objective = _objective(prob, block_makespans(prob, active, cycle))
    return Solution(assignment=assignment, objective=objective)


@dataclass
class CopProblem:
    function: FunctionIR
    profile: MachineProfile
    mode: Mode
    pairs: LeakPairSets
    psets: list[SecretPathSet]
    # (1 + gap) times the optimum, exact, when the problem bounds the gap
    opt_bound: Optional[Fraction] = None

    # derived structure (filled by build_problem)
    ops: list[Operation] = field(default_factory=list)
    op_block: dict[int, int] = field(default_factory=dict)
    # temp-name operands of each op, and the op defining each non-input temp
    op_uses: dict[int, tuple[str, ...]] = field(default_factory=dict)
    def_site: dict[str, int] = field(default_factory=dict)
    copy_ops: dict[int, tuple[str, str]] = field(default_factory=dict)
    alternatives: dict[int, tuple[Opcode, ...]] = field(default_factory=dict)
    swap_ops: tuple[int, ...] = ()
    nop_blocks: dict[int, tuple[int, ...]] = field(default_factory=dict)
    horizon: dict[int, int] = field(default_factory=dict)
    cycle_domain: dict[int, tuple[int, ...]] = field(default_factory=dict)
    reg_domain: dict[str, tuple[int, ...]] = field(default_factory=dict)
    var_order: list[VarKey] = field(default_factory=list)
    # same-slot memory accesses keep their program order (no aliasing
    # analysis: one name is one location)
    mem_deps: tuple[tuple[int, int], ...] = ()
    # each op's latency, by op index
    latency: dict[int, int] = field(default_factory=dict)
    # the block weights as integers: each weight times weight_scale, the
    # LCM of their denominators
    weight_scale: int = 1
    scaled_weights: tuple[int, ...] = ()
    # each block's taken-edge overhead in the objective
    edge_overhead: tuple[int, ...] = ()
    # balance rows: each path of a secret path set against the set's first
    # path, as (blocks only on the first, blocks only on the other, the
    # first's taken-edge overhead minus the other's), balanced when the
    # constant plus the first blocks' spans minus the other's is 0
    balance: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...] = ()
    # build_value_model's memo, keyed on each op's cycle (None for an
    # inactive op); build_problem leaves in it the model its infeasibility
    # check reads, a copy made with dataclasses.replace starts empty, and
    # diversify hands its bounded copy the memo of the problem it copies
    value_models: dict[tuple, "ValueModel"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_registers(self) -> int:
        return self.profile.num_registers

    def domain(self, key: VarKey) -> tuple:
        """The values of variable `key`, in an unshuffled search's order."""
        kind, index = key
        if kind in ("active", "swap"):
            return (False, True)
        if kind == "instr":
            return tuple(range(len(self.alternatives[index])))
        return (self.cycle_domain if kind == "cycle" else self.reg_domain)[index]


def build_problem(analyzed: AnalyzedFunction) -> CopProblem:
    """Assemble the constraint problem for one analyzed function, in the
    mode and profile its analysis ran with: path balancing in tsc, the
    leak pairs in psc, neither in none."""
    func, profile, mode = analyzed.function, analyzed.profile, analyzed.mode
    if len(func.inputs) > profile.num_registers:
        raise ModelInfeasibleError(
            f"{len(func.inputs)} inputs exceed {profile.num_registers} registers"
        )
    if len(func.slots) > profile.mem_slots:
        raise ModelInfeasibleError(
            f"{len(func.slots)} named slots exceed {profile.mem_slots} memory slots"
        )

    prob = CopProblem(
        function=func,
        profile=profile,
        mode=mode,
        pairs=analyzed.pairs if mode is Mode.PSC else LeakPairSets(frozenset()),
        psets=list(analyzed.psets) if mode is Mode.TSC else [],
    )

    prob.ops = sorted(func.all_ops(), key=lambda o: o.index)
    prob.latency = {op.index: profile.latency[op.opcode] for op in prob.ops}
    prob.weight_scale = math.lcm(*(b.weight.denominator for b in func.blocks))
    prob.scaled_weights = tuple(int(b.weight * prob.weight_scale) for b in func.blocks)
    prob.edge_overhead = tuple(
        0 if func.taken_successor(b.index) is None else profile.taken_branch_overhead
        for b in func.blocks
    )
    for block in func.blocks:
        for op in block.ops:
            prob.op_block[op.index] = block.index
            prob.op_uses[op.index] = op.temp_uses()
            for name in op.defs:
                prob.def_site.setdefault(name, op.index)
    prob.copy_ops = {
        op.index: (op.uses[0], op.defs[0]) for op in prob.ops if op.opcode is Opcode.COPY
    }

    for op in prob.ops:
        if op.opcode is Opcode.MOV:
            prob.alternatives[op.index] = (Opcode.MOV, Opcode.OR, Opcode.AND)
        elif op.opcode is Opcode.COPY:
            alts = [Opcode.MOV, Opcode.OR, Opcode.AND]
            if remat_constant(func, op.uses[0]) is not None:
                alts.append(Opcode.LI)
            prob.alternatives[op.index] = tuple(alts)
        else:
            prob.alternatives[op.index] = (op.opcode,)

    prob.swap_ops = tuple(
        op.index
        for op in prob.ops
        if op.commutative
        and len(prob.op_uses[op.index]) == 2
        and prob.op_uses[op.index][0] != prob.op_uses[op.index][1]
    )

    # blocks made only of optional NOPs (balancing blocks) are canonical:
    # the i-th NOP is pinned to cycle i and active NOPs form a prefix
    for block in func.blocks:
        if block.ops and all(o.opcode is Opcode.NOP and o.optional for o in block.ops):
            prob.nop_blocks[block.index] = tuple(o.index for o in block.ops)

    for block in func.blocks:
        total = sum(prob.latency[op.index] for op in block.ops)
        prob.horizon[block.index] = total + (0 if block.index in prob.nop_blocks else NOP_BUDGET)

    for op in prob.ops:
        b = prob.op_block[op.index]
        if b in prob.nop_blocks:
            pos = prob.nop_blocks[b].index(op.index)
            prob.cycle_domain[op.index] = (pos,)
        else:
            hi = prob.horizon[b] - prob.latency[op.index]
            prob.cycle_domain[op.index] = tuple(range(0, hi + 1))

    nregs = profile.num_registers
    named = len(func.slots)
    spill_locs = tuple(range(nregs + named, nregs + profile.mem_slots))
    input_names = func.input_names()
    for name in sorted(func.temps):
        if name in input_names:
            prob.reg_domain[name] = (input_names.index(name),)
        elif any(name == dst for _, dst in prob.copy_ops.values()):
            prob.reg_domain[name] = tuple(range(nregs)) + spill_locs
        else:
            prob.reg_domain[name] = tuple(range(nregs))

    order: list[VarKey] = []
    for op in prob.ops:
        if op.optional:
            order.append(("active", op.index))
        order.append(("cycle", op.index))
        if len(prob.alternatives[op.index]) > 1:
            order.append(("instr", op.index))
        if op.index in prob.swap_ops:
            order.append(("swap", op.index))
    for name in sorted(func.temps):
        order.append(("reg", name))
    prob.var_order = order

    mem_deps = []
    for block in func.blocks:
        accesses = [op for op in block.ops if op.opcode in (Opcode.LD, Opcode.ST)]
        for i, o1 in enumerate(accesses):
            for o2 in accesses[i + 1 :]:
                if o1.slot == o2.slot and (
                    o1.opcode is Opcode.ST or o2.opcode is Opcode.ST
                ):
                    mem_deps.append((o1.index, o2.index))
    prob.mem_deps = tuple(mem_deps)

    # the blocks both paths take cancel, so a row is decided as soon as
    # the blocks where the paths differ are
    taken = [func.taken_successor(b.index) for b in func.blocks]

    def edges(path: Sequence[int]) -> int:
        return sum(taken[a] == b for a, b in zip(path, path[1:])) * profile.taken_branch_overhead

    prob.balance = tuple(
        (tuple(b for b in p if b not in q), tuple(b for b in q if b not in p), edges(p) - edges(q))
        for p, *others in (pset.paths for pset in prob.psets)
        for q in others
    )

    _detect_obvious_infeasibility(prob)
    return prob


def _detect_obvious_infeasibility(prob: CopProblem) -> None:
    """Cheap static check on the mandatory configuration: the peak number
    of simultaneously live values must fit in registers plus spill slots."""
    active = {op.index for op in prob.ops if not op.optional}
    cycle = _compact_cycles(prob, active)
    model = build_value_model(prob, active, cycle)
    capacity = prob.num_registers + (prob.profile.mem_slots - len(prob.function.slots))
    for block in prob.function.blocks:
        ivs = [
            (lo, hi)
            for lst in model.intervals.values()
            for b, lo, hi in lst
            if b == block.index
        ]
        for lo, _ in ivs:
            live = sum(1 for lo2, hi2 in ivs if lo2 <= lo <= hi2)
            if live > capacity:
                raise ModelInfeasibleError(
                    f"block {block.index}: {live} simultaneously live values exceed "
                    f"capacity {capacity}"
                )


def _compact_cycles(prob: CopProblem, active: set[int]) -> dict[int, int]:
    cycle: dict[int, int] = {}
    for block in prob.function.blocks:
        clock = 0
        for op in block.ops:
            cycle[op.index] = clock if op.index in active else 0
            if op.index in active:
                clock += prob.latency[op.index]
    return cycle


# ----------------------------------------------------------------------
# assignment views
# ----------------------------------------------------------------------


def resolve_roots(prob: CopProblem, active: set[int]) -> dict[str, str]:
    """Map each temp to the value it denotes once inactive copies alias."""
    src_of = {dst: src for idx, (src, dst) in prob.copy_ops.items() if idx not in active}
    roots: dict[str, str] = {}
    for name in prob.function.temps:
        cur = name
        while cur in src_of:
            cur = src_of[cur]
        roots[name] = cur
    return roots


def waits_for(
    prob: CopProblem, active: AbstractSet[int], roots: Mapping[str, str]
) -> dict[int, list[tuple[int, int]]]:
    """Map each active op that waits for an active op of its own block to
    those, as (site, latency): the root def of each temp it reads, then
    each earlier same-slot access of `mem_deps`."""
    waits: dict[int, list[tuple[int, int]]] = {}
    for op in prob.ops:
        idx = op.index
        if idx not in active:
            continue
        for temp in prob.op_uses[idx]:
            site = prob.def_site.get(roots[temp])
            if site in active and prob.op_block[site] == prob.op_block[idx]:
                waits.setdefault(idx, []).append((site, prob.latency[site]))
    for a, b in prob.mem_deps:
        if a in active and b in active:
            waits.setdefault(b, []).append((a, prob.latency[a]))
    return waits


@dataclass(frozen=True)
class ValueModel:
    """The live values of one schedule and which of them clash; read-only,
    since the problem's memo hands one instance to every caller."""

    values: list[str]
    def_point: dict[str, tuple[int, int]]  # value -> (block, ready time)
    # value -> [(block, start, end)] closed intervals, by block; end may be INF
    intervals: dict[str, list[tuple[int, int, int]]]
    # value -> {each value whose interval overlaps one of its own in the
    # same block: the first such block}; clashing values need two locations
    interference: dict[str, dict[str, int]]
    # the values that no active op but a copy reads, so a memory slot may
    # hold them (a copy reloads them before any other read)
    copied_only: frozenset[str]


_INF = 1 << 30


def build_value_model(
    prob: CopProblem, active: AbstractSet[int], cycle: Mapping[int, int]
) -> ValueModel:
    """The value model of the schedule that `active` and the active ops'
    `cycle` give, memoized on the problem: the model reads nothing else
    (each temp's root follows from the active set)."""
    key = tuple(cycle[op.index] if op.index in active else None for op in prob.ops)
    model = prob.value_models.get(key)
    if model is None:
        model = prob.value_models[key] = _build_value_model(
            prob, active, cycle, resolve_roots(prob, active)
        )
    return model


def _build_value_model(
    prob: CopProblem,
    active: AbstractSet[int],
    cycle: Mapping[int, int],
    roots: Mapping[str, str],
) -> ValueModel:
    func = prob.function
    nblocks = len(func.blocks)
    values = list(func.input_names())
    def_point: dict[str, tuple[int, int]] = {n: (0, 0) for n in values}
    for op in prob.ops:
        if op.index in active and op.defs and roots[op.defs[0]] == op.defs[0]:
            values.append(op.defs[0])
            ready = cycle[op.index] + prob.latency[op.index]
            def_point[op.defs[0]] = (prob.op_block[op.index], ready)

    # each block's last-use cycle of each value it reads, and the values
    # that an active op other than a copy reads (only optional ops, copies
    # and NOPs, are inactive, so every root read is a value)
    last_use: list[dict[str, int]] = [{} for _ in range(nblocks)]
    read: set[str] = set()
    for op in prob.ops:
        if op.index not in active:
            continue
        here, at = last_use[prob.op_block[op.index]], cycle[op.index]
        used = [roots[temp] for temp in prob.op_uses[op.index]]
        for root in used:
            if here.get(root, -1) < at:
                here[root] = at
        if op.index not in prob.copy_ops:
            read.update(used)

    # blocks are in topological order, and inside a block defs precede
    # uses, so a value is live into a block that reads it or passes it on
    # and does not define it
    live_in: list[set[str]] = [set() for _ in range(nblocks)]
    live_out: list[set[str]] = [set() for _ in range(nblocks)]
    for b in reversed(range(nblocks)):
        live_out[b] = set().union(*(live_in[s] for s in func.successors(b)))
        live_in[b] = {v for v in live_out[b].union(last_use[b]) if def_point[v][0] != b}

    # one interval in the def block and in each block the value is live
    # into: it ends at the block's end if the value is live out, else at
    # its last use (which a live-in block always has), else where it starts
    intervals: dict[str, list[tuple[int, int, int]]] = {v: [] for v in values}
    interference: dict[str, dict[str, int]] = {v: {} for v in values}
    for b in range(nblocks):
        here = []
        for v in values:
            db, ready = def_point[v]
            if b == db or v in live_in[b]:
                start = ready if b == db else 0
                end = _INF if v in live_out[b] else last_use[b].get(v, start)
                intervals[v].append((b, start, end))
                here.append((v, start, end))
        for i, (v1, s1, e1) in enumerate(here):
            for v2, s2, e2 in here[i + 1 :]:
                if s1 <= e2 and s2 <= e1:
                    interference[v1].setdefault(v2, b)
                    interference[v2].setdefault(v1, b)
    return ValueModel(
        values=values,
        def_point=def_point,
        intervals=intervals,
        interference=interference,
        copied_only=frozenset(values).difference(read),
    )


# ----------------------------------------------------------------------
# objective
# ----------------------------------------------------------------------


def block_makespans(
    prob: CopProblem, active: AbstractSet[int], cycle: Mapping[int, int]
) -> dict[int, int]:
    spans: dict[int, int] = {}
    for block in prob.function.blocks:
        span = 0
        for op in block.ops:
            if op.index in active:
                span = max(span, cycle[op.index] + prob.latency[op.index])
        spans[block.index] = span
    return spans


def _objective(prob: CopProblem, spans: Mapping[int, int]) -> Fraction:
    """The block-weighted sum of spans and taken-edge overheads, summed in
    integers on the scaled weights and divided by their scale once."""
    total = 0
    for b, (weight, edge) in enumerate(zip(prob.scaled_weights, prob.edge_overhead)):
        total += weight * (spans[b] + edge)
    return Fraction(total, prob.weight_scale)


def active_set(prob: CopProblem, values: Mapping[VarKey, object]) -> set[int]:
    return {op.index for op in prob.ops if not op.optional or values.get(("active", op.index))}


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------


def _canonical(
    prob: CopProblem,
    values: Mapping[VarKey, object],
    active: AbstractSet[int],
    roots: Mapping[str, str],
) -> tuple[tuple[VarKey, object], ...]:
    """The canonical assignment of `values` in variable order, on the active
    set and roots of `values` that the caller derived, so that distinct
    canonical assignments are genuinely different code: a temp takes its
    root's location, and an inactive op's variable, an unset one and the
    instruction of a copy to or from memory the first of their domains.
    It changes no activation."""
    nregs = prob.num_registers
    out = []
    for key in prob.var_order:
        kind, x = key
        if kind == "reg":
            v = values[("reg", roots[x])]
        elif kind != "active" and x not in active or key not in values:
            v = prob.domain(key)[0]
        elif kind == "instr" and x in prob.copy_ops:
            src, dst = prob.copy_ops[x]
            impl = prob.alternatives[x][values[key]]
            word = copy_opcode(impl, values[("reg", roots[src])], values[("reg", dst)], nregs)
            v = values[key] if word is impl else 0
        else:
            v = values[key]
        out.append((key, v))
    return tuple(out)


# ----------------------------------------------------------------------
# independent constraint checker
# ----------------------------------------------------------------------


def check_solution(sol: Solution, prob: CopProblem) -> list[Violation]:
    """Re-evaluate every constraint from scratch; empty list means feasible.

    It evaluates the constraints as the model states them, the statements
    the search bounds too (the balance rows, `waits_for`), and shares none
    of the search's propagation.
    """
    values = sol.as_dict()
    out: list[Violation] = []
    func = prob.function
    nregs = prob.num_registers

    for key in prob.var_order:
        if key not in values:
            return [Violation("domain", f"missing variable {key}")]
        kind, index = key
        v = values[key]
        # 1 == True, so membership alone would take a bool for an int
        kind_type = bool if kind in ("active", "swap") else int
        if type(v) is not kind_type or v not in prob.domain(key):
            where = index if kind == "reg" else f"op {index}"
            out.append(Violation("domain", f"{kind} of {where} = {v!r} outside domain"))
    if out:
        return out

    active = active_set(prob, values)
    roots = resolve_roots(prob, active)
    cycle = {op.index: values[("cycle", op.index)] for op in prob.ops}
    loc = {name: values[("reg", name)] for name in func.temps}

    # copy aliasing: an inactive copy's def shares its source's location
    for idx, (src, dst) in prob.copy_ops.items():
        if idx not in active and loc[dst] != loc[roots[src]]:
            out.append(
                Violation(
                    "copy-semantics",
                    f"inactive copy {idx}: {dst} must alias {roots[src]}",
                )
            )

    # canonical-form constraints (symmetry breaking)
    for key, v in _canonical(prob, values, active, roots):
        if values[key] != v:
            out.append(Violation("symmetry", f"non-canonical value for {key}"))
    for b, nops in prob.nop_blocks.items():
        actives = [i for i in nops if i in active]
        if actives != list(nops[: len(actives)]):
            out.append(Violation("symmetry", f"NOP activation in block {b} is not a prefix"))

    # operand locations
    for op in prob.ops:
        if op.index not in active:
            continue
        if op.opcode is Opcode.COPY:
            src, dst = prob.copy_ops[op.index]
            impl = prob.alternatives[op.index][values.get(("instr", op.index), 0)]
            if copy_opcode(impl, loc[roots[src]], loc[dst], nregs) is None:
                out.append(
                    Violation("operand-location", f"copy {op.index} moves memory to memory")
                )
            if impl is Opcode.LI and loc[dst] >= nregs:
                out.append(
                    Violation("operand-location", f"copy {op.index} rematerializes into memory")
                )
        else:
            for temp in prob.op_uses[op.index]:
                if loc[roots[temp]] >= nregs:
                    out.append(
                        Violation(
                            "operand-location",
                            f"op {op.index} reads {temp} from memory slot",
                        )
                    )
            for d in op.defs:
                if loc[roots[d]] >= nregs:
                    out.append(
                        Violation("operand-location", f"op {op.index} defines {d} in memory")
                    )

    # dependencies: each root read has an active def in the same or an
    # earlier block, and an op issues once what it waits for is ready
    for op in prob.ops:
        if op.index not in active:
            continue
        for temp in prob.op_uses[op.index]:
            root = roots[temp]
            site = prob.def_site.get(root)
            if site is None:
                continue  # input
            if site not in active:
                out.append(
                    Violation("dependency", f"op {op.index} uses {root} whose def is inactive")
                )
            elif prob.op_block[site] > prob.op_block[op.index]:
                out.append(Violation("dependency", f"def of {root} in later block than use"))
    for idx, waits in waits_for(prob, active, roots).items():
        for site, lat in waits:
            if cycle[idx] < cycle[site] + lat:
                message = f"op {idx} at cycle {cycle[idx]} issues before op {site} is ready"
                out.append(Violation("dependency", message))

    # single-issue, horizon, terminator position
    for block in func.blocks:
        ops_here = [op for op in block.ops if op.index in active]
        spans_here = sorted(
            (cycle[o.index], cycle[o.index] + prob.latency[o.index], o.index) for o in ops_here
        )
        for (s1, e1, i1), (s2, e2, i2) in zip(spans_here, spans_here[1:]):
            if s2 < e1:
                out.append(
                    Violation("issue", f"ops {i1} and {i2} overlap in block {block.index}")
                )
        for s, e, i in spans_here:
            if e > prob.horizon[block.index]:
                out.append(Violation("issue", f"op {i} exceeds horizon of block {block.index}"))
        term = block.terminator
        if term is not None and term.index in active:
            for o in ops_here:
                if o.index != term.index and cycle[o.index] >= cycle[term.index]:
                    out.append(
                        Violation("issue", f"op {o.index} issues at or after the terminator")
                    )

    if out:
        return out

    # live-range interference
    model = build_value_model(prob, active, cycle)
    vals = model.values
    for i, v1 in enumerate(vals):
        clashes = model.interference[v1]
        for v2 in vals[i + 1 :]:
            b = clashes.get(v2)
            if b is not None and loc[v1] == loc[v2]:
                out.append(
                    Violation(
                        "interference",
                        f"{v1} and {v2} overlap in location {loc[v1]} (block {b})",
                    )
                )

    # timing-balance constraints
    spans = block_makespans(prob, active, cycle)
    for left, right, const in prob.balance:
        diff = const
        for b in left:
            diff += spans[b]
        for b in right:
            diff -= spans[b]
        if diff:
            out.append(Violation("balance", f"blocks {left} and {right} differ by {diff}"))

    # power constraints: register-overwrite and memory-bus transitions
    if prob.pairs.rpairs or prob.pairs.hazard_temps:
        out.extend(_check_transitions(prob, active, cycle, loc, roots))

    obj = _objective(prob, spans)
    if sol.objective != obj:
        out.append(
            Violation("objective", f"objective field {sol.objective} is not the cost {obj}")
        )
    if prob.opt_bound is not None and obj > prob.opt_bound:
        out.append(
            Violation("optimality-gap", f"objective {obj} exceeds bound {prob.opt_bound}")
        )
    return out


ZERO = "<zero>"  # what a location holds before its first write


def hazard(prob: CopProblem, a: str, b: str) -> bool:
    """The transition rule: whether writing `b` over `a` in one location leaks."""
    if a == ZERO and b == ZERO:
        return False
    if a == ZERO:
        return b in prob.pairs.hazard_temps
    if b == ZERO:
        return a in prob.pairs.hazard_temps
    if a == b:
        return False
    pair = (a, b) if a < b else (b, a)
    return pair in prob.pairs.rpairs


def _check_transitions(prob, active, cycle, loc, roots) -> list[Violation]:
    """Flag forbidden adjacent values in any register and on the memory
    bus, on any execution path.

    One forward pass over the blocks (their order is topological) keeps
    the values each location may hold: at a block's entry, the union over
    its predecessors.  The last writer of a location depends on the path
    alone, never on another location, so a write meets a value of that
    set exactly when some path makes the transition."""
    out: list[Violation] = []
    func = prob.function
    nregs = prob.num_registers
    seen: set[tuple[str, str, str]] = set()
    held: list[dict[str, set[str]]] = [{} for _ in func.blocks]
    held[0] = {f"r{r}": {ZERO} for r in range(nregs)}
    held[0].update({f"r{i}": {name} for i, name in enumerate(func.input_names())})
    held[0]["bus"] = {ZERO}

    def write(here: dict[str, set[str]], where: str, value: str, op: Operation) -> None:
        for prev in sorted(here[where]):
            if hazard(prob, prev, value) and (where, prev, value) not in seen:
                seen.add((where, prev, value))
                if where == "bus":
                    family, what = "mre-conflict", "memory bus"
                else:
                    family, what = "rot-conflict", f"register {where}"
                out.append(
                    Violation(family, f"{what} transition {prev} -> {value} at op {op.index}")
                )
        here[where] = {value}

    for block in func.blocks:
        here = held[block.index]
        ops_here = sorted(
            (op for op in block.ops if op.index in active), key=lambda o: cycle[o.index]
        )
        for op in ops_here:
            word = op.opcode
            if word is Opcode.COPY:  # a spill stores its source, a reload loads
                word = copy_opcode(word, loc[roots[op.uses[0]]], loc[op.defs[0]], nregs)
            if word is Opcode.ST:  # a store's value is its last use
                write(here, "bus", roots[op.uses[-1]], op)
            elif word is Opcode.LD:
                write(here, "bus", roots[op.defs[0]], op)
            # an aliased def is not a real write
            if op.defs and roots[op.defs[0]] == op.defs[0] and loc[op.defs[0]] < nregs:
                write(here, f"r{loc[op.defs[0]]}", op.defs[0], op)
        for succ in func.successors(block.index):
            for where, values in here.items():
                held[succ].setdefault(where, set()).update(values)
    return out


# ----------------------------------------------------------------------
# lowering to the machine encoder
# ----------------------------------------------------------------------


def to_schedule(prob: CopProblem, sol: Solution) -> Schedule:
    """The machine schedule of a solution, read as its canonical form stands."""
    values = sol.as_dict()
    active = active_set(prob, values)
    loc = {name: values[("reg", name)] for name in prob.function.temps}
    impl: dict[int, Opcode] = {}
    for op in prob.ops:
        if op.index in active and len(prob.alternatives[op.index]) > 1:
            impl[op.index] = prob.alternatives[op.index][values[("instr", op.index)]]
    swapped = {idx for idx in prob.swap_ops if idx in active and values[("swap", idx)]}
    cycle = {op.index: values[("cycle", op.index)] for op in prob.ops if op.index in active}
    return Schedule(active=active, cycle=cycle, loc=loc, impl=impl, swapped=swapped)


# ----------------------------------------------------------------------
# model dump
# ----------------------------------------------------------------------


def emit_model(prob: CopProblem) -> str:
    """Deterministic s-expression dump of the built problem."""
    lines = [f"(problem {prob.function.name} {prob.profile.name} {prob.mode.value}"]
    lines.append(f"  (nop-budget {NOP_BUDGET})")
    for op in prob.ops:
        parts = [f"op {op.index} {op.opcode.value}"]
        if op.optional:
            parts.append("optional")
        dom = prob.cycle_domain[op.index]
        parts.append(f"cycles {dom[0]}..{dom[-1]}")
        if len(prob.alternatives[op.index]) > 1:
            parts.append("alts " + "/".join(a.value for a in prob.alternatives[op.index]))
        if op.index in prob.swap_ops:
            parts.append("swap")
        lines.append("  (" + " ".join(parts) + ")")
    for name in sorted(prob.function.temps):
        dom = prob.reg_domain[name]
        lines.append(f"  (reg {name} {{{','.join(map(str, dom))}}})")
    for pset in prob.psets:
        rendered = " ".join("->".join(map(str, p)) for p in pset.paths)
        lines.append(f"  (balance {rendered})")
    for t1, t2 in sorted(prob.pairs.rpairs):
        lines.append(f"  (rot-conflict {t1} {t2})")
    for o1, o2 in memory_conflicts(prob.function, prob.pairs):
        lines.append(f"  (mre-conflict {o1} {o2})")
    for t in sorted(prob.pairs.hazard_temps):
        lines.append(f"  (secret-valued {t})")
    lines.append(")")
    return "\n".join(lines) + "\n"
