"""Security analysis: policy type inference, secret-path extraction,
branch balancing, masking-order repair, and leak-pair generation.

The inference types each value as the exact XOR of a set of atoms.  An
atom is an input, or the result of a non-linear op (ADD/SUB/AND/OR) or
of a load whose stores disagree, and it records which secret and random
inputs it may depend on and which randoms dominate it (mask it to a
uniform value).  XOR takes the symmetric difference of the atom sets, so
equal atoms cancel in any order: (sec ^ mask) ^ mask = sec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

from .machine import MachineProfile, TIGHT8
from .mir import (
    Block,
    FunctionIR,
    IRValidationError,
    Opcode,
    Operation,
    SecurityLabel,
    _collect_temps,
    paths,
    post_dominator,
    validate_function,
)


class Mode(Enum):
    """The side channel a compilation defends against."""

    NONE = "none"
    TSC = "tsc"
    PSC = "psc"


@dataclass(frozen=True)
class Atom:
    # an input's name, or the index of the op that defines the value
    key: Union[str, int]
    # a subset of random_support
    dominant_randoms: frozenset[str]
    secret_support: frozenset[str]
    random_support: frozenset[str]


@dataclass(frozen=True)
class InferredType:
    label: SecurityLabel
    dominant_randoms: frozenset[str]
    secret_support: frozenset[str]
    random_support: frozenset[str]
    # the value is the XOR of these atoms
    atoms: frozenset[Atom]


def _typed(atoms: frozenset[Atom]) -> InferredType:
    """The type of the XOR of `atoms`.  A random dominates it when it
    dominates one atom and no other atom depends on it.  The label rule:
    random when some random dominates the value, else secret when it may
    depend on a secret, else public."""
    secrets = randoms = shared = dominant = frozenset()
    for atom in atoms:
        shared |= randoms & atom.random_support
        randoms |= atom.random_support
        secrets |= atom.secret_support
        dominant |= atom.dominant_randoms
    dominant -= shared
    if dominant:
        label = SecurityLabel.RANDOM
    elif secrets:
        label = SecurityLabel.SECRET
    else:
        label = SecurityLabel.PUBLIC
    return InferredType(label, dominant, secrets, randoms, atoms)


CONST_TYPE = _typed(frozenset())


def _atom_type(key, dominant, secrets, randoms) -> InferredType:
    """The type of a value that is one atom."""
    return _typed(frozenset({Atom(key, dominant, secrets, randoms)}))


def input_type(name: str, label: SecurityLabel) -> InferredType:
    own, none = frozenset({name}), frozenset()
    if label is SecurityLabel.RANDOM:
        return _atom_type(name, own, none, own)
    return _atom_type(name, none, own if label is SecurityLabel.SECRET else none, none)


def xor_type(a: InferredType, b: InferredType) -> InferredType:
    """Type of a ^ b."""
    return _typed(a.atoms ^ b.atoms)


def _join(types: list[InferredType], key: int) -> InferredType:
    """Merge the possible types of a path-dependent value (the load at op
    `key`): their common type, or a fresh atom that only the randoms
    dominating every candidate dominate."""
    if len(set(types)) == 1:
        return types[0]
    return _atom_type(
        key,
        frozenset.intersection(*(t.dominant_randoms for t in types)),
        frozenset().union(*(t.secret_support for t in types)),
        frozenset().union(*(t.random_support for t in types)),
    )


# ----------------------------------------------------------------------
# type inference
# ----------------------------------------------------------------------


def infer_types(func: FunctionIR) -> dict[str, InferredType]:
    """Propagate policy labels to every temp (single forward pass).

    A load joins the types of the stores to its slot that may have run
    before it, in program order, plus the zero initial value when some
    path reaches it with the slot still unstored.  Edges only go forward,
    so both facts are complete at a block's entry once the blocks before
    it are walked.
    """
    types: dict[str, InferredType] = {
        name: input_type(name, label) for name, label in func.inputs
    }

    # store sites per slot, in program order, for load-type joins
    stores: dict[str, list[tuple[int, str]]] = {s: [] for s in func.slots}
    # per block entry: the store ops that may have run, and the slots
    # that some path reaches still unstored
    ran_in: list[set[int]] = [set() for _ in func.blocks]
    unstored_in: list[set[str]] = [set() for _ in func.blocks]
    unstored_in[0].update(func.slots)

    for block in func.blocks:
        ran = ran_in[block.index]
        unstored = unstored_in[block.index]
        for op in block.ops:
            if op.opcode is Opcode.ST:
                stores[op.uses[0]].append((op.index, op.uses[1]))
                ran.add(op.index)
                unstored.discard(op.uses[0])
                continue
            if not op.defs:
                continue
            dest = op.defs[0]
            if op.opcode is Opcode.LI:
                types[dest] = CONST_TYPE
            elif op.opcode in (Opcode.MOV, Opcode.COPY):
                types[dest] = types[op.uses[0]]
            elif op.opcode is Opcode.XOR:
                types[dest] = xor_type(types[op.uses[0]], types[op.uses[1]])
            elif op.opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR):
                # no random dominates a value that passed through a non-linear op
                a, b = (types[u] for u in op.uses)
                types[dest] = _atom_type(
                    op.index,
                    frozenset(),
                    a.secret_support | b.secret_support,
                    a.random_support | b.random_support,
                )
            elif op.opcode is Opcode.LD:
                slot = op.uses[0]
                # never empty: a slot no store has reached is unstored
                candidates = [types[temp] for site, temp in stores[slot] if site in ran]
                if slot in unstored:
                    candidates.append(CONST_TYPE)
                types[dest] = _join(candidates, op.index)
            else:
                raise IRValidationError(f"op {op.index} ({op.opcode.value}) defines a temp")
        for succ in func.successors(block.index):
            ran_in[succ] |= ran
            unstored_in[succ] |= unstored
    return types


# ----------------------------------------------------------------------
# secret-dependent paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SecretPathSet:
    branch_block: int
    paths: tuple[tuple[int, ...], ...]


def get_paths(func: FunctionIR, n: int) -> tuple[tuple[int, ...], ...]:
    """Every path from block n to the block where its paths rejoin (the
    post-dominator of n), or to a return when they never rejoin."""
    return paths(func, n, post_dominator(func, n))


def _secret_branches(func: FunctionIR, types: dict[str, InferredType]) -> Iterator[int]:
    """Each block whose conditional branch has a secret condition, the
    xor of its two operands, in block order."""
    for block in func.blocks:
        term = block.terminator
        if term is None or term.opcode not in (Opcode.BEQ, Opcode.BNE):
            continue
        if xor_type(types[term.uses[0]], types[term.uses[1]]).label is SecurityLabel.SECRET:
            yield block.index


def extract_secret_path_sets(
    func: FunctionIR, types: dict[str, InferredType]
) -> list[SecretPathSet]:
    """The paths of each conditional branch whose condition is secret."""
    return [
        SecretPathSet(branch_block=b, paths=get_paths(func, b))
        for b in _secret_branches(func, types)
    ]


def pick_base_mode(func: FunctionIR) -> Mode:
    """The analysis mode that a security-unaware pool's base compiles in:
    tsc as soon as one branch is secret, whatever its paths."""
    if next(_secret_branches(func, infer_types(func)), None) is not None:
        return Mode.TSC
    if any(label is SecurityLabel.RANDOM for _, label in func.inputs):
        return Mode.PSC
    return Mode.NONE


# ----------------------------------------------------------------------
# branch balancing
# ----------------------------------------------------------------------

Edge = tuple[int, int]


def _falls_through(func: FunctionIR, u: int, v: int) -> bool:
    term = func.blocks[u].terminator
    return v == u + 1 and (term is None or term.opcode in (Opcode.BEQ, Opcode.BNE))


def _layout(func: FunctionIR, padded) -> tuple[list[tuple[str, object]], set[Edge]]:
    """The block order with a pad on each edge in `padded`, and the edges
    that reach their target through a `b`.  An entry is ("block", b) for
    old block b, ("pad", e) for the pad of edge e, or ("jump", v) for a
    block that jumps to old block v.  The pads into v sit just before it,
    the fall-through's first.  Only the last edge of that chain falls
    through into v, so no conditional fall-through moves; a block without
    terminator takes its own jump."""
    layout: list[tuple[str, object]] = []
    jumped: set[Edge] = set()
    for v in range(len(func.blocks)):
        chain = sorted(e for e in padded if e[1] == v and not _falls_through(func, *e))
        if v and _falls_through(func, v - 1, v):
            chain.insert(0, (v - 1, v))
        for e in chain:
            if e in padded:
                layout.append(("pad", e))
            if e != chain[-1]:
                jumped.add(e)
                if e in padded or func.blocks[e[0]].terminator is not None:
                    layout.append(("jump", v))
        layout.append(("block", v))
    return layout, jumped


def _deficits(func: FunctionIR, cost, edges, jumped, profile: MachineProfile) -> dict[Edge, int]:
    """How many cycles less than the costliest path from its source the
    costliest path through each edge takes, to the returns.  Block b costs
    cost[b]; an edge, its taken-branch overhead and a `b` if in `jumped`."""

    def edge_cost(u: int, v: int) -> int:
        jump = profile.latency[Opcode.B] if (u, v) in jumped else 0
        return jump + (profile.taken_branch_overhead if func.taken_successor(u) == v else 0)

    longest = [0] * len(cost)
    for b in reversed(range(len(cost))):
        succ = func.successors(b)
        longest[b] = cost[b] + max((edge_cost(b, s) + longest[s] for s in succ), default=0)
    return {(u, v): longest[u] - cost[u] - edge_cost(u, v) - longest[v] for u, v in edges}


def _nop_budget(pset: SecretPathSet, short, cost, profile: MachineProfile) -> int:
    """Upper bound on the padding a pad on `short` may need: the worst-case
    cost of the blocks exclusive to the sibling paths, plus the jump the
    insertion may add and one taken-branch overhead of slack."""
    worst = max(sum(cost[b] for b in path if b not in short) for path in pset.paths)
    return worst + profile.latency[Opcode.B] + profile.taken_branch_overhead + 3


def _copy_refusal(func: FunctionIR, pset: SecretPathSet) -> Optional[str]:
    """Why `pset` cannot be balanced by a dead-def copy of its one-block
    arm on the edge that skips it (Agat's cross-copying), or None.  With
    ops in the arm and no other way into it, the copy costs what the arm
    costs up to 3 cycles of jumps and taken overhead, which the solver
    closes by issuing the ops of the copy or of the arm later."""
    if len(pset.paths) != 2:
        return "copy balancing needs exactly two paths"
    short, long_ = sorted(pset.paths, key=len)
    if len(short) != 2 or short[-1] != long_[-1]:
        return "no edge skips an arm: use the empty-block transformation"
    if len(long_) != 3:
        return "arm longer than one block: use the empty-block transformation"
    arm = long_[1]
    body = func.blocks[arm].body
    if any(op.opcode is Opcode.ST for op in body):
        return (
            "arm stores to memory: copying it would clobber the slot, "
            "use the empty-block transformation"
        )
    if not body or any(arm in func.successors(b) for b in range(arm - 1)):
        return "arm is empty or entered from elsewhere: use the empty-block transformation"
    return None


def _dead_copy(block: Block, names: set[str]) -> list[Operation]:
    """The body of `block` with each def renamed to a fresh name that
    nothing reads; `names` holds the names in use and grows."""
    rename: dict[str, str] = {}
    copies = []
    for op in block.body:
        uses = tuple(rename.get(u, u) if isinstance(u, str) else u for u in op.uses)
        for d in op.defs:
            fresh = (f"{d}_dead{n or ''}" for n in itertools.count())
            rename[d] = next(name for name in fresh if name not in names)
            names.add(rename[d])
        copies.append(replace(op, defs=tuple(rename[d] for d in op.defs), uses=uses))
    return copies


def _with_pads(func: FunctionIR, pads: dict[Edge, list[Operation]]) -> FunctionIR:
    """The function laid out by `_layout`, renumbered and validated."""
    layout, jumped = _layout(func, pads)
    where = {key: i for i, (kind, key) in enumerate(layout) if kind != "jump"}
    blocks = []
    for i, (kind, key) in enumerate(layout):
        weight = Fraction(1)
        if kind == "jump":
            ops = [Operation(index=-1, opcode=Opcode.B, defs=(), uses=(where[key],))]
        elif kind == "pad":
            ops = list(pads[key])
        else:
            old = func.blocks[key]
            weight, ops, term = old.weight, list(old.ops), old.terminator
            if term is None and (key, key + 1) in jumped and (key, key + 1) not in pads:
                ops.append(Operation(index=-1, opcode=Opcode.B, defs=(), uses=(where[key + 1],)))
            elif term is not None and term.opcode is not Opcode.RET:
                target = where.get((key, term.uses[-1]), where[term.uses[-1]])
                ops[-1] = replace(term, uses=term.uses[:-1] + (target,))
        blocks.append(Block(index=i, weight=weight, ops=ops))
    new_f = FunctionIR(name=func.name, inputs=list(func.inputs), blocks=blocks, slots=func.slots)
    new_f.renumber_ops()
    _collect_temps(new_f)
    validate_function(new_f)
    return new_f


def apply_balancing(
    func: FunctionIR, profile: MachineProfile = TIGHT8, method: str = "ebb"
) -> tuple[FunctionIR, list[str]]:
    """Pad the secret branches so that their paths can take equal cycles;
    returns (function, notes).

    Every edge of a secret region with a cycle deficit gets one pad: a
    block of optional NOPs that the solver activates, or under cbb a
    dead-def copy of the one-block arm that the edge skips.  Padding each
    edge by its deficit makes all paths from a block to the returns cost
    the same, which balances every region at once (per-path cost repair,
    Wu et al., ISSTA 2018).  A deficit in a region that gets a copy goes
    to the edge that skips the arm.  Only pads off the fall-through add
    jumps, and jumps only add cycles, so the loop that finds those pads
    grows their set each round and ends within one round per edge.
    """
    psets = extract_secret_path_sets(func, infer_types(func))
    # each edge belongs to the innermost (last) region that takes it
    region: dict[Edge, SecretPathSet] = {}
    for pset in psets:
        for path in pset.paths:
            region.update(dict.fromkeys(zip(path, path[1:]), pset))
    # under cbb: why each region cannot copy its arm (None: it can), and where
    why = {p.branch_block: _copy_refusal(func, p) for p in psets if method == "cbb"}
    skip = {b: min(p.paths, key=len) for b, p in zip(why, psets) if why[b] is None}
    cost = [sum(profile.latency[op.opcode] for op in block.ops) for block in func.blocks]
    fronts, grown = None, set()
    while grown != fronts:
        fronts = grown
        deficit = _deficits(func, cost, region, _layout(func, fronts)[1], profile)
        wanted = {skip.get(region[e].branch_block, e) for e, d in deficit.items() if d > 0}
        grown = fronts | {e for e in wanted if not _falls_through(func, *e)}
    padded = fronts | wanted

    layout = _layout(func, padded)[0]
    where = {key: i for i, (kind, key) in enumerate(layout) if kind != "jump"}
    pads: dict[Edge, list[Operation]] = {}
    notes = []
    names = set(func.temps)
    for pset in psets:
        branch = pset.branch_block
        owned = sorted((e for e in padded if region[e] is pset), key=where.get)
        if owned and why.get(branch):
            notes.append(f"block {where[branch]}: {why[branch]}; fell back to ebb")
        for e in owned:
            if e == skip.get(branch):
                pads[e] = _dead_copy(func.blocks[max(pset.paths, key=len)[1]], names)
            else:
                short = next(p for p in sorted(pset.paths, key=len) if e in zip(p, p[1:]))
                nop = Operation(index=-1, opcode=Opcode.NOP, defs=(), uses=(), optional=True)
                pads[e] = [nop] * _nop_budget(pset, short, cost, profile)
            kind = "cbb" if e == skip.get(branch) else "ebb"
            notes.append(f"block {where[branch]}: inserted block {where[e]} ({kind})")
    return (_with_pads(func, pads) if pads else func), notes


# ----------------------------------------------------------------------
# masking operand-order restoration
# ----------------------------------------------------------------------


@dataclass
class MaskOrderResult:
    function: FunctionIR
    changed: bool
    residual: tuple[str, ...] = ()


def _use_counts(func: FunctionIR) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in func.all_ops():
        for u in op.temp_uses():
            counts[u] = counts.get(u, 0) + 1
    return counts


def _xor_chains(func: FunctionIR) -> list[list[Operation]]:
    """Maximal single-use XOR chains, each a list of ops in program order,
    in order of their last op."""
    counts = _use_counts(func)
    xor_def: dict[str, Operation] = {}
    for op in func.all_ops():
        if op.opcode is Opcode.XOR and op.defs:
            xor_def[op.defs[0]] = op

    consumed: set[int] = set()
    chains: list[list[Operation]] = []
    for op in sorted(xor_def.values(), key=lambda o: -o.index):
        if op.index in consumed:
            continue
        chain = [op]
        frontier = list(op.uses)
        while frontier:
            use = frontier.pop()
            if isinstance(use, str) and use in xor_def and counts.get(use, 0) == 1:
                inner = xor_def[use]
                if inner.index not in consumed and inner not in chain:
                    chain.append(inner)
                    frontier.extend(inner.uses)
        chain.sort(key=lambda o: o.index)
        consumed.update(o.index for o in chain)
        chains.append(chain)
    return chains[::-1]


def restore_mask_order(func: FunctionIR) -> MaskOrderResult:
    """Reassociate XOR chains so no intermediate value is secret-typed.

    Compiler-style reorderings such as (pub ^ key) ^ mask leak the
    intermediate pub ^ key; XOR associativity lets us compute
    (key ^ mask) ^ pub instead without changing the result.  Chains for
    which no ordering avoids a secret intermediate are reported back.

    Only a chain's last def is read outside the chain, and a new order
    keeps its type, the XOR of the leaves.  So rewriting one chain changes
    no leaf type of another, and the types inferred once order them all.
    """
    chains = _xor_chains(func)
    types = infer_types(func)
    changed = False
    for chain in chains:
        if not any(types[op.defs[0]].label is SecurityLabel.SECRET for op in chain):
            continue
        order = _find_safe_order(func, chain, types)
        if order is not None:
            func = _rewrite_chain(func, chain, order)
            changed = True
    if changed:
        types = infer_types(func)
    residual = {
        op.defs[0]
        for chain in chains
        for op in chain
        if types[op.defs[0]].label is SecurityLabel.SECRET
    }
    return MaskOrderResult(function=func, changed=changed, residual=tuple(sorted(residual)))


def _chain_leaves(chain: list[Operation]) -> list:
    internal = {op.defs[0] for op in chain}
    leaves = []
    for op in chain:
        for u in op.uses:
            if not (isinstance(u, str) and u in internal):
                leaves.append(u)
    return leaves


def _find_safe_order(func, chain, types) -> Optional[list]:
    """The chain's own leaf order when every XOR prefix is non-secret,
    else the first such order among the permutations of the leaves sorted
    by definition site, taken in lexicographic order of positions.

    Leaf i is consumed by chain op max(1, i) - 1 and must already be
    defined there.  Whether a prefix passes depends only on the prefix,
    so the search extends prefixes depth first and drops every extension
    that fails; the remaining leaves' fate depends only on the prefix's
    type and which leaves remain, so a failed (type, remaining) state is
    never searched twice.  Every order ends with the whole chain, whose
    type is the XOR of the leaves, so a secret result admits no order.
    """
    if types[chain[-1].defs[0]].label is SecurityLabel.SECRET:
        return None
    site = {d: op.index for op in func.all_ops() for d in op.defs}  # inputs: -1
    op_sites = sorted(op.index for op in chain)

    def extend(acc: Optional[InferredType], i: int, use) -> Optional[InferredType]:
        """The type of the prefix with `use` as leaf i, None if it fails."""
        if site.get(use, -1) >= op_sites[max(1, i) - 1]:
            return None
        if i == 0:
            return types[use]
        acc = xor_type(acc, types[use])
        return None if acc.label is SecurityLabel.SECRET else acc

    leaves = _chain_leaves(chain)
    acc = None
    for i, use in enumerate(leaves):
        acc = extend(acc, i, use)
        if acc is None:
            break
    else:
        return leaves

    failed: set = set()

    def search(acc, order: list, rest: tuple) -> Optional[list]:
        if not rest:
            return order
        if (acc, rest) in failed:
            return None
        for j, use in enumerate(rest):
            nxt = extend(acc, len(order), use)
            if nxt is not None:
                found = search(nxt, order + [use], rest[:j] + rest[j + 1 :])
                if found is not None:
                    return found
        failed.add((acc, rest))
        return None

    return search(None, [], tuple(sorted(leaves, key=lambda u: (site.get(u, -1), u))))


def _rewrite_chain(func: FunctionIR, chain: list[Operation], order: list) -> FunctionIR:
    """`func` with the chain's XORs taking the leaves in `order`, each op
    xoring the previous one's def with the next leaf."""
    new_uses = {chain[0].index: (order[0], order[1])}
    for prev, op, leaf in zip(chain, chain[1:], order[2:]):
        new_uses[op.index] = (prev.defs[0], leaf)
    blocks = []
    for block in func.blocks:
        ops = [
            replace(op, uses=new_uses[op.index]) if op.index in new_uses else op
            for op in block.ops
        ]
        blocks.append(replace(block, ops=ops))
    return replace(func, blocks=blocks)


# ----------------------------------------------------------------------
# leak pairs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LeakPairSets:
    rpairs: frozenset[tuple[str, str]]
    # temps whose value is secret on its own: they conflict with any
    # uncorrelated previous content (e.g. a zero-initialized register)
    hazard_temps: frozenset[str] = frozenset()


def gen_leak_pairs(func: FunctionIR, types: dict[str, InferredType]) -> LeakPairSets:
    """All temp pairs whose combined transition value is secret-dependent
    under the Hamming-distance model."""
    names = sorted(types)
    rpairs = set()
    for i, t1 in enumerate(names):
        for t2 in names[i + 1 :]:
            if xor_type(types[t1], types[t2]).label is SecurityLabel.SECRET:
                rpairs.add((t1, t2))

    hazards = frozenset(
        name for name in names if types[name].label is SecurityLabel.SECRET
    )
    return LeakPairSets(rpairs=frozenset(rpairs), hazard_temps=hazards)


def memory_conflicts(func: FunctionIR, pairs: LeakPairSets) -> list[tuple[int, int]]:
    """Sorted pairs of memory ops whose data temps conflict in `pairs`.

    The bus carries each access's data temp, so two accesses conflict
    exactly when their data temps form a register-transition conflict (a
    temp never conflicts with itself).
    """
    mem_ops = [op for op in func.all_ops() if op.opcode in (Opcode.LD, Opcode.ST)]
    out = []
    for i, o1 in enumerate(mem_ops):
        for o2 in mem_ops[i + 1 :]:
            d1, d2 = sorted((_mem_data_temp(o1), _mem_data_temp(o2)))
            if (d1, d2) in pairs.rpairs:
                out.append((o1.index, o2.index))
    return sorted(out)


def _mem_data_temp(op: Operation) -> str:
    return op.uses[1] if op.opcode is Opcode.ST else op.defs[0]


# ----------------------------------------------------------------------
# analysis bundle and report
# ----------------------------------------------------------------------


@dataclass
class AnalyzedFunction:
    function: FunctionIR
    # the transformation the analysis ran, and the profile it ran with:
    # the model of this function is built in the same mode and profile
    mode: Mode
    profile: MachineProfile
    types: dict[str, InferredType]
    psets: list[SecretPathSet]
    pairs: LeakPairSets
    notes: list[str] = field(default_factory=list)


def analyze(
    func: FunctionIR,
    profile: MachineProfile = TIGHT8,
    mode: Mode = Mode.NONE,
    balance: str = "ebb",
) -> AnalyzedFunction:
    """Run the full analysis stage with the transformation `mode` needs:
    TSC balances secret branches (by `balance`, ebb or cbb), PSC repairs
    the masking order of XOR chains, NONE transforms nothing."""
    notes: list[str] = []
    if mode is Mode.PSC:
        result = restore_mask_order(func)
        func = result.function
        if result.changed:
            notes.append("reassociated xor chains to restore masking order")
        if result.residual:
            notes.append("residual secret intermediates: " + ", ".join(result.residual))
    if mode is Mode.TSC:
        func, balance_notes = apply_balancing(func, profile, method=balance)
        notes.extend(balance_notes)
    types = infer_types(func)
    psets = extract_secret_path_sets(func, types)
    pairs = gen_leak_pairs(func, types)
    return AnalyzedFunction(func, mode, profile, types, psets, pairs, notes)


def emit_analysis(analyzed: AnalyzedFunction) -> str:
    """Deterministic text dump of the analysis results."""
    func = analyzed.function
    out = [f"function {func.name}"]
    out.append("types:")
    for name in sorted(analyzed.types):
        t = analyzed.types[name]
        dom = ",".join(sorted(t.dominant_randoms)) or "-"
        sec = ",".join(sorted(t.secret_support)) or "-"
        rnd = ",".join(sorted(t.random_support)) or "-"
        out.append(f"  {name}\t{t.label.value}\tdom={dom}\tsec={sec}\trand={rnd}")
    out.append("secret path sets:")
    if not analyzed.psets:
        out.append("  (none)")
    for pset in analyzed.psets:
        rendered = " ".join("->".join(map(str, p)) for p in pset.paths)
        out.append(f"  branch block {pset.branch_block}: {rendered}")
    out.append("register transition conflicts:")
    if not analyzed.pairs.rpairs:
        out.append("  (none)")
    for t1, t2 in sorted(analyzed.pairs.rpairs):
        out.append(f"  ({t1}, {t2})")
    out.append("memory order conflicts:")
    mem_conflicts = memory_conflicts(func, analyzed.pairs)
    if not mem_conflicts:
        out.append("  (none)")
    for o1, o2 in mem_conflicts:
        out.append(f"  (op {o1}, op {o2})")
    if analyzed.pairs.hazard_temps:
        out.append("secret-valued temps: " + ", ".join(sorted(analyzed.pairs.hazard_temps)))
    for note in analyzed.notes:
        out.append(f"note: {note}")
    return "\n".join(out) + "\n"
