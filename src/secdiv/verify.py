"""Independent verification oracles.

Everything here works on encoded machine programs, either through the
simulator or from the encoded words alone; nothing is shared with the
analysis, the constraint model or the solver, so these checks can veto
the whole pipeline.

  * functional equivalence of two programs, proved symbolically where
    it can be and otherwise tested on concrete inputs,
  * constant-resource checking: best- and worst-case cycle counts must
    coincide for every public input, proved statically,
  * first-order power-leak checking: at every register write and memory
    bus update, the distribution of the transition value over uniform
    randoms must be identical for all secret values.

Exact enumeration at 8-bit width replaces statistical testing; there are
no tolerances to tune.  The byte-wise power-leak check enumerates at most
`_HIDDEN_LIMIT` secret and random inputs and reports more as incomplete;
the bit-sliced one takes up to `_SLICED_LIMIT`.

Control flow is not decoded here: the taint pass and the
constant-resource proof read the blocks of `MachineProgram.decoded`, the
ones `run_batch` runs, and a program out of the shape `machine._decode`
states is a MachineError in every check.  So the words, cycles and edges
they reason about are the ones that run: every word of a block runs,
every edge goes to a later block, and every run ends at a RET.

Equivalence, a symbolic proof first.  `check_equivalence` walks every
path of both programs' decoded blocks (`_paths`) in the style of
translation validation (Pnueli, Siegel and Singerman, "Translation
validation", TACAS 1998; Necula, "Translation validation for an
optimizing compiler", PLDI 2000).  Each state row holds an interned term
(`_Terms`) over the input registers; rows that are not inputs start at
0, as in `run_batch`.  ADD and SUB give one coefficient map over Z/256,
so x - x is 0 and the 8-bit wrap-around is exact; XOR gives a parity set
with a folded constant; AND and OR give idempotent sets, with 0 and 0xFF
folded.  MOV, LD and ST copy a row's term.  A BEQ or BNE is decided when
the difference of its operands is a constant, or when the same
difference was decided earlier on the path; otherwise the walk forks,
and (difference, whether the operands are equal) joins the path key.
Each program gives a map from path key to returned term, and `b` is
proven equivalent to `a` when the two maps are equal.  Sketch: each
input meets the conditions of exactly one key of a map, its own path's,
since two paths of one program part at a fork; equal maps have equal
keys, so both programs take paths with one key and return one term.
The proof is sound, not complete: it can fail on equal programs, e.g.
(a & b) ^ (a | b) against a ^ b.  Then, or when a walk passes
`_PROOF_PATHS` paths or interns more than `_PROOF_NODES` new terms, both
programs run on every input up to `_EXHAUSTIVE_LIMIT` inputs, or on
`_SAMPLES` seeded ones, and `run_batch` decides.  Variant 0's proof is
kept for the next call, as its concrete returns are.

Taint.  One forward pass over the decoded blocks (`_taint`) tracks which
state rows, registers and memory slots, may hold a value derived from a
secret or random input (hidden for short).  Branches only go forward, so
one pass in block order sees every predecessor of a block first; a block
starts from the union of what its predecessors leave tainted.  XOR or
SUB of a register with itself gives 0 and clears the taint.  A BEQ or
BNE that tests a tainted value is a hidden branch.  Its region is the
set of blocks it reaches before its immediate post-dominator, and every
register or slot that a block of the region writes is tainted whatever
the value written: which arm wrote it depends on a hidden value (an
implicit flow, as in Denning and Denning, "Certification of programs for
secure information flow", CACM 1977).

Constant resource, a static proof.  MiniRISC cycles depend on the path
of edges alone.  For each hidden branch, a min/max DP over the region's
edges (`_region`) adds up block cycles and the extra cycles of each
edge (the taken-branch overhead on a taken branch, also one to the next
block) from the branch block to its post-dominator, or to every RET
when the arms never rejoin; it is O(edges) a branch, with no path
enumeration.  The program is constant-resource when every region costs
the same on every path (branch balancing, as in Agat,
"Transforming out timing leaks", POPL 2000).  Soundness sketch: an
untainted value is the same for every hidden input under one public
assignment, implicit flows included, so two runs with equal publics take
the same branches until a hidden one; both then leave its region at the
post-dominator, or end inside it, after the region's one cost, and agree
again on every untainted value there.  So the path outside hidden
regions follows the publics, each region adds a fixed count, and BCET =
WCET holds for every public value, not only for probes.  The check is
conservative: a region whose paths differ in cost is insecure even when
a hidden value can only take some of them.

Bit-sliced power-leak check.  A program is bit-local when no tainted
value reaches an ADD, a SUB or a branch condition.  In a bit-local
program every lane of a public probe runs the same path, and bit i of
every value, so of every transition, is a function of bit i of the
hidden inputs and of the probe alone.  Uniform random bytes have
independent bits, so for one secret the transition byte is a product of
eight independent bits, whose distribution its eight per-bit marginals
decide.  Two secrets therefore give equal distributions exactly when
every per-bit marginal is equal, and the marginal at bit i depends only
on the secrets' pattern at bit i.  One `run_batch` call per probe
evaluates all eight bits at once: each hidden input is 0x00 or 0xFF per
lane, 2**(secrets + randoms) lanes, a run of lanes per secret pattern
(the first secret most significant).  From the per-lane transition
values that `run_batch` returns, each pattern's lanes give per-bit set
counts and a run count.  A site leaks when some pattern's counts differ
from pattern 0's; its witness is the least secret in enumeration order
that shows a failing (pattern p, bit i) pair, the tuple of (p_j << i),
which is the secret the byte-wise enumeration would report.  Bit-local
programs take this path up to `_SLICED_LIMIT` hidden inputs.

Byte-wise power-leak check.  Other programs put several secret values
into one `run_batch` call, lane-major by secret (all randoms of the first
secret, then of the next), with up to `_PSC_BATCH_LANES` lanes per call;
a secret whose randoms alone exceed the cap runs in a call of its own.
At each site, a secret's row is its lanes' transition values, sorted,
with -1 for a lane that did not run the site.  Two secrets have equal
histograms exactly when their sorted rows are equal, counting the lanes
that skipped the site, so running a site more or less often is a
difference like any other.  Every secret's row is compared with the
reference secret's (the first in enumeration order).  `PscReport` holds
the sites that some lane ran and, per leaking site, the reference secret
and the first secret whose row differs.

The oracles build their input arrays once and rewrite only the rows
that change from one `run_batch` call to the next.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .machine import MachineProgram, Opcode, run_batch
from .mir import SecurityLabel

# Fixed public probe values at which check_psc enumerates; callers may extend.
PUBLIC_PROBES = (0x00, 0xFF, 0x5A)

Policy = Sequence[tuple[str, SecurityLabel]]

_EXHAUSTIVE_LIMIT = 2  # inputs; beyond this, equivalence uses samples
_SAMPLES = 1000
# caps of one symbolic walk of the equivalence proof: paths, and terms it
# adds; past either, check_equivalence runs both programs instead
_PROOF_PATHS = 256
_PROOF_NODES = 4096
# secret and random inputs; beyond this, the byte-wise check_psc reports
# its enumeration incomplete
_HIDDEN_LIMIT = 3
# secret and random inputs of the bit-sliced check_psc: at most 2**8
# lanes per probe
_SLICED_LIMIT = 8


def _over_budget(hidden: int, kind: str, limit: int) -> str:
    return f"{hidden} secret/random inputs exceed the {kind} enumeration budget ({limit})"


def _full_grid(k: int) -> np.ndarray:
    """All 256**k input combinations, shape (k, 256**k)."""
    return next(_hidden_chunks(k, max_lanes=256**k))


# ----------------------------------------------------------------------
# functional equivalence
# ----------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    pairs_tested: int  # 0 when proven
    mismatch: Optional[tuple[tuple[int, ...], int, int]] = None
    proven: bool = False

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def line(self) -> str:
        if self.proven:
            return "equivalent\tproven\t-"
        if self.ok:
            return f"equivalent\t{self.pairs_tested} inputs\t-"
        inputs, ra, rb = self.mismatch
        return f"mismatch\tinputs={inputs}\t{ra} != {rb}"


def check_equivalence(
    a: MachineProgram, b: MachineProgram, seed: int = 0
) -> EquivalenceReport:
    """Prove that `b` returns what `a` returns on every input, by their
    maps from path key to normal-form return (`_paths`, see the module
    docstring).  Where the maps differ, or a walk passes a cap, compare
    return values on exhaustive 8-bit inputs (two inputs or fewer) or on
    seeded samples, and report the first mismatching input.

    `a`'s proof, and its inputs and returns for that seed, are kept in
    `_reference` for the next call with an equal `a`, so a pool checked
    against its variant 0 walks and runs that variant once."""
    global _reference
    if a.num_inputs != b.num_inputs:
        raise ValueError("programs take different numbers of inputs")
    if _reference is None or _reference.program != a:
        terms = _Terms()
        _reference = _Reference(a, terms, _paths(a, terms))
    ref = _reference
    if ref.paths is not None and _paths(b, ref.terms) == ref.paths:
        return EquivalenceReport(pairs_tested=0, proven=True)
    if ref.concrete is None or ref.concrete[0] != seed:
        k = a.num_inputs
        if k <= _EXHAUSTIVE_LIMIT:
            inputs = _full_grid(k)
        else:
            sample = random.Random(seed).randbytes(k * _SAMPLES)
            inputs = np.frombuffer(sample, dtype=np.uint8).reshape(k, _SAMPLES)
        ref.concrete = (seed, inputs, run_batch(a, inputs, collect_transitions=False).returns)
    _, inputs, ra = ref.concrete
    rb = run_batch(b, inputs, collect_transitions=False).returns
    diff = np.nonzero(ra != rb)[0]
    if diff.size:
        j = int(diff[0])
        witness = tuple(int(v) for v in inputs[:, j])
        return EquivalenceReport(
            pairs_tested=inputs.shape[1], mismatch=(witness, int(ra[j]), int(rb[j]))
        )
    return EquivalenceReport(pairs_tested=inputs.shape[1])


@dataclass
class _Reference:
    """The first program of the last `check_equivalence`: its paths (None
    past a cap), the terms their ids name, which later walks intern into,
    and from its first fallback on the concrete check's (seed, inputs,
    returns), whose arrays no caller writes to."""

    program: MachineProgram
    terms: _Terms
    paths: Optional[dict]
    concrete: Optional[tuple[int, np.ndarray, np.ndarray]] = None


_reference: Optional[_Reference] = None


class _Terms:
    """Interned normal forms of 8-bit expressions over the inputs.

    A term is a tuple (kind, constant, operands), and its id is its index
    in `nodes`.  Each term is interned once, so equal ids are equal terms,
    and a term's value is a function of the inputs alone.  Kinds:
      * "c": the constant;
      * "x": the input register numbered by the constant;
      * "+": the constant plus the sum of coefficient times operand over
        the (operand id, coefficient) pairs, mod 256;
      * "^", "&" and "|": the constant combined with every operand id.
    Operands are sorted and distinct, and no operand is a constant or of
    the term's own kind, so chains flatten and repeated operands fold:
    coefficients add, XOR operands cancel in pairs, AND and OR ones are
    idempotent.  A combination that leaves no operand is a constant, and
    one that leaves one operand alone, under the kind's neutral constant,
    is that operand; AND with a constant 0 is 0 and OR with 0xFF is 0xFF.
    Children are interned before their parents, so `nodes` is in an
    order in which every operand comes before its term.
    """

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def intern(self, term: tuple) -> int:
        id_ = self._ids.get(term)
        if id_ is None:
            id_ = self._ids[term] = len(self.nodes)
            self.nodes.append(term)
        return id_

    def const(self, value: int) -> int:
        return self.intern(("c", value & 0xFF, ()))

    def input(self, register: int) -> int:
        return self.intern(("x", register, ()))

    def alu(self, op: Opcode, x: int, y: int) -> int:
        if op is Opcode.ADD:
            return self.linear(x, y, 1)
        if op is Opcode.SUB:
            return self.linear(x, y, -1)
        if op is Opcode.XOR:
            return self.parity(x, y)
        return self.lattice("&" if op is Opcode.AND else "|", x, y)

    def linear(self, x: int, y: int, sign: int) -> int:
        """x + sign * y."""
        constant, coeffs = 0, {}
        for t, scale in ((x, 1), (y, sign)):
            kind, value, operands = self.nodes[t]
            if kind in ("c", "+"):
                constant += scale * value
            else:
                operands = ((t, 1),)
            for u, coeff in operands:
                coeffs[u] = coeffs.get(u, 0) + scale * coeff
        constant &= 0xFF
        operands = tuple(sorted((u, coeff & 0xFF) for u, coeff in coeffs.items() if coeff & 0xFF))
        if not operands:
            return self.const(constant)
        if constant == 0 and len(operands) == 1 and operands[0][1] == 1:
            return operands[0][0]
        return self.intern(("+", constant, operands))

    def difference(self, x: int, y: int) -> int:
        """A term that is 0 exactly where x == y, the same for (y, x)."""
        return min(self.linear(x, y, -1), self.linear(y, x, -1))

    def parity(self, x: int, y: int) -> int:
        """x ^ y."""
        constant, operands = 0, set()
        for t in (x, y):
            kind, value, children = self.nodes[t]
            if kind == "c":
                constant ^= value
            elif kind == "^":
                constant ^= value
                operands.symmetric_difference_update(children)
            else:
                operands.symmetric_difference_update((t,))
        return self._make("^", constant, operands, 0)

    def lattice(self, kind: str, x: int, y: int) -> int:
        """x & y for kind "&", x | y for "|"."""
        neutral = 0xFF if kind == "&" else 0
        constant, operands = neutral, set()
        for t in (x, y):
            node_kind, value, children = self.nodes[t]
            if node_kind == "c" or node_kind == kind:
                constant = constant & value if kind == "&" else constant | value
                operands.update(children)
            else:
                operands.add(t)
        if constant == neutral ^ 0xFF:
            return self.const(constant)  # x & 0, x | 0xFF
        return self._make(kind, constant, operands, neutral)

    def _make(self, kind: str, constant: int, operands: set[int], neutral: int) -> int:
        if not operands:
            return self.const(constant)
        if constant == neutral and len(operands) == 1:
            return next(iter(operands))
        return self.intern((kind, constant, tuple(sorted(operands))))


def _paths(program: MachineProgram, terms: _Terms) -> Optional[dict[tuple, int]]:
    """Walk every path of `program`'s decoded blocks symbolically: a map
    from each path's key, its (condition, outcome) pairs in order, to the
    term it returns, its ids interned in `terms`.  None once the walk
    passes `_PROOF_PATHS` paths or interns more than `_PROOF_NODES` new
    terms (see the module docstring)."""
    decoded = program.decoded
    blocks = decoded.blocks
    rows = [terms.input(r) for r in decoded.input_regs]
    rows += [terms.const(0)] * (decoded.nrows - len(rows))
    limit = len(terms) + _PROOF_NODES
    paths: dict[tuple, int] = {}
    work = [(0, rows, ())]  # (block, the term in each row, path key)
    while work:
        index, rows, key = work.pop()
        words, _, edges = blocks[index]
        for op, a, b, c, fn, _, _ in words:
            if fn is not None:
                rows[a] = terms.alu(op, rows[b], rows[c])
            elif op is Opcode.LI:
                rows[a] = terms.const(b)
            elif op in (Opcode.MOV, Opcode.LD, Opcode.ST):
                rows[a] = rows[b]  # the bus row, which no word reads, is left out
            elif op is Opcode.RET:
                paths[key] = rows[a]
            else:  # BEQ or BNE, the block's last word
                beq, cond = op is Opcode.BEQ, terms.difference(rows[a], rows[b])
        if len(edges) == 1:
            work.append((edges[0][0], rows, key))
        elif edges:
            kind, value, _ = terms.nodes[cond]
            # whether the operands are equal: decided by a constant
            # difference or by the same condition earlier on the path
            equal = value == 0 if kind == "c" else dict(key).get(cond)
            (target, _), (fall, _) = edges
            for succ, arm in ((target, beq), (fall, not beq)):
                if equal is None:
                    work.append((succ, list(rows), key + ((cond, arm),)))
                elif equal == arm:
                    work.append((succ, rows, key))
        if len(terms) > limit or len(paths) > _PROOF_PATHS:
            return None
    return paths


# ----------------------------------------------------------------------
# constant-resource checking
# ----------------------------------------------------------------------


@dataclass
class CrReport:
    # per hidden branch, in block order: (branch block, fewest cycles,
    # most cycles) from entering the branch block to its post-dominator
    regions: list[tuple[int, int, int]]

    @property
    def secure(self) -> bool:
        return all(fewest == most for _, fewest, most in self.regions)


def check_cr(program: MachineProgram, policy: Policy) -> CrReport:
    """Static best-/worst-case execution time comparison.

    The taint pass finds the hidden branches, and a min/max DP of block
    and edge cycles (`_region`) gives each one's fewest and most cycles
    to its post-dominator (see the module docstring).  The verdict, equal
    counts in every region, holds for every public and hidden value.
    """
    hidden = [i for i, (_, lab) in enumerate(policy) if lab is not SecurityLabel.PUBLIC]
    return CrReport(regions=_taint(program, hidden)[1])


# ----------------------------------------------------------------------
# taint
# ----------------------------------------------------------------------


def _post_dominators(blocks: list) -> list[int]:
    """Each decoded block's immediate post-dominator, len(blocks) standing
    for the exit after a RET.  Every edge goes to a later block, so one
    backward pass in block order settles a block from its successors: its
    post-dominator is where their post-dominator chains meet."""
    exit_ = len(blocks)
    ipdom = [exit_] * (exit_ + 1)
    for v in range(exit_ - 1, -1, -1):
        succs = sorted({s for s, _ in blocks[v].edges})
        if not succs:
            continue  # RET: the exit
        meet = succs[0]
        for s in succs[1:]:
            while meet != s:
                if meet < s:
                    meet = ipdom[meet]
                else:
                    s = ipdom[s]
        ipdom[v] = meet
    return ipdom


def _region(blocks: list, branch: int, join: int) -> tuple[list[int], int, int]:
    """The blocks that `branch` reaches before `join`, and the fewest and
    most cycles from entering `branch` to entering `join`, or to the end
    of a run that leaves the region through a RET.  A min/max DP in block
    order, which is topological."""
    fewest, most = {branch: 0}, {branch: 0}
    ends: list[tuple[int, int]] = []
    region = []
    for v in range(branch, join):
        if v not in fewest:
            continue
        if v != branch:
            region.append(v)
        _, cycles, edges = blocks[v]
        lo, hi = fewest[v] + cycles, most[v] + cycles
        if not edges:
            ends.append((lo, hi))
        for s, extra in edges:
            if s < join:
                fewest[s] = min(fewest.get(s, lo + extra), lo + extra)
                most[s] = max(most.get(s, hi + extra), hi + extra)
            else:
                ends.append((lo + extra, hi + extra))
    return region, min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _taint(program: MachineProgram, hidden: Sequence[int]) -> tuple[bool, list[tuple[int, int, int]]]:
    """The forward taint pass of the module docstring over the decoded
    blocks (`MachineProgram.decoded`), from the `hidden` input registers:
    whether a tainted value reaches an ADD or a SUB, and per hidden branch
    in block order (branch block, fewest cycles, most cycles) of its
    region.
    Taint is a set of state rows; registers and memory slots have rows of
    their own, and a hidden input that no word names has none.

    A block that no block reaches never runs and is skipped.  A program
    that `_decode` rejects is a MachineError, even where the word at fault
    is in such a block.
    """
    decoded = program.decoded
    blocks = decoded.blocks
    n = len(blocks)
    entry: list[Optional[set[int]]] = [None] * n
    entry[0] = {row for row, r in enumerate(decoded.input_regs) if r in hidden}
    implicit = [False] * n  # in the region of a hidden branch
    ipdom: Optional[list[int]] = None
    arithmetic = False
    regions = []
    for index, (words, _, edges) in enumerate(blocks):
        taint = entry[index]
        if taint is None:
            continue
        for op, a, b, c, fn, _, _ in words:
            if fn is not None:
                hot = b in taint or c in taint
                if hot and b == c and op in (Opcode.XOR, Opcode.SUB):
                    hot = False  # x ^ x and x - x are 0
                elif hot and op in (Opcode.ADD, Opcode.SUB):
                    arithmetic = True
            elif op in (Opcode.MOV, Opcode.LD, Opcode.ST):
                hot = b in taint  # row b is copied to row a
            elif op is Opcode.LI:
                hot = False
            else:  # BEQ, BNE or RET, which write nothing
                if op is not Opcode.RET and (a in taint or b in taint):
                    if ipdom is None:
                        ipdom = _post_dominators(blocks)
                    region, fewest, most = _region(blocks, index, ipdom[index])
                    for v in region:
                        implicit[v] = True
                    regions.append((index, fewest, most))
                continue
            if hot or implicit[index]:
                taint.add(a)
            else:
                taint.discard(a)
        for succ, _ in edges:
            entry[succ] = taint | (entry[succ] or set())
    return arithmetic, regions


def _hidden_chunks(k: int, max_lanes: int = 1 << 16):
    """Yield the exhaustive 256**k grid in lexicographic order, in chunks
    of at most `max_lanes` lanes (each of shape (k, lanes))."""
    total = 256**k
    for start in range(0, total, max_lanes):
        index = np.arange(start, min(start + max_lanes, total))
        chunk = np.empty((k, index.size), dtype=np.uint8)
        for row in range(k):
            chunk[row] = index >> 8 * (k - 1 - row)  # the uint8 row keeps the low byte
        yield chunk


# ----------------------------------------------------------------------
# first-order power-leak checking
# ----------------------------------------------------------------------


Site = tuple[int, str, int]  # (byte address, "reg" or "bus", register index)


@dataclass
class PscReport:
    # every site that some lane ran, under some public probe
    sites: set[Site] = field(default_factory=set)
    # leaking site -> (reference secret, first secret whose row differs)
    leaks: dict[Site, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict)
    incomplete: bool = False
    reason: str = ""

    @property
    def secure(self) -> bool:
        return not self.leaks and not self.incomplete


# Lanes per batched run_batch call; at least one secret goes in each call.
_PSC_BATCH_LANES = 1 << 14


def check_psc(
    program: MachineProgram,
    policy: Policy,
    public_probes: Sequence[int] = PUBLIC_PROBES,
) -> PscReport:
    """Exact first-order leak check under the Hamming-distance model.

    For every leak site the full distribution of transition values over
    uniform randoms is compared across all secret values (publics fixed
    at the probe set).  Any difference in distribution, or in how often a
    site executes, is a leak.  `run_batch` gives each lane's transition
    value at each site, and this function groups the lanes by secret:
    each secret's sorted row of values, -1 for a lane that did not run
    the site, is compared with the reference secret's (the first in
    enumeration order).  The first secret whose row differs is the site's
    witness.

    A bit-local program (`_bit_local`) takes the bit-sliced path, exact
    up to `_SLICED_LIMIT` secret and random inputs; any other program is
    enumerated byte by byte up to `_HIDDEN_LIMIT`, several secret values
    sharing one `run_batch` call, a run of lanes per secret.  Both paths
    give the same report; beyond its limit a path reports incomplete.
    """
    names = [n for n, _ in policy]
    secret_idx = [i for i, (_, lab) in enumerate(policy) if lab is SecurityLabel.SECRET]
    random_idx = [i for i, (_, lab) in enumerate(policy) if lab is SecurityLabel.RANDOM]
    public_idx = [i for i, (_, lab) in enumerate(policy) if lab is SecurityLabel.PUBLIC]

    hidden = len(secret_idx) + len(random_idx)
    sliced = _bit_local(program, secret_idx + random_idx)
    kind, limit = ("bit-sliced", _SLICED_LIMIT) if sliced else ("exhaustive", _HIDDEN_LIMIT)
    if hidden > limit:
        return PscReport(incomplete=True, reason=_over_budget(hidden, kind, limit))

    report = PscReport()
    if not secret_idx:
        return report  # nothing to compare across
    if sliced:
        return _sliced_psc(program, len(names), secret_idx, random_idx, public_idx, public_probes)

    random_grid = _full_grid(len(random_idx))
    per_secret = random_grid.shape[1]
    secrets_per_call = max(1, _PSC_BATCH_LANES // per_secret)

    # one input block for every call: the random rows are tiled once, the
    # public rows rewritten per probe and the secret rows per call
    block = np.empty((len(names), secrets_per_call, per_secret), dtype=np.uint8)
    for pos, i in enumerate(random_idx):
        block[i] = random_grid[pos]
    absent = np.full(per_secret, -1, dtype=np.int16)  # the row of a site not run
    for public in itertools.product(public_probes, repeat=len(public_idx)):
        for pos, i in enumerate(public_idx):
            block[i] = public[pos]
        reference: Optional[dict] = None
        for chunk in _hidden_chunks(len(secret_idx), secrets_per_call):
            batch = chunk.shape[1]
            for pos, i in enumerate(secret_idx):
                block[i, :batch] = chunk[pos][:, None]
            inputs = block[:, :batch].reshape(len(names), batch * per_secret)
            values = run_batch(program, inputs).transitions
            report.sites.update(values)
            if reference is None:
                ref_secret = tuple(int(v) for v in chunk[:, 0])
                reference = {site: np.sort(v[:per_secret]) for site, v in values.items()}
            for site in sorted((values.keys() | reference.keys()) - report.leaks.keys()):
                rows = absent
                if site in values:
                    # a row per secret, sorted: equal rows are equal histograms
                    rows = values[site].reshape(batch, per_secret)
                    rows.sort()
                differs = (rows != reference.get(site, absent)).any(axis=-1)
                if differs.any():
                    witness = tuple(int(v) for v in chunk[:, differs.argmax()])
                    report.leaks[site] = (ref_secret, witness)
    return report


def _bit_local(program: MachineProgram, hidden: Sequence[int]) -> bool:
    """Whether no value derived from the `hidden` input registers reaches
    an ADD, a SUB or a branch condition (`_taint`)."""
    arithmetic, regions = _taint(program, hidden)
    return not arithmetic and not regions


def _sliced_psc(
    program: MachineProgram,
    num_inputs: int,
    secret_idx: list[int],
    random_idx: list[int],
    public_idx: list[int],
    public_probes: Sequence[int],
) -> PscReport:
    """`check_psc` on a bit-local program with at least one secret: one
    `run_batch` call per probe, each hidden input 0x00 or 0xFF per lane,
    a run of lanes per secret pattern, the first secret most significant.

    At each site every pattern's per-bit set counts and run count, taken
    from its lanes' transition values, are compared with pattern 0's.  A
    secret whose pattern at some bit i fails there differs from the
    all-zero reference; the least such secret, the site's witness, is the
    least (p_j << i) over the failing (pattern p, bit i) pairs, and for
    one bit the least failing pattern gives the least tuple.
    """
    hidden = secret_idx + random_idx
    lanes = 1 << len(hidden)
    lane = np.arange(lanes)
    inputs = np.empty((num_inputs, lanes), dtype=np.uint8)
    for pos, i in enumerate(hidden):
        inputs[i] = ((lane >> (len(hidden) - 1 - pos)) & 1) * 0xFF
    groups = 1 << len(secret_idx)
    patterns = inputs[secret_idx, :: lanes // groups]  # (secrets, groups)
    reference = (0,) * len(secret_idx)

    report = PscReport()
    for public in itertools.product(public_probes, repeat=len(public_idx)):
        for pos, i in enumerate(public_idx):
            inputs[i] = public[pos]
        values = run_batch(program, inputs).transitions
        report.sites.update(values)
        for site in sorted(values.keys() - report.leaks.keys()):
            rows = values[site].reshape(groups, -1)  # a row per pattern
            ran = rows >= 0
            # per pattern: the lanes whose value has bit i set (column i <
            # 8), and the lanes that ran the site (column 8)
            bits = (np.where(ran, rows, 0)[:, :, None] >> np.arange(8)) & 1
            counts = np.column_stack([bits.sum(axis=1), ran.sum(axis=1)])
            differs = counts != counts[0]
            failing = differs[:, :8] | differs[:, 8:]  # a run count fails every bit
            witnesses = [
                tuple(int(v) & (1 << i) for v in patterns[:, failing[:, i].argmax()])
                for i in range(8)
                if failing[:, i].any()
            ]
            if witnesses:
                report.leaks[site] = (reference, min(witnesses))
    return report
