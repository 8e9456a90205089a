"""Independent verification oracles.

Everything here works on encoded machine programs and exhaustive (or
seeded-sample) input enumeration through the simulator; nothing is shared
with the constraint model, so these checks can veto the whole pipeline.

  * functional equivalence of two programs,
  * constant-resource checking: best- and worst-case cycle counts must
    coincide for every tested public input, with secrets and randoms
    enumerated exhaustively,
  * first-order power-leak checking: at every register write and memory
    bus update, the distribution of the transition value over uniform
    randoms must be identical for all secret values.

Exact enumeration at 8-bit width replaces statistical testing; there are
no tolerances to tune.  Both security checks enumerate at most
`_HIDDEN_LIMIT` secret and random inputs byte by byte and report more as
incomplete, except where the power-leak check can slice bits.

Bit-sliced power-leak check.  A program is bit-local when no value
derived from a secret or random input reaches an ADD, a SUB or a branch
condition; a forward taint pass over the blocks decides it (branches only
go forward, so one pass in block order sees every predecessor first).
In a bit-local program every lane of a public probe runs the same path,
and bit i of every value, so of every transition, is a function of bit i
of the hidden inputs and of the probe alone.  Uniform random bytes have
independent bits, so for one secret the transition byte is a product of
eight independent bits, whose distribution its eight per-bit marginals
decide.  Two secrets therefore give equal distributions exactly when
every per-bit marginal is equal, and the marginal at bit i depends only
on the secrets' pattern at bit i.  One `run_batch` call per probe
evaluates all eight bits at once: each hidden input is 0x00 or 0xFF per
lane, 2**(secrets + randoms) lanes in one group per secret pattern (the
first secret most significant).  A site leaks when some pattern's per-bit
set counts, or its run count, differ from pattern 0's; its witness is
the least secret in enumeration order that shows a failing (pattern p,
bit i) pair, the tuple of (p_j << i), which is the secret the byte-wise
enumeration would report.  Bit-local programs take this path up to
`_SLICED_LIMIT` hidden inputs.

Byte-wise power-leak check.  Other programs put several secret values
into one `run_batch` call, lane-major by secret (all randoms of the first
secret, then of the next), with up to `_PSC_BATCH_LANES` lanes and
`_PSC_BATCH_BINS` joint (secret, value) histogram bins per call;
`run_batch` returns one histogram row per secret, and builds the rows of
a site where every lane sees one value without a bincount.  A secret
whose randoms alone exceed the lane cap runs in a call of its own.  At
each site, every secret's row is compared with the reference secret's
(the first in enumeration order), and a site that a secret did not run
counts as an all-zero row, so running a site more or less often is a
difference like any other.  `PscReport` holds the sites that some lane
ran and, per leaking site, the reference secret and the first secret
whose row differs.

The oracles build their input arrays once and rewrite only the rows
that change from one `run_batch` call to the next.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .machine import PROFILES, MachineProgram, Opcode, run_batch
from .mir import SecurityLabel

# Fixed public probe values used when enumerating; callers may extend.
PUBLIC_PROBES = (0x00, 0xFF, 0x5A)

Policy = Sequence[tuple[str, SecurityLabel]]

_EXHAUSTIVE_LIMIT = 2  # inputs; beyond this, equivalence uses samples
_SAMPLES = 1000
# secret and random inputs; beyond this, check_cr and the byte-wise
# check_psc report their enumeration incomplete
_HIDDEN_LIMIT = 3
# secret and random inputs of the bit-sliced check_psc: at most 2**8
# lanes and lane groups per probe, so 512 KiB of histogram per site
_SLICED_LIMIT = 8


def _over_budget(hidden: int, kind: str = "exhaustive", limit: int = _HIDDEN_LIMIT) -> str:
    return f"{hidden} secret/random inputs exceed the {kind} enumeration budget ({limit})"


def _full_grid(k: int) -> np.ndarray:
    """All 256**k input combinations, shape (k, 256**k)."""
    return next(_hidden_chunks(k, max_lanes=256**k))


# ----------------------------------------------------------------------
# functional equivalence
# ----------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    pairs_tested: int
    mismatch: Optional[tuple[tuple[int, ...], int, int]] = None

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def lines(self) -> list[str]:
        if self.ok:
            return [f"equivalent\t{self.pairs_tested} inputs\t-"]
        inputs, ra, rb = self.mismatch
        return [f"mismatch\tinputs={inputs}\t{ra} != {rb}"]


def check_equivalence(
    a: MachineProgram, b: MachineProgram, seed: int = 0
) -> EquivalenceReport:
    """Compare return values on exhaustive 8-bit inputs (two inputs or
    fewer) or on seeded samples; reports the first mismatching input.

    The inputs and `a`'s returns are kept for the next call with the same
    `a` and seed, so a pool checked against its variant 0 runs that
    variant once."""
    if a.num_inputs != b.num_inputs:
        raise ValueError("programs take different numbers of inputs")
    inputs, ra = _equivalence_reference(a.to_bytes(), seed)
    rb = run_batch(b, inputs, collect_transitions=False).returns
    diff = np.nonzero(ra != rb)[0]
    if diff.size:
        j = int(diff[0])
        witness = tuple(int(v) for v in inputs[:, j])
        return EquivalenceReport(
            pairs_tested=inputs.shape[1], mismatch=(witness, int(ra[j]), int(rb[j]))
        )
    return EquivalenceReport(pairs_tested=inputs.shape[1])


@functools.lru_cache(maxsize=1)
def _equivalence_reference(code: bytes, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The inputs `check_equivalence` tests, and the encoded program's
    return value on each; callers must not write to either array."""
    program = MachineProgram.from_bytes(code)
    k = program.num_inputs
    if k <= _EXHAUSTIVE_LIMIT:
        inputs = _full_grid(k)
    else:
        rng = np.random.default_rng(seed)
        inputs = rng.integers(0, 256, size=(k, _SAMPLES), dtype=np.uint8)
    return inputs, run_batch(program, inputs, collect_transitions=False).returns


# ----------------------------------------------------------------------
# constant-resource checking
# ----------------------------------------------------------------------


@dataclass
class CrReport:
    # one row per tested public assignment: (assignment, bcet, wcet)
    per_public: list[tuple[tuple[int, ...], int, int]]
    # per secret branch: static cycle cost of each path in its set
    path_costs: list[tuple[int, dict[tuple[int, ...], int]]]
    incomplete: bool = False
    reason: str = ""

    @property
    def secure(self) -> bool:
        if self.incomplete:
            return False
        paths_ok = all(
            len(set(costs.values())) <= 1 for _, costs in self.path_costs
        )
        timing_ok = all(bcet == wcet for _, bcet, wcet in self.per_public)
        return paths_ok and timing_ok


def static_path_cost(program: MachineProgram, path: Sequence[int]) -> int:
    """Cycle cost of a block path read off the encoded words: each
    block's latencies, plus the taken-branch overhead on every edge that
    leaves a block through its branch."""
    profile = PROFILES[program.profile_name]
    total = 0
    for i, b in enumerate(path):
        block = program.blocks[b]
        total += sum(profile.lat(ins.opcode) for ins in block)
        if i + 1 < len(path):
            if block and block[-1].opcode in (Opcode.BEQ, Opcode.BNE):
                if block[-1].c == path[i + 1] and path[i + 1] != b + 1:
                    total += profile.taken_branch_overhead
    return total


def check_cr(
    program: MachineProgram,
    policy: Policy,
    psets: Iterable = (),
) -> CrReport:
    """Exhaustive best-/worst-case execution time comparison.

    For every assignment of the public inputs, all secret and random
    values are enumerated and the program's exact cycle count is taken
    from the simulator: the verdict requires BCET = WCET everywhere, plus
    equal static costs along every path of each secret-branch path set.
    More than `_HIDDEN_LIMIT` secret and random inputs give an incomplete
    report, which is not secure.
    """
    names = [n for n, _ in policy]
    public_idx = [i for i, (_, lab) in enumerate(policy) if lab is SecurityLabel.PUBLIC]
    hidden_idx = [i for i in range(len(names)) if i not in public_idx]
    if len(hidden_idx) > _HIDDEN_LIMIT:
        return CrReport(
            per_public=[], path_costs=[], incomplete=True, reason=_over_budget(len(hidden_idx))
        )

    # each hidden-input chunk is built once and run under every public
    # assignment, which only rewrites the public rows
    assignments = list(itertools.product(PUBLIC_PROBES, repeat=len(public_idx)))
    bcet: dict[tuple[int, ...], int] = {}
    wcet: dict[tuple[int, ...], int] = {}
    for chunk in _hidden_chunks(len(hidden_idx)):
        inputs = np.empty((len(names), chunk.shape[1]), dtype=np.uint8)
        for pos, i in enumerate(hidden_idx):
            inputs[i] = chunk[pos]
        for assignment in assignments:
            for pos, i in enumerate(public_idx):
                inputs[i] = assignment[pos]
            cycles = run_batch(program, inputs, collect_transitions=False).cycles
            lo, hi = int(cycles.min()), int(cycles.max())
            bcet[assignment] = min(bcet.get(assignment, lo), lo)
            wcet[assignment] = max(wcet.get(assignment, hi), hi)
    per_public = [(assignment, bcet[assignment], wcet[assignment]) for assignment in assignments]

    path_costs = []
    for pset in psets:
        costs = {p: static_path_cost(program, p) for p in pset.paths}
        path_costs.append((pset.branch_block, costs))
    return CrReport(per_public=per_public, path_costs=path_costs)


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
# Joint (secret, value) histogram bins per call, 256 per secret: a site's
# histogram takes 8 bytes a bin, so 512 KiB.  Secrets with 256 or more
# randoms each reach the lane cap first.
_PSC_BATCH_BINS = 1 << 16


def check_psc(
    program: MachineProgram,
    policy: Policy,
    public_probes: Sequence[int] = PUBLIC_PROBES,
) -> PscReport:
    """Exact first-order leak check under the Hamming-distance model.

    For every leak site the full distribution of transition values over
    uniform randoms is compared across all secret values (publics fixed
    at the probe set).  Any difference in distribution, or in how often a
    site executes, is a leak: a secret's histogram row at a site it did
    not run is all zeros, and each site's row for every secret is
    compared with the reference secret's (the first in enumeration
    order).  The first secret whose row differs is the site's witness.

    A bit-local program (`_bit_local`) takes the bit-sliced path, exact
    up to `_SLICED_LIMIT` secret and random inputs; any other program is
    enumerated byte by byte up to `_HIDDEN_LIMIT`, several secret values
    sharing one `run_batch` call, one lane group per secret.  Both paths
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
    secrets_per_call = max(1, min(_PSC_BATCH_LANES // per_secret, _PSC_BATCH_BINS // 256))

    # one input block for every call: the random rows are tiled once, the
    # public rows rewritten per probe and the secret rows per call
    block = np.empty((len(names), secrets_per_call, per_secret), dtype=np.uint8)
    for pos, i in enumerate(random_idx):
        block[i] = random_grid[pos]
    zero = np.zeros((1, 256), dtype=np.int64)  # the row of a site not run
    for public in itertools.product(public_probes, repeat=len(public_idx)):
        for pos, i in enumerate(public_idx):
            block[i] = public[pos]
        reference: Optional[dict] = None
        for chunk in _hidden_chunks(len(secret_idx), secrets_per_call):
            batch = chunk.shape[1]
            for pos, i in enumerate(secret_idx):
                block[i, :batch] = chunk[pos][:, None]
            inputs = block[:, :batch].reshape(len(names), batch * per_secret)
            hists = run_batch(program, inputs, groups=batch).transitions
            report.sites.update(hists)
            if reference is None:
                ref_secret = tuple(int(v) for v in chunk[:, 0])
                reference = {site: hist[:1] for site, hist in hists.items()}
            for site in sorted((hists.keys() | reference.keys()) - report.leaks.keys()):
                differs = (hists.get(site, zero) != reference.get(site, zero)).any(axis=1)
                if differs.any():
                    witness = tuple(int(v) for v in chunk[:, differs.argmax()])
                    report.leaks[site] = (ref_secret, witness)
    return report


def _bit_local(program: MachineProgram, hidden: Sequence[int]) -> bool:
    """Whether no value derived from the `hidden` input registers reaches
    an ADD, a SUB or a branch condition.

    A forward taint pass over the blocks in index order, which sees every
    predecessor of a block first because every branch goes to a later
    block (`run_batch` rejects any other).  A block starts from the union
    of the registers and memory slots that its predecessors leave tainted;
    one that no block reaches never runs and is skipped.  Like `run_batch`,
    the pass goes on after B and stops at BEQ, BNE and RET.  An opcode that
    `run_batch` does not run makes a program not bit-local.
    """
    entry: list[Optional[set]] = [None] * len(program.blocks)
    if entry:
        entry[0] = {("r", r) for r in hidden}
    for index, block in enumerate(program.blocks):
        if entry[index] is None:
            continue
        taint = set(entry[index])
        successors = [index + 1]
        for ins in block:
            op = ins.opcode
            if op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR):
                dst, hot = ("r", ins.a), ("r", ins.b) in taint or ("r", ins.c) in taint
                if hot and op in (Opcode.ADD, Opcode.SUB):
                    return False
            elif op is Opcode.MOV:
                dst, hot = ("r", ins.a), ("r", ins.b) in taint
            elif op is Opcode.LI:
                dst, hot = ("r", ins.a), False
            elif op is Opcode.LD:
                dst, hot = ("r", ins.a), ("s", ins.b) in taint
            elif op is Opcode.ST:
                dst, hot = ("s", ins.a), ("r", ins.b) in taint
            elif op in (Opcode.BEQ, Opcode.BNE):
                if ("r", ins.a) in taint or ("r", ins.b) in taint:
                    return False
                successors = [ins.c, index + 1]
                break
            elif op is Opcode.B:
                successors = [ins.a]
                continue
            elif op is Opcode.RET:
                successors = []
                break
            elif op is Opcode.NOP:
                continue
            else:
                return False
            if hot:
                taint.add(dst)
            else:
                taint.discard(dst)
        for succ in successors:
            if succ < len(entry):
                entry[succ] = taint | (entry[succ] or set())
    return True


# A (groups, 256) histogram times this matrix gives, per group, the
# number of lanes whose value has bit i set (column i < 8) and the number
# of lanes that ran the site (column 8).
_BIT_COUNTS = np.array([[v >> i & 1 for i in range(8)] + [1] for v in range(256)], dtype=np.int64)


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
    one lane group per secret pattern, the first secret most significant.

    At each site every pattern's per-bit set counts and run count are
    compared with pattern 0's.  A secret whose pattern at some bit i
    fails there differs from the all-zero reference; the least such
    secret, the site's witness, is the least (p_j << i) over the failing
    (pattern p, bit i) pairs, and for one bit the least failing pattern
    gives the least tuple.
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
        hists = run_batch(program, inputs, groups=groups).transitions
        report.sites.update(hists)
        for site in sorted(hists.keys() - report.leaks.keys()):
            counts = hists[site] @ _BIT_COUNTS
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
