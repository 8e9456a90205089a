from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FOUR_SECRETS, IMPLICIT, corpus_naive_pool, load
from cr_reference import constant_resource, cycle_bounds, static_path_cost
from scalar_machine import run
from test_secanalysis import _all_dag_edges, _secret_graph
from secdiv.copmodel import Mode, build_problem, to_schedule
from secdiv.machine import (
    TIGHT8,
    Instr,
    MachineError,
    MachineProgram,
    Schedule,
    encode,
    run_batch,
)
from secdiv.mir import TERMINATORS, Opcode, SecurityLabel, parse_function
from secdiv.secanalysis import analyze
from secdiv import verify
from secdiv.solver import diversify, solve_optimal
from secdiv.verify import (
    PUBLIC_PROBES,
    _hidden_chunks,
    _paths,
    check_cr,
    check_equivalence,
    check_psc,
)
from fractions import Fraction


def _compile(name: str, mode: Mode, profile=TIGHT8):
    func = load(name)
    analyzed = analyze(func, profile, mode=mode)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=60).solution
    program = encode(analyzed.function, to_schedule(prob, sol), profile)
    return analyzed, prob, sol, program


# ----------------------------------------------------------------------
# functional equivalence
# ----------------------------------------------------------------------


def test_program_equivalent_to_itself():
    _, _, _, program = _compile("masked_xor", Mode.PSC)
    report = check_equivalence(program, program)
    assert report.ok and report.proven
    assert report.pairs_tested == 0  # no input runs
    assert report.line() == "equivalent\tproven\t-"


def _and_or_xor(inputs: int) -> tuple[MachineProgram, MachineProgram]:
    """(a & b) ^ (a | b) ^ ... and a ^ b ^ ... over `inputs` inputs: equal
    programs whose normal forms differ, so only the concrete check can
    call them equivalent."""
    tail = [Instr(Opcode.XOR, 7, 7, r) for r in range(2, inputs)]
    first = [Instr(Opcode.AND, 5, 0, 1), Instr(Opcode.OR, 6, 0, 1), Instr(Opcode.XOR, 7, 5, 6)]
    second = [Instr(Opcode.XOR, 7, 1, 0)]
    return tuple(
        MachineProgram("tight8", inputs, [words + tail + [Instr(Opcode.RET, 7)]])
        for words in (first, second)
    )


def test_unprovable_pair_is_sampled():
    a, b = _and_or_xor(3)
    report = check_equivalence(a, b)
    assert report.ok and not report.proven
    assert report.pairs_tested == 1000  # 3 inputs -> seeded samples
    assert report.line() == "equivalent\t1000 inputs\t-"


def test_two_input_program_exhaustive():
    a, b = _and_or_xor(2)
    report = check_equivalence(a, b)
    assert report.ok and not report.proven
    assert report.pairs_tested == 65536


def test_pool_variants_equivalent():
    analyzed, prob, best, base = _compile("masked_xor", Mode.PSC)
    pool = diversify(prob, best, n=10, gap=Fraction(1, 10), time_budget=60, seed=1)
    for sol in pool.solutions[1:]:
        variant = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
        assert check_equivalence(base, variant).ok


def test_mutated_opcode_detected():
    _, _, _, program = _compile("masked_xor", Mode.PSC)
    mutated = encode(load("masked_xor"), _identity_sched(), TIGHT8)
    # flip the first xor into an add: a fault-injection stand-in
    words = [list(b) for b in mutated.blocks]
    first = words[0][0]
    words[0][0] = Instr(Opcode.ADD, first.a, first.b, first.c)
    mutated = replace(mutated, blocks=words)
    report = check_equivalence(program, mutated)
    assert not report.ok
    witness, ra, rb = report.mismatch
    assert ra != rb and len(witness) == 3


def _identity_sched():
    return Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 3, "mkc": 3, "t": 4},
    )


def test_input_arity_mismatch_rejected():
    _, _, _, a = _compile("masked_xor", Mode.PSC)
    _, _, _, b = _compile("check_bit", Mode.TSC)
    with pytest.raises(ValueError, match="different numbers"):
        check_equivalence(a, b)


# ----------------------------------------------------------------------
# constant-resource checking
# ----------------------------------------------------------------------


def _branch_blocks(analyzed) -> list[int]:
    return [pset.branch_block for pset in analyzed.psets]


def test_tsc_variant_constant_resource():
    analyzed, _, _, program = _compile("check_bit", Mode.TSC)
    report = check_cr(program, analyzed.function.inputs)
    assert report.secure
    assert [block for block, _, _ in report.regions] == _branch_blocks(analyzed)
    bounds = cycle_bounds(program, analyzed.function.inputs)
    assert len(bounds) == 256
    for bcet, wcet in bounds.values():
        assert bcet == wcet


def test_unbalanced_original_flagged():
    func = load("check_bit")
    analyzed = analyze(func, TIGHT8)  # no balancing
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
    report = check_cr(program, func.inputs)
    assert not report.secure
    ((block, fewest, most),) = report.regions
    assert block == analyzed.psets[0].branch_block
    assert most > fewest  # the taken arm runs longer
    # every public value lets the secret take both arms
    bounds = cycle_bounds(program, func.inputs)
    assert {wcet - bcet for bcet, wcet in bounds.values()} == {most - fewest}


def test_hidden_chunks_respect_max_lanes():
    chunks = list(itertools.islice(_hidden_chunks(4), 3))
    low = np.array(list(itertools.product(range(256), repeat=2)), dtype=np.uint8).T
    for v, chunk in enumerate(chunks):
        assert chunk.shape == (4, 1 << 16) and chunk.dtype == np.uint8
        assert (chunk[0] == 0).all() and (chunk[1] == v).all()
        assert np.array_equal(chunk[2:], low)


def test_hidden_chunks_cover_grid_in_order():
    chunks = list(_hidden_chunks(1, max_lanes=100))
    assert [c.shape for c in chunks] == [(1, 100), (1, 100), (1, 56)]
    assert np.concatenate(chunks, axis=1)[0].tolist() == list(range(256))
    assert [c.tolist() for c in _hidden_chunks(0)] == [[]]


def test_straightline_trivially_secure():
    _, _, _, program = _compile("straightline", Mode.NONE)
    func = load("straightline")
    report = check_cr(program, func.inputs)
    assert report.secure
    assert report.regions == []
    # no hidden input: each of the 256 x 3 public assignments is one lane
    assert len(cycle_bounds(program, func.inputs)) == 768
    assert constant_resource(program, func.inputs)


B2 = Instr(Opcode.B, 2)  # block 0 jumps over block 1, which no lane reaches


@pytest.mark.parametrize(
    "blocks, match",
    [
        # a hidden branch back to its own block
        ([[Instr(Opcode.LI, 7, 0), Instr(Opcode.BNE, 1, 7, 0)], [Instr(Opcode.RET, 0)]],
         "block 0 branches to block 0"),
        ([[Instr(Opcode.RET, 0)], [Instr(Opcode.MOV, 8, 1)]], "register operand 8"),
        ([[Instr(Opcode.COPY, 2, 1), Instr(Opcode.RET, 2)]], "copy, not a machine opcode"),
        # an operand out of range, then a branch that is not forward, come
        # before a block out of shape
        ([[Instr(Opcode.COPY, 2, 1)], [Instr(Opcode.MOV, 8, 1)]], "register operand 8"),
        ([[Instr(Opcode.B, 0), Instr(Opcode.COPY, 2, 1)]], "block 0 branches to block 0"),
        # each shape out of the one that _decode allows
        ([[B2], [Instr(Opcode.RET, 0), Instr(Opcode.NOP)], [Instr(Opcode.RET, 0)]],
         "block 1 has words after its ret"),
        ([[B2], [Instr(Opcode.BNE, 0, 1, 2), Instr(Opcode.LI, 1, 5)], [Instr(Opcode.RET, 0)]],
         "block 1 has words after its bne"),
        ([[B2], [B2, Instr(Opcode.NOP)], [Instr(Opcode.RET, 0)]], "block 1 has words after its b"),
        ([[B2], [Instr(Opcode.COPY, 1, 0)], [Instr(Opcode.RET, 0)]],
         "block 1 holds copy, not a machine opcode"),
        ([[Instr(Opcode.RET, 0)], [Instr(Opcode.LI, 1, 5)]], "the last block does not end in ret"),
        ([[Instr(Opcode.RET, 0)], []], "the last block does not end in ret"),
        ([], "the last block does not end in ret"),
    ],
)
def test_cr_rejects_what_the_machine_does_not_run(blocks, match):
    """So do run_batch, check_psc and static_path_cost, which read the
    same decoded blocks, also where the word at fault never runs."""
    program = MachineProgram("tight8", 2, blocks)
    policy = [("pub", SecurityLabel.PUBLIC), ("key", SecurityLabel.SECRET)]
    for check in (
        lambda: check_cr(program, policy),
        lambda: run_batch(program, np.zeros((2, 4), dtype=np.uint8)),
        lambda: check_psc(program, policy),
        lambda: static_path_cost(program, [0]),
    ):
        with pytest.raises(MachineError, match=match):
            check()


def test_static_path_cost_matches_simulator():
    analyzed, prob, sol, program = _compile("check_bit", Mode.TSC)
    for pub, key, path in [(1, 1, (0, 1, 3)), (1, 2, (0, 2, 3))]:
        trace = run(program, [pub, key])
        assert tuple(trace.path) == path
        assert static_path_cost(program, path) == trace.total_cycles


@st.composite
def _flow_programs(draw, arithmetic: bool = False) -> MachineProgram:
    """Well-formed programs on two inputs of 1-5 blocks.  A block has some
    `_instructions` and ends in one of: a B to a later block; a BEQ or BNE
    on r0 and r1 to a later block, often the next one; a RET; or nothing,
    so it falls through.  The last block ends in a RET."""
    n = draw(st.integers(1, 5))
    blocks = []
    for index in range(n):
        words = draw(_instructions(3, arithmetic))
        end = draw(st.sampled_from(["b", "branch", "ret", "fall"] if index < n - 1 else ["ret"]))
        if end in ("b", "branch"):
            target = draw(st.one_of(st.just(index + 1), st.integers(index + 1, n - 1)))
        if end == "b":
            words.append(Instr(Opcode.B, target))
        elif end == "branch":
            words.append(Instr(draw(st.sampled_from([Opcode.BEQ, Opcode.BNE])), 0, 1, target))
        elif end == "ret":
            words.append(Instr(Opcode.RET, draw(st.integers(0, 7))))
        blocks.append(words)
    return MachineProgram("tight8", 2, blocks)


@st.composite
def _malformed_programs(draw) -> MachineProgram:
    """A `_flow_programs` program put out of shape in one block, which a
    lane may or may not reach: a word after the block's B, BEQ, BNE or
    RET; a COPY anywhere in it; or a last block whose RET is gone, so it
    falls off the program's end."""
    program = draw(_flow_programs())
    blocks = [list(block) for block in program.blocks]
    fault = draw(st.sampled_from(["after", "copy", "last"]))
    if fault == "after":
        ends = [i for i, block in enumerate(blocks) if block and block[-1].opcode in TERMINATORS]
        extra = draw(st.sampled_from([Instr(Opcode.NOP), Instr(Opcode.LI, 1, 5), Instr(Opcode.RET, 0)]))
        blocks[draw(st.sampled_from(ends))].append(extra)
    elif fault == "copy":
        block = blocks[draw(st.integers(0, len(blocks) - 1))]
        block.insert(draw(st.integers(0, len(block))), Instr(Opcode.COPY, 1, 0))
    else:
        blocks[-1][-1:] = draw(_instructions(2))
    return replace(program, blocks=blocks)


@settings(max_examples=80, deadline=None)
@given(_flow_programs(), st.integers(0, 2), st.integers(0, 2))
def test_static_path_cost_matches_simulator_on_generated_programs(program, x, y):
    trace = run(program, [x, y])
    flat = program.flat()
    block_of = [index for index, block in enumerate(program.blocks) for _ in block]
    # a taken branch to the next block leaves by the same block path as its
    # fall-through, which static_path_cost counts: without the overhead
    to_next = sum(
        step.cycles - TIGHT8.latency[step.opcode]
        for step in trace.steps
        if step.opcode in (Opcode.BEQ, Opcode.BNE)
        and flat[step.address // 4].c == block_of[step.address // 4] + 1
    )
    assert static_path_cost(program, trace.path) + to_next == trace.total_cycles
    batch = run_batch(program, np.array([[x], [y]], dtype=np.uint8), collect_transitions=False)
    assert int(batch.cycles[0]) == trace.total_cycles
    assert int(batch.returns[0]) == trace.return_value


@settings(max_examples=60, deadline=None)
@given(_malformed_programs(), st.integers(0, 2), st.integers(0, 2))
def test_programs_out_of_shape_are_rejected_by_every_reader(program, x, y):
    policy = [("pub", SecurityLabel.PUBLIC), ("key", SecurityLabel.SECRET)]
    for check in (
        lambda: run_batch(program, np.array([[x], [y]], dtype=np.uint8)),
        lambda: check_cr(program, policy),
        lambda: run(program, [x, y]),
    ):
        with pytest.raises(MachineError):
            check()


# ----------------------------------------------------------------------
# first-order power-leak checking
# ----------------------------------------------------------------------


def test_secure_masked_xor_independent():
    _, _, _, program = _compile("masked_xor", Mode.PSC)
    func = load("masked_xor")
    report = check_psc(program, func.inputs)
    assert report.secure
    assert report.sites and not report.leaks


def test_insecure_assignment_leaks_at_documented_site():
    func = load("masked_xor")
    insecure = Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 2, "mkc": 2, "t": 0},
    )
    program = encode(func, insecure, TIGHT8)
    report = check_psc(program, func.inputs)
    assert not report.secure
    (site, (s1, s2)), = report.leaks.items()
    assert site == (0, "reg", 2)  # the write over mask
    assert s1 != s2


def test_all_public_program_independent():
    _, _, _, program = _compile("two_exits", Mode.NONE)
    func = load("two_exits")
    report = check_psc(program, func.inputs)
    assert report.secure
    assert not report.leaks


def test_program_without_transition_sites_independent():
    # ret reads its input register in place: no write, no bus update
    secret, random = ("k", SecurityLabel.SECRET), ("m", SecurityLabel.RANDOM)
    for policy in ([secret, random], [secret]):
        program = MachineProgram("tight8", len(policy), [[Instr(Opcode.RET, 0)]])
        report = check_psc(program, policy)
        assert report.secure and not report.sites


def test_masked_chain_exhaustively_independent():
    _, _, _, program = _compile("masked_chain", Mode.PSC)
    func = load("masked_chain")
    report = check_psc(program, func.inputs)
    assert report.secure


def _compile_text(text: str):
    func = parse_function(text)
    analyzed = analyze(func, TIGHT8)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    return func, encode(analyzed.function, to_schedule(prob, sol), TIGHT8)


# four hidden inputs, one more than the byte-wise enumeration takes
_FOUR_HIDDEN_XOR = (
    "func f (a:secret, b:secret, c:random, d:random)\n"
    "block 0\n"
    "  x = xor a, c\n"
    "  y = xor b, d\n"
    "  r = xor x, y\n"
    "  ret r\n"
)


def test_four_hidden_xor_program_gets_an_exact_verdict():
    func, program = _compile_text(_FOUR_HIDDEN_XOR)
    report = check_psc(program, func.inputs)
    assert not report.incomplete
    assert report.secure
    assert report.sites == {(0, "reg", 0), (4, "reg", 1), (8, "reg", 0)}


def test_enumeration_budget_exceeded_incomplete():
    # the add on a secret makes the program take the byte-wise path
    func, program = _compile_text(_FOUR_HIDDEN_XOR.replace("x = xor a, c", "x = add a, c"))
    report = check_psc(program, func.inputs)
    assert report.incomplete
    assert not report.secure
    assert report.reason == "4 secret/random inputs exceed the exhaustive enumeration budget (3)"


def test_three_secrets_without_randoms_take_the_bytewise_path_quickly():
    """2**24 secrets of one lane each at every probe.  The ADD makes the
    program take the byte-wise path; b = 1 changes r4, and c = 1 then
    changes r5, with a + b unchanged."""
    policy = [("p", SecurityLabel.PUBLIC)] + [(h, SecurityLabel.SECRET) for h in "abc"]
    program = MachineProgram("tight8", 4, [[
        Instr(Opcode.ADD, 4, 1, 2), Instr(Opcode.XOR, 5, 4, 3), Instr(Opcode.RET, 5),
    ]])
    assert not verify._bit_local(program, _hidden_regs(policy))
    start = time.process_time()
    report = check_psc(program, policy)
    assert time.process_time() - start < 2.0
    assert not report.incomplete
    assert report.sites == {(0, "reg", 4), (4, "reg", 5)}
    assert report.leaks == {
        (0, "reg", 4): ((0, 0, 0), (0, 1, 0)),
        (4, "reg", 5): ((0, 0, 0), (0, 0, 1)),
    }


def test_sliced_budget_exceeded_incomplete():
    policy = [(f"k{i}", SecurityLabel.SECRET) for i in range(9)]
    program = MachineProgram("tight8", 9, [[Instr(Opcode.XOR, 0, 0, 1), Instr(Opcode.RET, 0)]])
    report = check_psc(program, policy)
    assert report.incomplete
    assert not report.secure
    assert report.reason == "9 secret/random inputs exceed the bit-sliced enumeration budget (8)"


@pytest.mark.parametrize("profile, words", [
    # the ADD of two randoms makes the byte-wise path, budget 3, take it
    ("tight8", [Instr(Opcode.ADD, 5, 1, 2), Instr(Opcode.XOR, 5, 5, 3),
                Instr(Opcode.XOR, 5, 5, 4), Instr(Opcode.XOR, 5, 5, 0)]),
    # bit-local, budget 8
    ("wide32", [Instr(Opcode.XOR, 0, 0, r) for r in range(1, 10)]),
], ids=["bytewise", "sliced"])
def test_psc_without_a_secret_is_secure_past_either_budget(profile, words):
    """No secret leaves nothing to compare across, however many random
    inputs pass the enumeration budget."""
    randoms = max(ins.c for ins in words)
    policy = [("p", SecurityLabel.PUBLIC)] + [(f"m{i}", SecurityLabel.RANDOM) for i in range(randoms)]
    program = MachineProgram(profile, randoms + 1, [words + [Instr(Opcode.RET, words[-1].a)]])
    report = check_psc(program, policy)
    assert report.secure and not report.incomplete and report.reason == ""


def test_psc_agrees_with_typing_on_corpus():
    """Register transitions between a RANDOM-typed def and the PUBLIC
    value it overwrites must be independent."""
    analyzed, prob, sol, program = _compile("masked_xor", Mode.PSC)
    report = check_psc(program, analyzed.function.inputs)
    assert report.secure  # mk and t are RANDOM-typed and the oracle agrees


def test_four_secrets_get_an_exact_cr_verdict():
    analyzed = analyze(parse_function(FOUR_SECRETS), TIGHT8, mode=Mode.TSC)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
    start = time.process_time()
    report = check_cr(program, analyzed.function.inputs)
    assert time.process_time() - start < 1.0
    assert report.secure
    assert [block for block, _, _ in report.regions] == _branch_blocks(analyzed) == [0]
    # the unbalanced build is insecure
    unbalanced = analyze(parse_function(FOUR_SECRETS), TIGHT8)
    prob = build_problem(unbalanced)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(unbalanced.function, to_schedule(prob, sol), TIGHT8)
    assert not check_cr(program, unbalanced.function.inputs).secure


def test_naive_pool_produces_cr_violations():
    pool = corpus_naive_pool("check_bit", 25, seed=0)
    policy = pool.problem.function.inputs
    bad = 0
    for sol in pool.solutions:
        program = encode(pool.problem.function, to_schedule(pool.problem, sol), TIGHT8)
        report = check_cr(program, policy)
        assert report.secure == constant_resource(program, policy)
        bad += not report.secure
    assert bad > 0


def _histograms(values: np.ndarray, groups: int) -> np.ndarray:
    """Per-lane transition values, from run_batch, as a (groups, 256)
    histogram: row g counts the values of the g-th of `groups` equal runs
    of lanes, and a lane that did not run the site counts nowhere."""
    rows = values.reshape(groups, -1)
    return np.array([np.bincount(row[row >= 0], minlength=256) for row in rows])


def _secret_dists(program, policy, public):
    """(secret, {site: distribution}) for every secret value in order, at
    one assignment of the public inputs.

    With a random input, one run_batch call per secret gives the
    histograms.  Without one, a secret is a single lane and its
    distribution is the one transition value of each site it executes;
    one call covers the 256 secrets that differ in the last secret input,
    one lane each, so that 2**16 secrets take 256 calls."""
    labels = [lab for _, lab in policy]
    secret_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.SECRET]
    random_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.RANDOM]
    public_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.PUBLIC]
    randoms = list(itertools.product(range(256), repeat=len(random_idx)))
    if random_idx:
        calls = [[secret] for secret in itertools.product(range(256), repeat=len(secret_idx))]
    else:
        calls = [
            [lead + (last,) for last in range(256)]
            for lead in itertools.product(range(256), repeat=len(secret_idx) - 1)
        ]
    for secrets in calls:
        lanes = [(secret, r) for secret in secrets for r in randoms]
        inputs = np.zeros((len(policy), len(lanes)), dtype=np.uint8)
        for pos, i in enumerate(public_idx):
            inputs[i] = public[pos]
        for pos, i in enumerate(secret_idx):
            inputs[i] = [secret[pos] for secret, _ in lanes]
        for pos, i in enumerate(random_idx):
            inputs[i] = [r[pos] for _, r in lanes]
        values = run_batch(program, inputs).transitions
        if random_idx:
            yield secrets[0], {site: _histograms(v, 1).tobytes() for site, v in values.items()}
            continue
        dists = [{} for _ in secrets]
        for site, v in values.items():
            for dist, value in zip(dists, v.tolist()):
                if value >= 0:
                    dist[site] = value
        yield from zip(secrets, dists)


def _reference_psc(program, policy, public_probes=PUBLIC_PROBES):
    """check_psc secret by secret, over the distributions of _secret_dists:
    (sites run, {site: (reference secret, first differing secret)}).  A
    site that a secret did not run has no distribution, and two secrets
    differ there unless neither ran it."""
    public_count = sum(lab is SecurityLabel.PUBLIC for _, lab in policy)
    sites, leaks = set(), {}
    for public in itertools.product(public_probes, repeat=public_count):
        reference = ref_secret = None
        for secret, dist in _secret_dists(program, policy, public):
            sites.update(dist)
            if reference is None:
                reference, ref_secret = dist, secret
            for site in dist.keys() | reference.keys():
                if site not in leaks and dist.get(site) != reference.get(site):
                    leaks[site] = (ref_secret, secret)
    return sites, leaks


@pytest.mark.parametrize(
    "name, n, probes",
    [
        pytest.param("masked_xor", 12, PUBLIC_PROBES, id="masked_xor"),
        pytest.param("masked_xor_broken", 12, PUBLIC_PROBES, id="masked_xor_broken"),
        pytest.param("check_bit", 12, PUBLIC_PROBES, id="check_bit"),
        # two secrets and no random input: 2**16 secrets of one lane each,
        # at one value of the public input to keep the reference short
        pytest.param("modexp_step", 2, (0x5A,), id="modexp_step"),
    ],
)
def test_batched_psc_matches_per_secret_reference(name, n, probes):
    pool = corpus_naive_pool(name, n, seed=0)
    func = pool.problem.function
    leaking = 0
    for sol in pool.solutions:
        program = encode(func, to_schedule(pool.problem, sol), TIGHT8)
        report = check_psc(program, func.inputs, public_probes=probes)
        assert (report.sites, report.leaks) == _reference_psc(program, func.inputs, probes)
        leaking += bool(report.leaks)
    assert leaking > 0


def test_site_run_by_some_secrets_leaks():
    """With pub=0xFF only key=0xFF takes the other arm of the naive base.
    It also writes another value to r0 at 0x0028, a site that every
    secret runs, so that site leaks as well as the sites of its arm."""
    pool = corpus_naive_pool("check_bit", 12, seed=0)
    func = pool.problem.function
    program = encode(func, to_schedule(pool.problem, pool.solutions[0]), TIGHT8)
    report = check_psc(program, func.inputs)
    assert (40, "reg", 0) in report.leaks


# ----------------------------------------------------------------------
# the bit-sliced path against the byte-wise one
# ----------------------------------------------------------------------


def _hidden_regs(policy) -> list[int]:
    return [i for i, (_, lab) in enumerate(policy) if lab is not SecurityLabel.PUBLIC]


def _bytewise_psc(program, policy, probes):
    """check_psc on its byte-wise path, whatever the program."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_bit_local", lambda *_: False)
        return check_psc(program, policy, public_probes=probes)


def _psc_pool(name: str, n: int):
    analyzed = analyze(load(name), TIGHT8, mode=Mode.PSC)
    prob = build_problem(analyzed)
    best = solve_optimal(prob, time_budget=60).solution
    return diversify(prob, best, n=n, gap=Fraction(1, 4), time_budget=60, seed=0)


@pytest.mark.parametrize(
    "name, kind, n, probes, leaking",
    [
        ("masked_xor", "naive", 16, PUBLIC_PROBES, 8),
        ("masked_xor", "psc", 16, PUBLIC_PROBES, 0),
        ("masked_xor_broken", "naive", 16, PUBLIC_PROBES, 8),
        ("masked_xor_broken", "psc", 16, PUBLIC_PROBES, 0),
        # 2**24 lanes a probe byte-wise: one probe, and the naive pool up
        # to its first leaking variant
        ("masked_chain", "naive", 9, (0x5A,), 1),
        ("masked_chain", "psc", 4, (0x5A,), 0),
    ],
)
def test_sliced_psc_matches_bytewise_on_pools(name, kind, n, probes, leaking):
    pool = corpus_naive_pool(name, n) if kind == "naive" else _psc_pool(name, n)
    func = pool.problem.function
    assert len(pool.solutions) == n
    leaks = 0
    for sol in pool.solutions:
        program = encode(func, to_schedule(pool.problem, sol), TIGHT8)
        assert verify._bit_local(program, _hidden_regs(func.inputs))
        fast = check_psc(program, func.inputs, public_probes=probes)
        slow = _bytewise_psc(program, func.inputs, probes)
        assert not fast.incomplete and not slow.incomplete
        assert (fast.sites, fast.leaks) == (slow.sites, slow.leaks)
        leaks += bool(fast.leaks)
    assert leaks == leaking


_CONSTANTS = (0x00, 0xFF, 0x5A, 0x0F)


@st.composite
def _instructions(draw, size: int, arithmetic: bool = False) -> list[Instr]:
    """Bitwise instructions, and with `arithmetic` ADD and SUB too, that
    write r1-r6 and slots 0-1 and read any register: r0 holds the public
    input, r7 a constant."""
    body = []
    ops = ["xor", "and", "or", "mov", "li", "ld", "st", "nop"] + ["add", "sub"] * arithmetic
    for _ in range(draw(st.integers(0, size))):
        op = draw(st.sampled_from(ops))
        a, b, c = draw(st.integers(1, 6)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
        slot = draw(st.integers(0, 1))
        body.append({
            "add": Instr(Opcode.ADD, a, b, c),
            "sub": Instr(Opcode.SUB, a, b, c),
            "xor": Instr(Opcode.XOR, a, b, c),
            "and": Instr(Opcode.AND, a, b, c),
            "or": Instr(Opcode.OR, a, b, c),
            "mov": Instr(Opcode.MOV, a, b),
            "li": Instr(Opcode.LI, a, draw(st.sampled_from(_CONSTANTS))),
            "ld": Instr(Opcode.LD, a, slot),
            "st": Instr(Opcode.ST, slot, b),
            "nop": Instr(Opcode.NOP),
        }[op])
    return body


@st.composite
def _bitwise_programs(draw, hidden: tuple[int, int], max_randoms: int = 3):
    """(program, policy): one public input, then `hidden` secret and
    random inputs in any order, with at least one secret and at most
    `max_randoms` randoms; one block, or a diamond whose branch compares
    the public input with a constant."""
    count = draw(st.integers(*hidden))
    randoms = draw(st.integers(0, min(max_randoms, count - 1)))
    labels = draw(st.permutations(
        [SecurityLabel.SECRET] * (count - randoms) + [SecurityLabel.RANDOM] * randoms
    ))
    policy = [("p", SecurityLabel.PUBLIC)] + [(f"h{i}", lab) for i, lab in enumerate(labels)]
    head = [Instr(Opcode.LI, 7, draw(st.sampled_from(_CONSTANTS)))]
    ret = Instr(Opcode.RET, draw(st.integers(0, 7)))
    if draw(st.booleans()):
        blocks = [head + draw(_instructions(8)) + [ret]]
    else:
        branch = Instr(draw(st.sampled_from([Opcode.BEQ, Opcode.BNE])), 0, 7, 2)
        blocks = [
            head + draw(_instructions(4)) + [branch],
            draw(_instructions(4)) + [Instr(Opcode.B, 3)],
            draw(_instructions(4)),
            draw(_instructions(4)) + [ret],
        ]
    return MachineProgram("tight8", len(policy), blocks), policy


@settings(max_examples=25, deadline=None)
@given(_bitwise_programs(hidden=(1, 3)), st.sampled_from(PUBLIC_PROBES))
def test_sliced_psc_matches_bytewise_on_generated_programs(generated, probe):
    program, policy = generated
    assert verify._bit_local(program, _hidden_regs(policy))
    fast = check_psc(program, policy, public_probes=(probe,))
    slow = _bytewise_psc(program, policy, (probe,))
    assert (fast.sites, fast.leaks) == (slow.sites, slow.leaks)


def _replay(program, policy, secrets, public) -> dict:
    """{site: histogram}, one row per secret in `secrets`, each over every
    value of the random inputs, at one value of the public inputs."""
    labels = [lab for _, lab in policy]
    random_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.RANDOM]
    secret_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.SECRET]
    public_idx = [i for i, lab in enumerate(labels) if lab is SecurityLabel.PUBLIC]
    grid = np.array(
        list(itertools.product(range(256), repeat=len(random_idx))), dtype=np.uint8
    ).T.reshape(len(random_idx), 256 ** len(random_idx))
    per = grid.shape[1]
    inputs = np.zeros((len(policy), len(secrets) * per), dtype=np.uint8)
    for pos, i in enumerate(public_idx):
        inputs[i] = public[pos]
    for pos, i in enumerate(secret_idx):
        inputs[i] = np.repeat([secret[pos] for secret in secrets], per)
    for pos, i in enumerate(random_idx):
        inputs[i] = np.tile(grid[pos], len(secrets))
    values = run_batch(program, inputs).transitions
    return {site: _histograms(v, len(secrets)) for site, v in values.items()}


@settings(max_examples=12, deadline=None)
@given(_bitwise_programs(hidden=(4, 6), max_randoms=2), st.integers(0, 2**32 - 1))
def test_sliced_psc_verdicts_replay_beyond_the_bytewise_budget(generated, seed):
    """Each witness's rows differ from the reference secret's at its
    site under some probe, and the rows of a seeded sample of secrets
    equal the reference's at every other site under every probe."""
    program, policy = generated
    report = check_psc(program, policy)
    assert not report.incomplete
    secrets = sum(lab is SecurityLabel.SECRET for _, lab in policy)
    reference = (0,) * secrets
    witnesses = sorted({witness for _, witness in report.leaks.values()})
    rng = np.random.default_rng(seed)
    sample = [tuple(int(v) for v in rng.integers(0, 256, secrets)) for _ in range(4)]
    replayed = [reference, *witnesses, *sample]
    sites, differs = set(), set()
    for probe in PUBLIC_PROBES:
        hists = _replay(program, policy, replayed, (probe,))
        sites.update(hists)
        for site, hist in hists.items():
            for row, secret in zip(hist, replayed):
                if (row != hist[0]).any():
                    differs.add((site, secret))
    assert sites == report.sites
    for site, (ref, witness) in report.leaks.items():
        assert ref == reference and (site, witness) in differs
    assert all(site in report.leaks for site, _ in differs)


def _four_hidden_xor():
    """The 4-hidden XOR program and its policy: bit-local and secure."""
    func, program = _compile_text(_FOUR_HIDDEN_XOR)
    assert verify._bit_local(program, _hidden_regs(func.inputs))
    assert check_psc(program, func.inputs).secure
    return program, func.inputs


def test_add_on_a_secret_sends_a_program_to_the_bytewise_path():
    program, policy = _four_hidden_xor()
    (block,) = program.blocks
    program = replace(program, blocks=[[Instr(Opcode.ADD, 7, 0, 0), *block]])  # r0 holds secret a
    assert not verify._bit_local(program, _hidden_regs(policy))
    report = check_psc(program, policy)
    assert report.incomplete and "exhaustive" in report.reason


def test_branch_on_a_masked_value_sends_a_program_to_the_bytewise_path():
    program, policy = _four_hidden_xor()
    (block,) = program.blocks
    # r7 = a ^ c is masked; whichever way the branch goes, block 1 runs
    program = replace(program, blocks=[
        [Instr(Opcode.XOR, 7, 0, 2), Instr(Opcode.LI, 6, 0), Instr(Opcode.BNE, 7, 6, 1)],
        block,
    ])
    assert not verify._bit_local(program, _hidden_regs(policy))
    report = check_psc(program, policy)
    assert report.incomplete and "exhaustive" in report.reason


@settings(max_examples=20, deadline=None)
@given(_bitwise_programs(hidden=(4, 6)), st.data())
def test_mutated_generated_programs_take_the_bytewise_path(generated, data):
    """An ADD on a secret, or a branch on a masked secret, put before the
    first word that may overwrite the secret's input register."""
    program, policy = generated
    labels = [lab for _, lab in policy]
    secrets = [i for i, lab in enumerate(labels) if lab is SecurityLabel.SECRET]
    secret = data.draw(st.sampled_from(secrets))
    # a random input masks the secret; without one, the public input does
    mask = labels.index(SecurityLabel.RANDOM) if SecurityLabel.RANDOM in labels else 0
    head = list(program.blocks[0])
    if data.draw(st.booleans()) or len(program.blocks) == 1:
        head.insert(1, Instr(Opcode.ADD, 6, secret, 0))
    else:  # r7, which no other word writes, becomes the masked secret
        head.insert(1, Instr(Opcode.XOR, 7, secret, mask))
        head[-1] = Instr(head[-1].opcode, 7, 0, 2)
    program = replace(program, blocks=[head, *program.blocks[1:]])
    assert not verify._bit_local(program, _hidden_regs(policy))
    report = check_psc(program, policy)
    assert report.incomplete and "exhaustive" in report.reason


def _taint_case(*blocks) -> bool:
    """_bit_local with r1 secret: r0 public, r7 a constant."""
    return verify._bit_local(MachineProgram("tight8", 2, [list(b) for b in blocks]), [1])


def test_taint_follows_memory_overwrites_and_joins():
    LI, MOV, ADD, RET = Opcode.LI, Opcode.MOV, Opcode.ADD, Opcode.RET
    add_r5 = Instr(ADD, 6, 5, 5)
    # through a memory slot
    assert not _taint_case([Instr(Opcode.ST, 0, 1), Instr(Opcode.LD, 5, 0), add_r5, Instr(RET, 6)])
    # an overwrite with a constant clears the taint
    assert _taint_case([Instr(MOV, 5, 1), Instr(LI, 5, 3), add_r5, Instr(RET, 6)])
    # a join takes the union of its predecessors
    diamond = [
        [Instr(LI, 7, 0), Instr(Opcode.BNE, 0, 7, 2)],
        [Instr(MOV, 5, 1), Instr(Opcode.B, 3)],
        [Instr(LI, 5, 0)],
        [add_r5, Instr(RET, 6)],
    ]
    assert not _taint_case(*diamond)
    diamond[1][0] = Instr(LI, 5, 1)
    assert _taint_case(*diamond)
    # a block that nothing reaches never runs; a word after b is out of shape
    assert _taint_case([Instr(Opcode.B, 2)], [Instr(ADD, 6, 1, 1)], [Instr(RET, 0)])
    with pytest.raises(MachineError, match="block 0 has words after its b"):
        _taint_case([Instr(Opcode.B, 1), Instr(ADD, 6, 1, 1)], [Instr(RET, 0)])
    # x ^ x and x - x are 0 whatever x holds
    for op in (Opcode.XOR, Opcode.SUB):
        assert _taint_case([Instr(op, 5, 1, 1), add_r5, Instr(RET, 6)])
    # a branch on public values alone is bit-local, one on the secret not
    assert _taint_case([Instr(LI, 7, 0), Instr(Opcode.BEQ, 0, 7, 1)], [Instr(RET, 1)])
    assert not _taint_case([Instr(LI, 7, 0), Instr(Opcode.BEQ, 1, 7, 1)], [Instr(RET, 1)])
    # slot 0 and register 0 are different locations
    assert _taint_case([Instr(Opcode.ST, 0, 1), Instr(ADD, 6, 0, 0), Instr(RET, 6)])
    # a secret input that no word names taints nothing, here not r6
    assert _taint_case([Instr(ADD, 0, 6, 6), Instr(RET, 0)])


# ----------------------------------------------------------------------
# a 2-share ISW masked AND (not in the corpus: its psc search times out)
# ----------------------------------------------------------------------


MASKED_AND = (
    "func masked_and (pub:public, a:secret, b:secret, ma:random, mb:random, r:random)\n"
    "block 0\n"
    "  a0 = xor a, ma\n"
    "  b0 = xor b, mb\n"
    "  p00 = and a0, b0\n"
    "  p01 = and a0, mb\n"
    "  p10 = and ma, b0\n"
    "  p11 = and ma, mb\n"
    "  t = xor r, p01\n"
    "  u = xor t, p10\n"
    "  c0 = xor p00, r\n"
    "  c1 = xor p11, u\n"
    "  o = xor c1, pub\n"
    "  ret o\n"
)


def _masked_and(text: str):
    func = parse_function(text)
    analyzed = analyze(func, TIGHT8, mode=Mode.NONE)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=60).solution
    return encode(analyzed.function, to_schedule(prob, sol), TIGHT8), func.inputs


def test_masked_and_gets_a_secure_verdict():
    program, policy = _masked_and(MASKED_AND)
    start = time.process_time()
    report = check_psc(program, policy)
    assert time.process_time() - start < 1.0
    assert not report.incomplete
    assert report.secure
    assert len(report.sites) == 11


def test_masked_and_without_its_refresh_leaks():
    program, policy = _masked_and(MASKED_AND.replace("t = xor r, p01", "t = mov p01"))
    report = check_psc(program, policy)
    assert not report.incomplete
    assert report.leaks == {(40, "reg", 0): ((0, 0), (1, 1))}


# ----------------------------------------------------------------------
# constant resource: the static proof against enumeration
# ----------------------------------------------------------------------


def _tainted_blocks(report) -> set[int]:
    return {block for block, _, _ in report.regions}


@pytest.mark.parametrize("mode", ["none", "tsc", "naive"])
@pytest.mark.parametrize(
    "name", ["check_bit", "long_arm", "modexp_step", "share_compare", "two_branches"]
)
def test_static_cr_matches_enumeration_on_corpus(name, mode):
    """Variant 1 of a two-variant pool: the verdict over every public
    value, and the hidden branches the analysis finds."""
    if mode == "naive":
        pool = corpus_naive_pool(name, 2)
    else:
        analyzed = analyze(load(name), TIGHT8, mode=Mode(mode))
        prob = build_problem(analyzed)
        best = solve_optimal(prob, time_budget=60).solution
        pool = diversify(prob, best, n=2, gap=Fraction(1, 4), time_budget=60, seed=0)
    func = pool.problem.function
    program = encode(func, to_schedule(pool.problem, pool.solutions[-1]), TIGHT8)
    report = check_cr(program, func.inputs)
    assert report.secure == constant_resource(program, func.inputs)
    assert _tainted_blocks(report) == set(_branch_blocks(analyze(func, TIGHT8)))
    if mode == "tsc":
        assert report.secure


def test_static_cr_on_every_small_secret_graph():
    """Every `dag_edges` shape of 3-5 blocks, each branch `beq x, y` on
    the secret y, built unbalanced and balanced.

    The static proof is sound: a secure verdict holds for every public
    value.  It is also conservative.  Here every branch tests the same
    condition, so some paths of a region never run, and a few unbalanced
    builds run in constant time only because the paths that do run
    happen to cost the same; the proof calls those insecure."""
    for n in (3, 4, 5):
        for edges in _all_dag_edges(n):
            for mode in (Mode.NONE, Mode.TSC):
                analyzed = analyze(_secret_graph(edges, n), TIGHT8, mode=mode)
                prob = build_problem(analyzed)
                sol = solve_optimal(prob, time_budget=20).solution
                program = encode(prob.function, to_schedule(prob, sol), TIGHT8)
                report = check_cr(program, prob.function.inputs)
                enumerated = constant_resource(program, prob.function.inputs)
                assert enumerated or not report.secure, (edges, mode)
                if mode is Mode.TSC:
                    assert report.secure and enumerated, edges
                assert _tainted_blocks(report) >= set(_branch_blocks(analyze(prob.function)))


@st.composite
def _bit_test_functions(draw):
    """MIR text of a function on a `dag_edges` shape of 3-5 blocks, with
    a public input p and one or two secret or random inputs.

    Every branch tests its own bit of one input, the branches on p before
    the others.  So under every value of p, every path of a hidden
    branch's region runs for some hidden value, and the enumeration sees
    every cost the static proof sees.  Blocks start with 0-2 ops of one or
    two cycles."""
    n = draw(st.integers(3, 5))
    edges = draw(st.sampled_from(_all_dag_edges(n)))
    labels = draw(st.lists(st.sampled_from([SecurityLabel.SECRET, SecurityLabel.RANDOM]),
                           min_size=1, max_size=2))
    hidden = [f"h{j}" for j in range(len(labels))]
    branches = [i for i in range(n) if len(edges.get(i, ())) == 2]
    on_public = draw(st.integers(0, len(branches)))
    params = ", ".join(["p:public"] + [f"{h}:{lab.value}" for h, lab in zip(hidden, labels)])
    lines = [f"func g ({params})"]
    for i in range(n):
        lines += [f"block {i}"] + (["  z = li 0"] if i == 0 else [])
        for k in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from([f"  a{i}_{k} = add p, p", "  st o, p"])))
        succ = edges.get(i, ())
        if not succ:
            lines.append("  ret p")
        elif len(succ) == 2:
            tested = "p" if branches.index(i) < on_public else draw(st.sampled_from(hidden))
            lines += [f"  m{i} = li {1 << i}", f"  c{i} = and {tested}, m{i}",
                      f"  beq c{i}, z, {succ[1]}"]
        elif succ[0] != i + 1:
            lines.append(f"  b {succ[0]}")
    return "\n".join(lines) + "\n"


@settings(max_examples=15, deadline=None)
@given(_bit_test_functions(), st.sampled_from([Mode.NONE, Mode.TSC]))
def test_static_cr_matches_enumeration_on_generated_programs(text, mode):
    analyzed = analyze(parse_function(text), TIGHT8, mode=mode)
    prob = build_problem(analyzed)
    # the default budget: some 5-block tsc shapes take 700,000 nodes
    result = solve_optimal(prob)
    assert result.solution is not None, f"{result.status} after {result.nodes} nodes"
    program = encode(prob.function, to_schedule(prob, result.solution), TIGHT8)
    policy = prob.function.inputs
    report = check_cr(program, policy)
    assert report.secure == constant_resource(program, policy)
    assert _tainted_blocks(report) >= set(_branch_blocks(analyze(prob.function)))


@settings(max_examples=20, deadline=None)
@given(_bitwise_programs(hidden=(1, 2)))
def test_public_branches_keep_generated_programs_constant_resource(generated):
    program, policy = generated
    report = check_cr(program, policy)
    assert report.regions == [] and report.secure
    assert constant_resource(program, policy)


@settings(max_examples=20, deadline=None)
@given(_bitwise_programs(hidden=(1, 1)), st.data())
def test_retargeting_an_unbalanced_public_branch_flips_the_verdict(generated, data):
    """The diamond's branch compares the public r0 with the constant in
    r7; loading r7 from the secret instead makes it a hidden branch."""
    program, policy = generated
    assume(len(program.blocks) == 4)
    taken, fallthrough = (static_path_cost(program, path) for path in ((0, 2, 3), (0, 1, 3)))
    assume(taken != fallthrough)
    assert check_cr(program, policy).secure and constant_resource(program, policy)
    labels = [lab for _, lab in policy]
    secret = data.draw(st.sampled_from(
        [i for i, lab in enumerate(labels) if lab is SecurityLabel.SECRET]
    ))
    head = list(program.blocks[0])
    head[0] = Instr(Opcode.MOV, 7, secret)  # was li r7; r1-r6 are written later
    program = replace(program, blocks=[head, *program.blocks[1:]])
    report = check_cr(program, policy)
    assert not report.secure
    ((block, fewest, most),) = report.regions
    assert block == 0 and most - fewest == abs(taken - fallthrough)
    assert not constant_resource(program, policy)


def branch_on(func, temp: str) -> int:
    """The block whose branch tests `temp`."""
    (block,) = [b.index for b in func.blocks if b.terminator and temp in b.terminator.uses]
    return block


@pytest.mark.parametrize("mode", [Mode.NONE, Mode.TSC])
def test_implicit_flow_through_memory_is_a_hidden_branch(mode):
    analyzed = analyze(parse_function(IMPLICIT), TIGHT8, mode=mode)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(prob.function, to_schedule(prob, sol), TIGHT8)
    report = check_cr(program, prob.function.inputs)
    assert not report.secure
    regions = {block: (fewest, most) for block, fewest, most in report.regions}
    fewest, most = regions[branch_on(prob.function, "r")]
    assert most > fewest
    # unbalanced, the key branch's arms differ by as much as the r branch's
    # and in the other direction, so the paths that run cost the same
    if mode is Mode.TSC:
        assert not constant_resource(program, prob.function.inputs)


# the secret branch in block 1 runs only when pub = 7
GATE = (
    "func gate (pub:public, key:secret)\n"
    "block 0\n  z = li 0\n  st out, z\n  t = li 7\n  bne pub, t, 3\n"
    "block 1\n  bne key, z, 3\n"
    "block 2\n  a = add pub, pub\n  st out, a\n"
    "block 3\n  r = ld out\n  ret r\n"
)


def test_secret_branch_behind_a_public_value_is_flagged():
    """The enumeration sees the leak at pub = 7 and at no probe; the
    static proof needs no public value to see it."""
    analyzed = analyze(parse_function(GATE), TIGHT8)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(prob.function, to_schedule(prob, sol), TIGHT8)
    policy = prob.function.inputs
    report = check_cr(program, policy)
    ((block, fewest, most),) = report.regions
    assert block == branch_on(prob.function, "key") and most > fewest
    bounds = cycle_bounds(program, policy)
    assert [pub for (pub,), (bcet, wcet) in bounds.items() if bcet != wcet] == [7]
    assert constant_resource(program, policy, swept=None)


def test_implicit_flow_through_a_register_is_a_hidden_branch():
    """Both arms of the secret branch load r2, at the same cost; the later
    branch on r2 then runs one cycle longer when it is taken."""
    LI, B, BNE = Opcode.LI, Opcode.B, Opcode.BNE
    program = MachineProgram("tight8", 2, [
        [Instr(LI, 7, 0), Instr(BNE, 1, 7, 2)],  # r1 holds the secret
        [Instr(LI, 2, 1), Instr(B, 3)],
        [Instr(LI, 2, 2), Instr(Opcode.NOP)],
        [Instr(LI, 3, 1), Instr(BNE, 2, 3, 5)],
        [Instr(Opcode.ADD, 4, 0, 0)],
        [Instr(Opcode.RET, 0)],
    ])
    policy = [("pub", SecurityLabel.PUBLIC), ("key", SecurityLabel.SECRET)]
    report = check_cr(program, policy)
    assert report.regions == [(0, 6, 6), (3, 3, 4)]
    assert not report.secure
    assert not constant_resource(program, policy)


# ----------------------------------------------------------------------
# the symbolic equivalence proof
# ----------------------------------------------------------------------


def _term_values(terms, inputs: np.ndarray) -> list[np.ndarray]:
    """Every term's value on each lane of `inputs`, from the definition
    of its kind alone: operands come before the terms that use them."""
    values: list[np.ndarray] = []
    combine = {"^": np.bitwise_xor, "&": np.bitwise_and, "|": np.bitwise_or}
    for kind, constant, operands in terms.nodes:
        if kind == "x":
            value = inputs[constant].astype(np.int64)
        else:
            value = np.full(inputs.shape[1], constant, dtype=np.int64)
        if kind == "+":
            for u, coeff in operands:
                value = (value + coeff * values[u]) % 256
        elif kind in combine:
            for u in operands:
                value = combine[kind](value, values[u])
        values.append(value)
    return values


def _check_paths(program: MachineProgram, inputs: np.ndarray) -> None:
    """The program's proof paths, checked lane by lane against `run_batch`
    with every RET made to return each register in turn, so that no term
    goes unchecked for being dead: every lane meets the conditions of
    exactly one path key, and there the path's term is the lane's return
    value."""
    for register in range(8):
        blocks = [
            [Instr(Opcode.RET, register) if i.opcode is Opcode.RET else i for i in block]
            for block in program.blocks
        ]
        observed = replace(program, blocks=blocks)
        terms = verify._Terms()
        paths = verify._paths(observed, terms)
        assert paths is not None
        values = _term_values(terms, inputs)
        returns = run_batch(observed, inputs, collect_transitions=False).returns
        met = np.zeros(inputs.shape[1], dtype=int)
        for key, term in paths.items():
            on = np.ones(inputs.shape[1], dtype=bool)
            for cond, equal in key:
                on &= (values[cond] == 0) == equal
            assert (values[term][on] == returns[on]).all()
            met += on
        assert (met == 1).all()


def _commuted(program: MachineProgram) -> MachineProgram:
    """The program with the operands of every ADD, XOR, AND, OR, BEQ and
    BNE swapped: it computes the same function."""
    swap = (Opcode.ADD, Opcode.XOR, Opcode.AND, Opcode.OR)
    blocks = [
        [
            Instr(i.opcode, i.a, i.c, i.b) if i.opcode in swap
            else Instr(i.opcode, i.b, i.a, i.c) if i.opcode in (Opcode.BEQ, Opcode.BNE)
            else i
            for i in block
        ]
        for block in program.blocks
    ]
    return replace(program, blocks=blocks)


def _agree(a: MachineProgram, b: MachineProgram) -> bool:
    grid = verify._full_grid(a.num_inputs)
    run = lambda p: run_batch(p, grid, collect_transitions=False).returns
    return bool((run(a) == run(b)).all())


@st.composite
def _dense_programs(draw) -> MachineProgram:
    """One block on two inputs of 4-16 ALU and LI words over r0-r3, so
    that words often combine values that share operands, then a RET."""
    ops = [Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.LI]
    words = []
    for _ in range(draw(st.integers(4, 16))):
        op = draw(st.sampled_from(ops))
        a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
        words.append(Instr(op, a, draw(st.sampled_from(_CONSTANTS)))
                     if op is Opcode.LI else Instr(op, a, b, c))
    return MachineProgram("tight8", 2, [words + [Instr(Opcode.RET, 0)]])


@settings(max_examples=80, deadline=None)
@given(st.one_of(_flow_programs(), _flow_programs(arithmetic=True), _dense_programs()))
def test_proof_paths_match_run_batch_on_generated_flow_programs(program):
    _check_paths(program, verify._full_grid(2))
    # swapping commutative operands keeps every normal form
    commuted = _commuted(program)
    report = check_equivalence(program, commuted)
    assert report.proven and _agree(program, commuted)


@settings(max_examples=40, deadline=None)
@given(_bitwise_programs(hidden=(1, 3)), st.integers(0, 2**32 - 1))
def test_proof_paths_match_run_batch_on_generated_bitwise_programs(generated, seed):
    program, _ = generated
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, 256, size=(program.num_inputs, 4096), dtype=np.uint8)
    # half the lanes take the public input from the constants the branch
    # compares it with
    inputs[0, ::2] = rng.choice(_CONSTANTS, size=2048)
    _check_paths(program, inputs)


def _mutations(program: MachineProgram) -> list[MachineProgram]:
    """Every program one of these edits makes: a SUB's operands swapped,
    a BEQ or BNE sent to another later block, an LI's immediate changed,
    a BEQ turned into a BNE or back."""
    out = []
    last = len(program.blocks) - 1
    for bi, block in enumerate(program.blocks):
        for wi, i in enumerate(block):
            edits = []
            if i.opcode is Opcode.SUB and i.b != i.c:
                edits.append(Instr(Opcode.SUB, i.a, i.c, i.b))
            if i.opcode in (Opcode.BEQ, Opcode.BNE):
                flip = Opcode.BNE if i.opcode is Opcode.BEQ else Opcode.BEQ
                edits.append(Instr(flip, i.a, i.b, i.c))
                edits.extend(Instr(i.opcode, i.a, i.b, t) for t in range(bi + 1, last + 1) if t != i.c)
            if i.opcode is Opcode.LI:
                edits.append(Instr(Opcode.LI, i.a, (i.b + 1) & 0xFF))
            for edit in edits:
                blocks = [list(b) for b in program.blocks]
                blocks[bi][wi] = edit
                out.append(replace(program, blocks=blocks))
    return out


# x, y: block 0 is d = x - y; five = li 5; beq x, five, 2.  Block 1
# returns d + 5, block 2 d ^ 5, and block 3, which no run reaches, d | 5.
_MUTANT_BASE = MachineProgram("tight8", 2, [
    [Instr(Opcode.SUB, 2, 0, 1), Instr(Opcode.LI, 3, 5), Instr(Opcode.BEQ, 0, 3, 2)],
    [Instr(Opcode.ADD, 4, 2, 3), Instr(Opcode.RET, 4)],
    [Instr(Opcode.XOR, 4, 2, 3), Instr(Opcode.RET, 4)],
    [Instr(Opcode.OR, 4, 2, 3), Instr(Opcode.RET, 4)],
])


def test_mutations_are_never_proven_and_the_fallback_finds_them():
    mutants = _mutations(_MUTANT_BASE)
    # a SUB swap, a BNE, two retargets (to 1 and to 3) and an LI immediate
    assert len(mutants) == 5
    for mutant in mutants:
        report = check_equivalence(_MUTANT_BASE, mutant)
        assert not report.proven and not report.ok
        assert report.pairs_tested == 65536
        witness, ra, rb = report.mismatch
        lane = np.array(witness, dtype=np.uint8)[:, None]
        assert run_batch(_MUTANT_BASE, lane).returns[0] == ra != rb
        assert run_batch(mutant, lane).returns[0] == rb
    assert check_equivalence(_MUTANT_BASE, _MUTANT_BASE).proven


@settings(max_examples=60, deadline=None)
@given(_flow_programs(arithmetic=True), st.data())
def test_mutated_generated_programs_are_proven_only_when_equal(program, data):
    mutants = _mutations(program)
    assume(mutants)
    mutant = data.draw(st.sampled_from(mutants))
    report = check_equivalence(program, mutant)
    equal = _agree(program, mutant)
    assert report.ok == equal  # two inputs: the fallback is exhaustive
    if report.proven:
        assert equal


def _diamonds(count: int, last: int = 13) -> MachineProgram:
    """x, y: `count` diamonds in a row, the i-th `beq x, c_i` around an
    arm that adds y to an accumulator, with `c_i` = i except the last,
    `last`.  The conditions x - c_i are distinct, so the walk forks at
    each: 2**count paths, of which at most count + 1 run."""
    blocks = []
    for i in range(count):
        constant = last if i == count - 1 else i
        blocks.append([Instr(Opcode.LI, 3, constant), Instr(Opcode.BEQ, 0, 3, 2 * i + 2)])
        blocks.append([Instr(Opcode.ADD, 2, 2, 1)])
    blocks.append([Instr(Opcode.RET, 2)])
    return MachineProgram("tight8", 2, blocks)


def test_path_cap_falls_back_to_run_batch():
    program = _diamonds(14)
    assert 2**14 > verify._PROOF_PATHS
    assert verify._paths(program, verify._Terms()) is None
    report = check_equivalence(program, program)
    assert report.ok and not report.proven
    assert report.pairs_tested == 65536
    mutant = _diamonds(14, last=200)
    report = check_equivalence(program, mutant)
    assert not report.proven
    witness, ra, rb = report.mismatch
    assert witness[0] in (13, 200) and ra != rb
    # below the cap the same shape is proven
    small = _diamonds(8)
    assert len(verify._paths(small, verify._Terms())) == 2**8 <= verify._PROOF_PATHS
    assert check_equivalence(small, small).proven


def test_node_cap_falls_back_to_run_batch(monkeypatch):
    a, b = _MUTANT_BASE, _commuted(_MUTANT_BASE)
    assert check_equivalence(a, b).proven
    monkeypatch.setattr(verify, "_reference", None)
    monkeypatch.setattr(verify, "_PROOF_NODES", 3)
    assert verify._paths(a, verify._Terms()) is None
    report = check_equivalence(a, b)
    assert report.ok and not report.proven
    assert report.pairs_tested == 65536


def _cache_steps(case: str) -> list:
    """Calls of `check_equivalence` as (a, b, seed), and None for a reset
    of the variant-0 cache."""
    if case == "two seeds":
        a, b = _and_or_xor(3)
        # (a ^ b) & c differs from a ^ b ^ c on some sampled inputs
        c = MachineProgram("tight8", 3, [[
            Instr(Opcode.XOR, 7, 1, 0), Instr(Opcode.AND, 7, 7, 2), Instr(Opcode.RET, 7),
        ]])
        return [(a, v, seed) for seed in (0, 1) for v in (b, _commuted(a), c)]
    mutant = _mutations(_MUTANT_BASE)[0]
    proven = (_MUTANT_BASE, _commuted(_MUTANT_BASE), 0)
    if case == "fallback after a proof":
        return [proven, (_MUTANT_BASE, mutant, 0), proven, (_MUTANT_BASE, mutant, 0)]
    return [(_MUTANT_BASE, mutant, 0), None, proven, None, (_MUTANT_BASE, mutant, 0)]


@pytest.mark.parametrize("case", ["two seeds", "fallback after a proof", "reset"])
def test_variant_zero_cache_gives_the_reports_of_fresh_calls(case, monkeypatch):
    steps = _cache_steps(case)
    fresh = []
    for step in steps:
        monkeypatch.setattr(verify, "_reference", None)
        fresh.append(None if step is None else check_equivalence(step[0], step[1], seed=step[2]))
    monkeypatch.setattr(verify, "_reference", None)
    walks = []
    monkeypatch.setattr(verify, "_paths", lambda p, t: walks.append(p) or _paths(p, t))
    kept = []
    for step in steps:
        if step is None:
            monkeypatch.setattr(verify, "_reference", None)
        kept.append(None if step is None else check_equivalence(step[0], step[1], seed=step[2]))
    assert kept == fresh
    # variant 0 is walked once, and again only after a reset
    assert walks.count(steps[0][0]) == 1 + steps.count(None)
