from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from conftest import FOUR_SECRETS, corpus_naive_pool, load
from scalar_machine import run
from secdiv.copmodel import Mode, build_problem, to_schedule
from secdiv.machine import TIGHT8, Instr, MachineProgram, Schedule, encode, run_batch
from secdiv.mir import Opcode, SecurityLabel, parse_function
from secdiv.secanalysis import analyze
from secdiv.solver import diversify, solve_optimal
from secdiv.verify import (
    PUBLIC_PROBES,
    _hidden_chunks,
    check_cr,
    check_equivalence,
    check_psc,
    static_path_cost,
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
    assert report.ok
    assert report.pairs_tested == 1000  # 3 inputs -> seeded samples


def test_two_input_program_exhaustive():
    _, _, _, program = _compile("check_bit", Mode.TSC)
    report = check_equivalence(program, program)
    assert report.ok
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
    mutated.blocks = [list(b) for b in words]
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


def test_tsc_variant_constant_resource():
    analyzed, _, _, program = _compile("check_bit", Mode.TSC)
    report = check_cr(program, analyzed.function.inputs, analyzed.psets)
    assert report.secure
    assert len(report.per_public) == len(PUBLIC_PROBES)
    for _, bcet, wcet in report.per_public:
        assert bcet == wcet


def test_unbalanced_original_flagged():
    func = load("check_bit")
    analyzed = analyze(func, TIGHT8)  # no balancing
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
    report = check_cr(program, func.inputs, analyzed.psets)
    assert not report.secure
    (_, costs), = report.path_costs
    assert len(set(costs.values())) == 2  # the taken arm runs longer


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
    report = check_cr(program, func.inputs, [])
    assert report.secure
    assert report.path_costs == []


def test_static_path_cost_matches_simulator():
    analyzed, prob, sol, program = _compile("check_bit", Mode.TSC)
    for pub, key, path in [(1, 1, (0, 1, 3)), (1, 2, (0, 2, 3))]:
        trace = run(program, [pub, key])
        assert tuple(trace.path) == path
        assert static_path_cost(program, path) == trace.total_cycles


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


def test_enumeration_budget_exceeded_incomplete():
    func = parse_function(
        "func f (a:secret, b:secret, c:random, d:random)\n"
        "block 0\n"
        "  x = xor a, c\n"
        "  y = xor b, d\n"
        "  r = xor x, y\n"
        "  ret r\n"
    )
    analyzed = analyze(func, TIGHT8)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(func, to_schedule(prob, sol), TIGHT8)
    report = check_psc(program, func.inputs)
    assert report.incomplete
    assert not report.secure
    assert "exceed" in report.reason


def test_psc_agrees_with_typing_on_corpus():
    """Register transitions between a RANDOM-typed def and the PUBLIC
    value it overwrites must be independent."""
    analyzed, prob, sol, program = _compile("masked_xor", Mode.PSC)
    report = check_psc(program, analyzed.function.inputs)
    assert report.secure  # mk and t are RANDOM-typed and the oracle agrees


def test_cr_budget_exceeded_incomplete():
    analyzed = analyze(parse_function(FOUR_SECRETS), TIGHT8, mode=Mode.TSC)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
    start = time.process_time()
    report = check_cr(program, analyzed.function.inputs, analyzed.psets)
    assert time.process_time() - start < 1.0
    assert report.incomplete
    assert not report.secure
    assert report.reason == "4 secret/random inputs exceed the exhaustive enumeration budget (3)"


def test_naive_pool_produces_cr_violations():
    pool = corpus_naive_pool("check_bit", 25, seed=0)
    analyzed = analyze(pool.problem.function, TIGHT8)
    bad = 0
    for sol in pool.solutions:
        program = encode(pool.problem.function, to_schedule(pool.problem, sol), TIGHT8)
        report = check_cr(program, pool.problem.function.inputs, analyzed.psets)
        bad += not report.secure
    assert bad > 0


def _secret_dists(program, policy, public):
    """(secret, {site: distribution}) for every secret value in order, at
    one assignment of the public inputs.

    With a random input, one run_batch call per secret gives the
    histograms.  Without one, a secret is a single lane and its
    distribution is the one transition value of each site it executes;
    one call covers the 256 secrets that differ in the last secret input,
    a group of one lane each, so that 2**16 secrets take 256 calls."""
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
        hists = run_batch(program, inputs, groups=len(secrets)).transitions
        if random_idx:
            yield secrets[0], {site: hist.tobytes() for site, hist in hists.items()}
            continue
        dists = [{} for _ in secrets]
        for site, hist in hists.items():
            ran = hist.any(axis=1).tolist()
            values = hist.argmax(axis=1).tolist()
            for dist, executed, value in zip(dists, ran, values):
                if executed:
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
