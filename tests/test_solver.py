from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import (
    _active_configs,
    _assemble,
    _compact_schedules,
    _location_assignments,
    brute_optimal,
)
from conftest import corpus_naive_pool, first_solution, load, secret_region
from test_verify import _bit_test_functions
from secdiv import copmodel, solver
from secdiv.copmodel import (
    Mode,
    _build_value_model,
    build_problem,
    build_value_model,
    check_solution,
    make_solution,
    resolve_roots,
    to_schedule,
)
from secdiv.machine import TIGHT8, encode
from secdiv.mir import parse_function
from secdiv.secanalysis import analyze
from secdiv.solver import (
    PoolReason,
    SolveStatus,
    distance,
    diversify,
    solve_optimal,
)
from secdiv.verify import check_cr


def _problem(name: str, mode: Mode, profile=TIGHT8):
    analyzed = analyze(load(name), profile, mode=mode)
    return build_problem(analyzed)


@pytest.mark.parametrize("mode", [Mode.NONE, Mode.TSC, Mode.PSC])
def test_masked_xor_optimum_matches_bruteforce(mode):
    prob = _problem("masked_xor", mode)
    result = solve_optimal(prob, time_budget=60)
    assert result.status is SolveStatus.OPTIMAL
    assert result.solution.objective == brute_optimal(prob)


def test_psc_optimum_not_below_base():
    none = solve_optimal(_problem("masked_xor", Mode.NONE), time_budget=30)
    psc = solve_optimal(_problem("masked_xor", Mode.PSC), time_budget=30)
    assert psc.solution.objective >= none.solution.objective


def test_check_bit_tsc_strictly_costlier():
    none = solve_optimal(_problem("check_bit", Mode.NONE), time_budget=30)
    tsc = solve_optimal(_problem("check_bit", Mode.TSC), time_budget=60)
    assert tsc.solution.objective > none.solution.objective


def test_solver_output_is_checker_clean():
    for name, mode in [
        ("check_bit", Mode.TSC),
        ("masked_chain", Mode.PSC),
        ("two_branches", Mode.TSC),
    ]:
        prob = _problem(name, mode)
        result = solve_optimal(prob, time_budget=60)
        assert result.status is SolveStatus.OPTIMAL
        assert check_solution(result.solution, prob) == []


# a secret arm that holds only an optional copy
COPY_ONLY_ARM = (
    "func f (k:secret, x:public)\n"
    "block 0\n  z = li 0\n  bne k, z, 2\n"
    "block 1\n  opt c = copy x\n"
    "block 2\n  ret x\n"
)


def test_secret_arm_of_optional_copies_balances():
    # block 1 holds only an optional copy: when the copy is off, the block
    # spans 0 cycles, and the balance check counts it so.  That cuts every
    # short pad before its cycles are placed: 13 nodes, now that the
    # analysis costs the copy its 2-cycle slot as the model does (24 when
    # it cost 1, 73 when a pad's NOPs were decided one by one, 504 with
    # the block's span left open up to its horizon).  Every variant's
    # encoding runs the cycles the model balanced, so check_cr holds too
    func = parse_function(COPY_ONLY_ARM)
    prob = build_problem(analyze(func, TIGHT8, mode=Mode.TSC))
    result = solve_optimal(prob, time_budget=30)
    assert (result.status, result.nodes) == (SolveStatus.OPTIMAL, 13)
    assert check_solution(result.solution, prob) == []
    pool = diversify(prob, result.solution, n=20, gap=Fraction(1, 2), time_budget=30, seed=0)
    assert len(pool.solutions) > 1
    for sol in pool.solutions:
        assert check_solution(sol, pool.problem) == []
        program = encode(pool.problem.function, to_schedule(pool.problem, sol), TIGHT8)
        assert check_cr(program, func.inputs).secure


def test_unsat_names_a_family():
    # two stores whose data XOR is the secret and one load back: every
    # bus order puts the hazardous pair adjacent
    text = (
        "func f (k:secret, m:random)\n"
        "block 0\n"
        "  mk = xor k, m\n"
        "  st s1, mk\n"
        "  st s2, m\n"
        "  r = ld s1\n"
        "  ret r\n"
    )
    func = parse_function(text)
    analyzed = analyze(func, TIGHT8, mode=Mode.PSC)
    prob = build_problem(analyzed)
    result = solve_optimal(prob, time_budget=30)
    assert result.status is SolveStatus.UNSAT
    assert result.failing_family == "mre-conflict"


def test_zero_budget_times_out_at_first_deadline_check():
    # share_compare's psc model is unsatisfiable after more than a million
    # nodes, so the search does not end on its own; it stops at node 512,
    # where _tick first reads the clock
    result = solve_optimal(_problem("share_compare", Mode.PSC), time_budget=0)
    assert result.status is SolveStatus.TIMEOUT
    assert result.solution is None
    assert result.nodes == 512


def test_zero_budget_keeps_the_first_incumbent():
    # the first deadline check comes at node 512; this search finds its
    # first leaf before it and runs past it (it ends after 4,576 nodes)
    prob = build_problem(analyze(secret_region(2), TIGHT8, mode=Mode.TSC))
    result = solve_optimal(prob, time_budget=0)
    assert result.status is SolveStatus.TIMEOUT
    assert result.nodes == 512
    assert result.solution is not None
    assert check_solution(result.solution, prob) == []


@pytest.mark.parametrize(
    "n, nodes, digest",
    [(1, 486, "ac42dfd13865591e"), (2, 4576, "961876122e7b7414"), (3, 35391, "05e9d45f90c75696")],
)
def test_secret_region_optimum_is_pinned(n, nodes, digest):
    # every combination of pad lengths is a schedule entry here, so the
    # closed-span nogoods within an entry show in the node counts: without
    # them the search takes 559, 5,072 and 37,637 nodes
    prob = build_problem(analyze(secret_region(n), TIGHT8, mode=Mode.TSC))
    result = solve_optimal(prob, time_budget=60)
    assert (result.status, result.nodes) == (SolveStatus.OPTIMAL, nodes)
    assert _digest([result.solution]) == digest


@pytest.mark.parametrize("entry", ["solve_optimal", "diversify"])
def test_nan_budget_is_rejected(entry):
    # no comparison with NaN holds, so a NaN deadline would never pass
    prob = _problem("check_bit", Mode.TSC)
    best = solve_optimal(prob, time_budget=30).solution
    calls = {
        "solve_optimal": lambda budget: solve_optimal(prob, time_budget=budget),
        "diversify": lambda budget: diversify(prob, best, n=4, time_budget=budget),
    }
    with pytest.raises(ValueError, match="NaN"):
        calls[entry](float("nan"))


@pytest.mark.parametrize("dthresh", [0, -1])
@pytest.mark.parametrize("entry", ["diversify"])
def test_dthresh_below_one_is_rejected(entry, dthresh, monkeypatch):
    # every solution lies at distance 0 or more from a blocked one, so a
    # dthresh below 1 blocks nothing and a pool repeats its solutions;
    # with _Search gone, the error can only come before any search
    prob = _problem("minimal", Mode.NONE)
    best = solve_optimal(prob, time_budget=30).solution
    monkeypatch.setattr(solver, "_Search", None)
    with pytest.raises(ValueError, match="dthresh"):
        diversify(prob, best, n=5, gap=Fraction(1), dthresh=dthresh)


@pytest.mark.parametrize(
    "n, gap, match",
    [(4, Fraction(-1, 10), "gap"), (4, Fraction(-1), "gap"), (0, Fraction(1, 10), "n must"),
     (-1, Fraction(1, 10), "n must")],
)
def test_pool_arguments_out_of_range_are_rejected(n, gap, match, monkeypatch):
    # a negative gap bounds the objective below variant 0's own, so
    # variant 0 fails its pool's problem; an n below 1 would still give a
    # pool of one; with _Search gone, the error can only come before any
    # search
    prob = _problem("check_bit", Mode.TSC)
    best = solve_optimal(prob, time_budget=30).solution
    monkeypatch.setattr(solver, "_Search", None)
    with pytest.raises(ValueError, match=match):
        diversify(prob, best, n=n, gap=gap)


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------


def test_distance_zero_on_self():
    prob = _problem("masked_xor", Mode.NONE)
    sol = solve_optimal(prob, time_budget=10).solution
    assert distance(sol, sol) == 0


def test_distance_single_difference():
    prob = _problem("straightline", Mode.NONE)
    sol = solve_optimal(prob, time_budget=10).solution
    values = sol.as_dict()
    current = values[("reg", "z")]
    values[("reg", "z")] = current + 1 if current + 1 < 8 else current - 1
    from secdiv.copmodel import make_solution

    other = make_solution(prob, values)
    assert distance(sol, other) == 1


def test_distance_mismatched_problems_rejected():
    a = solve_optimal(_problem("masked_xor", Mode.NONE), time_budget=10).solution
    b = solve_optimal(_problem("straightline", Mode.NONE), time_budget=10).solution
    with pytest.raises(ValueError, match="different problems"):
        distance(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_distance_symmetry(seed_a, seed_b):
    prob = _problem("masked_xor", Mode.NONE)
    best = solve_optimal(prob, time_budget=10).solution
    sa = first_solution(prob, [best], seed=seed_a, time_budget=10).solution
    sb = first_solution(prob, [best], seed=seed_b, time_budget=10).solution
    assert distance(sa, sb) == distance(sb, sa)
    assert distance(sa, sb) >= 0


# ----------------------------------------------------------------------
# diversification
# ----------------------------------------------------------------------


def test_psc_pool_keeps_values_of_two_arms_in_one_register():
    # a ^ m and c ^ a leak k, but a and c sit in different arms and are
    # never adjacent in a register: the allocation prune must not refuse
    # them one register (3 of the 12 optimal assignments do that)
    func = parse_function(
        "func d (p:public, k:secret, m:random)\n"
        "block 0\n  bne p, m, 2\n"
        "block 1\n  a = xor k, m\n  ret a\n"
        "block 2\n  c = mov m\n  ret c\n"
    )
    four = replace(TIGHT8, name="four", num_registers=4)
    analyzed = analyze(func, four, mode=Mode.PSC)
    prob = build_problem(analyzed)
    best = solve_optimal(prob, time_budget=10).solution
    pool = diversify(prob, best, n=1000, gap=Fraction(0), time_budget=60)
    assert pool.reason is PoolReason.EXHAUSTED

    def core(sol):
        # instruction alternatives and operand swaps are fixed by the oracle
        return tuple((k, v) for k, v in sol.assignment if k[0] in ("active", "cycle", "reg"))

    optimal = set()
    for active in _active_configs(prob):
        roots = resolve_roots(prob, active)
        for cycles in _compact_schedules(prob, active, roots):
            for loc in _location_assignments(prob, active, roots):
                sol = make_solution(prob, _assemble(prob, active, cycles, loc, roots))
                if sol.objective == best.objective and not check_solution(sol, prob):
                    optimal.add(core(sol))
    assert len(optimal) == 12
    assert optimal <= {core(sol) for sol in pool.solutions}


def test_two_solution_problem_exhausts():
    # a lone return costs one cycle, so the 100% gap bound of two cycles
    # admits it only at cycles 0 and 1: a 200-variant request stops at 2
    func = load("minimal")
    analyzed = analyze(func, TIGHT8)
    prob = build_problem(analyzed)
    best = solve_optimal(prob, time_budget=10).solution
    pool = diversify(prob, best, n=200, gap=Fraction(1), time_budget=30, seed=0)
    assert len(pool.solutions) == 2
    assert pool.reason is PoolReason.EXHAUSTED


def test_zero_budget_pool_is_best_alone():
    prob = _problem("long_arm", Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    pool = diversify(prob, best, n=10, gap=Fraction(1, 10), time_budget=0, seed=0)
    assert pool.solutions == [best]
    assert pool.reason is PoolReason.TIMEOUT


def test_pool_contains_best_first():
    prob = _problem("masked_xor", Mode.PSC)
    best = solve_optimal(prob, time_budget=10).solution
    pool = diversify(prob, best, n=5, gap=Fraction(1, 10), time_budget=30, seed=2)
    assert pool.solutions[0] == best


def test_pool_respects_gap_bound_and_distance():
    prob = _problem("check_bit", Mode.TSC)
    best = solve_optimal(prob, time_budget=30).solution
    pool = diversify(prob, best, n=12, gap=Fraction(1, 10), dthresh=2, time_budget=60, seed=1)
    bound = (1 + Fraction(1, 10)) * best.objective
    for sol in pool.solutions:
        assert sol.objective <= bound
        assert check_solution(sol, pool.problem) == []
    for i, a in enumerate(pool.solutions):
        for b in pool.solutions[i + 1 :]:
            assert distance(a, b) >= 2


def test_wider_gap_no_smaller_pool():
    prob = _problem("masked_xor", Mode.PSC)
    best = solve_optimal(prob, time_budget=10).solution
    tight = diversify(prob, best, n=40, gap=Fraction(0), time_budget=60, seed=3)
    wide = diversify(prob, best, n=40, gap=Fraction(1, 10), time_budget=60, seed=3)
    assert len(wide.solutions) >= len(tight.solutions)


def test_diversify_reproducible():
    prob = _problem("masked_xor", Mode.PSC)
    best = solve_optimal(prob, time_budget=10).solution
    p1 = diversify(prob, best, n=8, gap=Fraction(1, 10), time_budget=30, seed=9)
    p2 = diversify(prob, best, n=8, gap=Fraction(1, 10), time_budget=30, seed=9)
    assert [s.assignment for s in p1.solutions] == [s.assignment for s in p2.solutions]


def test_different_seeds_different_streams():
    prob = _problem("masked_xor", Mode.PSC)
    best = solve_optimal(prob, time_budget=10).solution
    p1 = diversify(prob, best, n=8, gap=Fraction(1, 10), time_budget=30, seed=1)
    p2 = diversify(prob, best, n=8, gap=Fraction(1, 10), time_budget=30, seed=2)
    assert [s.assignment for s in p1.solutions[1:]] != [s.assignment for s in p2.solutions[1:]]


# ----------------------------------------------------------------------
# security-unaware baseline
# ----------------------------------------------------------------------


def test_naive_single_variant_is_base():
    pool = corpus_naive_pool("check_bit", 1, seed=0)
    assert len(pool.solutions) == 1
    base = solve_optimal(_problem("check_bit", Mode.TSC), time_budget=30).solution
    assert pool.solutions[0].assignment == base.assignment


def test_naive_variants_distinct():
    pool = corpus_naive_pool("masked_xor", 12, seed=4)
    assert len(pool.solutions) == 12
    seen = {s.assignment for s in pool.solutions}
    assert len(seen) == 12


def test_naive_reproducible():
    p1 = corpus_naive_pool("masked_xor", 6, seed=5)
    p2 = corpus_naive_pool("masked_xor", 6, seed=5)
    assert [s.assignment for s in p1.solutions] == [s.assignment for s in p2.solutions]


# fractional block weights, given to the analyzed function's blocks in turn
_WEIGHTS = (Fraction(1, 3), Fraction(5, 2), Fraction(7, 4), Fraction(2, 9))


def _fractional_problem(name: str, mode: Mode):
    analyzed = analyze(load(name), TIGHT8, mode=mode)
    for i, block in enumerate(analyzed.function.blocks):
        block.weight = _WEIGHTS[i % len(_WEIGHTS)]
    return build_problem(analyzed)


def _digest(solutions) -> str:
    return hashlib.sha256(repr([s.assignment for s in solutions]).encode()).hexdigest()[:16]


# solve_optimal (status, nodes, objective, digest), the n=6 pools at gaps
# 0 and 25% (reason, size, digest), and the nodes of one first-solution
# search at gap 25% away from the optimum, which count the bound's
# prunings.  The optimum row was pinned from a search that summed the
# objective in Fractions.  The pool rows hold the bound exact, at
# (1 + gap) times the optimum; a search handed that bound as a Fraction
# gives the same rows.  A bound floored to an int lay below the
# fractional optimum at gap 0, which left those pools with the optimum
# alone.  The long_arm tsc row was pinned again when balancing gave it one
# NOP block instead of two, and every optimum's nodes when solve_optimal
# became one search whose count covers the whole solve.  Every node count
# was pinned again, lower, when the search stopped visiting subtrees that
# hold no leaf; every status, objective and digest stayed.
_FRACTIONAL_GOLDEN = {
    ("two_branches", "tsc"): ("optimal", 92, "1525/36", "a5f56186fa59cb7f",
                              ("complete", 6, "b9d358d83bca3351"), ("complete", 6, "1060605120070306"), 44),
    ("two_branches", "none"): ("optimal", 22, "239/12", "5b7b2b781dd10661",
                               ("complete", 6, "60e2c80ecda96150"), ("complete", 6, "83636e7e843cee9a"), 22),
    ("long_arm", "tsc"): ("optimal", 51, "1025/36", "0d0b9e6da2ab8187",
                          ("complete", 6, "8bb053e900ddc659"), ("complete", 6, "7b98a249baceb305"), 40),
    ("long_arm", "none"): ("optimal", 22, "62/3", "faf28f09fa49a5fb",
                           ("complete", 6, "4df6ee96d2f0a0c7"), ("complete", 6, "fd4d353fad99e09c"), 22),
    ("check_bit", "tsc"): ("optimal", 32, "74/3", "afa05da1ac3bcf47",
                           ("complete", 6, "d7ee18177bab034f"), ("complete", 6, "9da0b831314c147d"), 23),
    ("check_bit", "none"): ("optimal", 15, "59/4", "601fa9676cb94481",
                            ("complete", 6, "0845628de506999f"), ("complete", 6, "e6e0a50e35f4e6d4"), 15),
}


@pytest.mark.parametrize("name, mode", sorted(_FRACTIONAL_GOLDEN))
def test_fractional_weights_reproduce_pinned_search(name, mode):
    prob = _fractional_problem(name, Mode(mode))
    result = solve_optimal(prob, time_budget=60)
    row = [result.status.value, result.nodes, str(result.solution.objective), _digest([result.solution])]
    for gap in (0, 25):
        pool = diversify(prob, result.solution, 6, gap=Fraction(gap, 100), time_budget=60)
        row.append((pool.reason.value, len(pool.solutions), _digest(pool.solutions)))
    row.append(first_solution(pool.problem, [result.solution], seed=1).nodes)
    assert tuple(row) == _FRACTIONAL_GOLDEN[(name, mode)]


@pytest.mark.parametrize("name", ["two_branches", "long_arm", "check_bit"])
def test_fractional_weights_search_respects_bound(name):
    prob = _fractional_problem(name, Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    for gap in (0, 10, 25):
        pool = diversify(prob, best, 6, gap=Fraction(gap, 100), time_budget=60)
        # variant 0 is the optimum itself, which every bound must admit;
        # every later one came from the search
        assert not check_solution(pool.solutions[0], pool.problem)
        for sol in pool.solutions[1:]:
            assert sol.objective <= pool.problem.opt_bound
            assert not check_solution(sol, pool.problem)


# the tsc_pool jobs at n=8 and seed 0: the pool (reason, size, digest), and
# the nodes of first_solution(pool.problem, pool.solutions[:k], seed=k)
# for k = 1..7.  A search that visits its nodes in another order, or prunes
# another set of them, changes some of these.  The node counts were pinned
# again, lower, when the search stopped visiting subtrees that hold no
# leaf; the pools stayed.
_TSC_POOL_GOLDEN = {
    ("modexp_step", 0): (("complete", 8, "5df05380d675679c"), (58, 67, 115, 66, 67, 105, 117)),
    ("two_branches", 5): (("complete", 8, "91aeaedd7f3089ba"), (59, 37, 60, 59, 36, 107, 89)),
    ("long_arm", 5): (("complete", 8, "9201dd45b237a87f"), (40, 56, 56, 40, 38, 39, 39)),
}


@pytest.mark.parametrize("name, gap", sorted(_TSC_POOL_GOLDEN))
def test_tsc_pool_jobs_reproduce_pinned_search(name, gap):
    prob = _problem(name, Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    pool = diversify(prob, best, n=8, gap=Fraction(gap, 100), time_budget=60, seed=0)
    nodes = tuple(
        first_solution(pool.problem, pool.solutions[:k], seed=k, time_budget=60).nodes
        for k in range(1, 8)
    )
    row = ((pool.reason.value, len(pool.solutions), _digest(pool.solutions)), nodes)
    assert row == _TSC_POOL_GOLDEN[(name, gap)]


def test_diversify_builds_balance_rows_once():
    # build_problem builds the rows once, and the pool's bounded copy and
    # every search of it read that same tuple
    prob = _problem("modexp_step", Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    pool = diversify(prob, best, n=30, time_budget=60, seed=0)
    assert len(pool.solutions) == 30
    assert len(prob.balance) == sum(len(pset.paths) - 1 for pset in prob.psets) > 0
    assert pool.problem.balance is prob.balance


def test_memoized_value_models_equal_fresh_builds(monkeypatch):
    # every model the search and the checker ask for while growing the
    # pool, a memo hit or not, equals a build that bypasses the memo
    prob = _problem("two_branches", Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    requested = []

    def compared(prob, active, cycle):
        model = build_value_model(prob, active, cycle)
        fresh = _build_value_model(prob, active, cycle, resolve_roots(prob, active))
        for f in dataclasses.fields(model):
            assert getattr(model, f.name) == getattr(fresh, f.name), f.name
        requested.append(model)
        return model

    monkeypatch.setattr(solver, "build_value_model", compared)
    monkeypatch.setattr(copmodel, "build_value_model", compared)
    before = dict(prob.value_models)
    pool = diversify(prob, best, n=8, gap=Fraction(5, 100), time_budget=60, seed=0)
    assert len(pool.solutions) == 8
    # the bounded copy that diversify searches shares the problem's memo,
    # which keeps what solve_optimal built
    memo = pool.problem.value_models
    assert memo is prob.value_models
    # each leaf asks twice, once in the search and once in the checker
    assert len(requested) >= 2 * (len(pool.solutions) - 1)
    assert 0 < len(memo) - len(before) < len(requested)
    kept = {id(m) for m in before.values()}
    assert {id(m) for m in requested} | kept == {id(m) for m in memo.values()}


@pytest.mark.parametrize("name, mode", [("masked_xor", Mode.PSC), ("spill_pair", Mode.NONE)])
def test_leaf_combinations_share_one_objective(name, mode):
    # instruction alternatives and operand swaps change no latency, so
    # every combination the leaf may yield costs the same
    prob = _problem(name, mode)
    search = solver._Search(solver._Plan(prob), seed=3, shuffle=True)
    result = search.run()
    assert result.status is SolveStatus.SAT
    values = result.solution.as_dict()
    solutions = [make_solution(prob, {**values, **combo}) for combo in search._leaf_combos()]
    assert len({sol.assignment for sol in solutions}) > 1
    assert {sol.objective for sol in solutions} == {result.solution.objective}


@pytest.mark.parametrize("shuffle", [False, True])
def test_value_orders_are_permutations_of_the_domains(shuffle):
    # an unshuffled search draws each domain in its own order
    jobs = [("masked_xor", Mode.PSC), ("check_bit", Mode.TSC), ("spill_pair", Mode.NONE)]
    for name, mode in jobs:
        prob = _problem(name, mode)
        for seed in range(3):
            orders = solver._Search(solver._Plan(prob), seed=seed, shuffle=shuffle).value_order
            assert set(orders) == set(prob.var_order)
            for key, order in orders.items():
                domain = list(prob.domain(key))
                assert sorted(order) == sorted(domain)
                assert shuffle or order == domain


def test_leaf_distance_agrees_with_distance():
    prob = _problem("check_bit", Mode.TSC)
    best = solve_optimal(prob, time_budget=30).solution
    pool = diversify(prob, best, n=12, gap=Fraction(1, 10), time_budget=60, seed=1)
    plan = solver._Plan(pool.problem)
    rng = random.Random(0)
    for _ in range(40):
        a, b = rng.choice(pool.solutions), rng.choice(pool.solutions)
        d = distance(a, b)
        for dthresh in range(max(d - 1, 1), d + 3):
            search = solver._Search(plan, blocked=[plan.values(a)], dthresh=dthresh)
            assert search._too_close(b) == (d < dthresh)
    other = solve_optimal(_problem("straightline", Mode.NONE), time_budget=10).solution
    with pytest.raises(ValueError, match="different problems"):
        plan.values(other)


# ----------------------------------------------------------------------
# the cuts keep every leaf
# ----------------------------------------------------------------------


def _nop_by_nop_lengths(orders) -> list[int]:
    """The pad lengths in the order a search visits them when it decides
    one NOP at a time, in each NOP's value order, and lets NOP i on only
    after NOP i-1."""
    visited = []

    def visit(i: int, on: int) -> None:
        if i == len(orders):
            visited.append(on)
            return
        for value in orders[i]:
            if value and on < i:
                continue
            visit(i + 1, on + value)

    visit(0, 0)
    return visited


@pytest.mark.parametrize("m", range(7))
def test_pad_lengths_follow_nop_by_nop_order(m):
    for firsts in itertools.product([False, True], repeat=m):
        orders = [[first, not first] for first in firsts]
        assert solver._pad_lengths(orders) == _nop_by_nop_lengths(orders)


# modexp_step tsc pools at gap 10% and n=20 (reason, size, digest), pinned
# before the search cut its leafless subtrees; their search time has a
# heavy tail over seeds (perfbench/workloads.py)
_HEAVY_TAIL_GOLDEN = {
    0: ("complete", 20, "023a2df5085cfadb"),
    1: ("complete", 20, "1edceac35fd37fc0"),
    2: ("complete", 20, "3b1c837a6883507f"),
}


@pytest.mark.parametrize("seed", sorted(_HEAVY_TAIL_GOLDEN))
def test_heavy_tail_pools_reproduce_pinned_digests(seed):
    prob = _problem("modexp_step", Mode.TSC)
    best = solve_optimal(prob, time_budget=60).solution
    pool = diversify(prob, best, n=20, gap=Fraction(1, 10), time_budget=60, seed=seed)
    row = (pool.reason.value, len(pool.solutions), _digest(pool.solutions))
    assert row == _HEAVY_TAIL_GOLDEN[seed]


class _Uncut(solver._Search):
    """The search without its four cuts: one NOP at a time, each after the
    one before it; the bounds tested only on whole structures; an open
    block's end bounded by its placed ops alone (the length of its busy
    mask) and its span's lower bound; and no nogoods.  It stops with
    TIMEOUT past `limit` nodes."""

    limit = 50_000

    def _tick(self):
        super()._tick()
        if self.nodes > self.limit:
            raise solver._Timeout()

    def _assign_structural(self, k):
        self._tick()
        plan = self.plan
        if k == len(plan.active_vars):
            self.lb_span = list(plan.lb_span)
            for idx in self.on:
                self.lb_span[self.prob.op_block[idx]] += self.prob.latency[idx]
            self.ub_span = [plan.span_upper(b, lb, 0) for b, lb in enumerate(self.lb_span)]
            weights, edges = self.prob.scaled_weights, self.prob.edge_overhead
            self.objective = sum(w * (lb + e) for w, lb, e in zip(weights, self.lb_span, edges))
            if self._bounds_ok(self.lb_span, self.ub_span, self.objective):
                yield from self._enter_schedule()
            return
        idx = plan.active_vars[k]
        nops = plan.prob.nop_blocks.get(plan.prob.op_block[idx], (idx,))
        pos = nops.index(idx)
        for value in self.value_order[("active", idx)]:
            if value:
                if pos and nops[pos - 1] not in self.on:
                    continue
                self.on.add(idx)
            yield from self._assign_structural(k + 1)
            self.on.discard(idx)

    def _open_end(self, block, rest):
        return max(self.busy[block].bit_length(), self.lb_span[block])

    def _close_block(self, k, block):
        yield from self._assign_cycles(k + 1)


@settings(max_examples=15, deadline=None)
@given(_bit_test_functions(), st.sampled_from([Mode.NONE, Mode.TSC]))
def test_cuts_keep_every_solution(text, mode):
    """solve_optimal and a first-solution search return what the uncut
    search returns.
    The uncut search of some 5-block tsc shapes takes over a million nodes
    (4,285 with the cuts), so an example whose uncut search passes
    `_Uncut.limit` nodes is skipped."""
    prob = build_problem(analyze(parse_function(text), TIGHT8, mode=mode))
    result = solve_optimal(prob)
    uncut = _Uncut(solver._Plan(prob)).run()
    assume(uncut.status is not SolveStatus.TIMEOUT)
    assert (result.status, result.solution) == (uncut.status, uncut.solution)
    assert result.nodes <= uncut.nodes
    bounded = replace(prob, opt_bound=Fraction(11, 10) * result.solution.objective)
    plan = solver._Plan(bounded)
    for seed in range(4):
        one = first_solution(bounded, [result.solution], seed=seed)
        uncut = _Uncut(plan, seed=seed, shuffle=True, blocked=[plan.values(result.solution)]).run()
        assume(uncut.status is not SolveStatus.TIMEOUT)
        assert (one.status, one.solution) == (uncut.status, uncut.solution)
        assert one.nodes <= uncut.nodes
