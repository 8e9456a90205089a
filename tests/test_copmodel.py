from __future__ import annotations

import dataclasses
import functools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_naive_pool, load
from scalar_machine import run
from secdiv.copmodel import (
    ZERO,
    Mode,
    ModelInfeasibleError,
    Solution,
    _build_value_model,
    _check_transitions,
    build_problem,
    build_value_model,
    check_solution,
    emit_model,
    hazard,
    make_solution,
    resolve_roots,
    to_schedule,
)
from secdiv.machine import TIGHT8, WIDE32, encode
from secdiv.mir import FunctionIR, Opcode, SecurityLabel, parse_function, paths
from secdiv.secanalysis import analyze
from secdiv import copmodel, solver
from conftest import all_corpus_names
from test_secanalysis import _graph, dag_edges
from test_solver import _WEIGHTS


def _problem(name: str, mode: Mode, profile=TIGHT8):
    analyzed = analyze(load(name), profile, mode=mode)
    return build_problem(analyzed)


def test_mode_none_has_no_security_constraints():
    prob = _problem("masked_xor", Mode.NONE)
    assert prob.psets == []
    assert not prob.pairs.rpairs and not prob.pairs.hazard_temps


def test_mode_psc_attaches_pairs():
    prob = _problem("masked_xor", Mode.PSC)
    assert ("mask", "mk") in prob.pairs.rpairs


def test_mode_tsc_attaches_balance():
    prob = _problem("check_bit", Mode.TSC)
    (pset,) = prob.psets
    assert pset.paths == ((0, 1, 3), (0, 2, 3))


def test_inputs_pinned_to_argument_registers():
    prob = _problem("masked_xor", Mode.NONE)
    assert prob.reg_domain["pub"] == (0,)
    assert prob.reg_domain["key"] == (1,)
    assert prob.reg_domain["mask"] == (2,)
    # a copy destination may also live in a spill slot
    assert max(prob.reg_domain["mkc"]) >= TIGHT8.num_registers
    assert max(prob.reg_domain["mk"]) < TIGHT8.num_registers


def test_too_many_inputs_is_infeasible_by_construction():
    args = ", ".join(f"x{i}:public" for i in range(9))
    func = parse_function(f"func f ({args})\nblock 0\n  ret x0\n")
    analyzed = analyze(func, TIGHT8)
    with pytest.raises(ModelInfeasibleError, match="inputs exceed"):
        build_problem(analyzed)


def test_register_pressure_infeasible_by_construction():
    # 17 values all live at the ret exceed 8 registers + 8 slots
    lines = ["func f (x:public)", "block 0"]
    for i in range(16):
        lines.append(f"  t{i} = li {i}")
    acc = "x"
    for i in range(16):
        lines.append(f"  s{i} = add {acc}, t{i}")
        acc = f"s{i}"
    lines.append(f"  ret {acc}")
    func = parse_function("\n".join(lines) + "\n")
    analyzed = analyze(func, TIGHT8)
    with pytest.raises(ModelInfeasibleError, match="live values"):
        build_problem(analyzed)


def test_objective_single_block_formula():
    # three unit ops at cycles 0,1,2 plus the return: cost 4
    prob = _problem("straightline", Mode.NONE)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    assert sol.objective == 4
    # recompute through the simulator on the encoded program
    program = encode(prob.function, to_schedule(prob, sol), TIGHT8)
    assert run(program, [1, 2]).total_cycles == 4


def test_objective_weighted_blocks_arithmetic():
    text = (
        "func f (x:public)\n"
        "block 0\n"
        "  a = add x, x\n"
        "  aa = add a, x\n"
        "  ab = add aa, x\n"
        "  b 1\n"
        "block 1 weight 2\n"
        "  c = add ab, x\n"
        "  d = add c, x\n"
        "  e = add d, x\n"
        "  f = add e, x\n"
        "  ret f\n"
    )
    func = parse_function(text)
    analyzed = analyze(func, TIGHT8)
    prob = build_problem(analyzed)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    # block 0 compact: 3 adds + b(3) = 6; block 1: 4 adds + ret = 5
    assert sol.objective == Fraction(6) + 2 * Fraction(5)


def test_objective_secure_at_least_insecure():
    none = solver.solve_optimal(_problem("check_bit", Mode.NONE), time_budget=30)
    tsc = solver.solve_optimal(_problem("check_bit", Mode.TSC), time_budget=60)
    assert tsc.solution.objective >= none.solution.objective


def test_check_solution_accepts_solver_output():
    for name, mode in [("masked_xor", Mode.PSC), ("check_bit", Mode.TSC)]:
        prob = _problem(name, mode)
        sol = solver.solve_optimal(prob, time_budget=60).solution
        assert check_solution(sol, prob) == []


def test_check_solution_flags_dependency():
    prob = _problem("straightline", Mode.NONE)
    sol = solver.solve_optimal(prob, time_budget=10).solution
    values = sol.as_dict()
    # x = add a,b at some cycle; y = xor x,a must follow; break it
    values[("cycle", 0)], values[("cycle", 1)] = (
        values[("cycle", 1)],
        values[("cycle", 0)],
    )
    broken = make_solution(prob, values)
    families = {v.family for v in check_solution(broken, prob)}
    assert "dependency" in families


def test_check_solution_flags_interference():
    prob = _problem("straightline", Mode.NONE)
    sol = solver.solve_optimal(prob, time_budget=10).solution
    values = sol.as_dict()
    values[("reg", "x")] = values[("reg", "a")]  # a is live across x's def
    broken = make_solution(prob, values)
    families = {v.family for v in check_solution(broken, prob)}
    assert "interference" in families


def test_check_solution_flags_rot_conflict():
    # reconstruct the insecure assignment: mk over mask's register
    prob = _problem("masked_xor", Mode.PSC)
    sol = solver.solve_optimal(prob, time_budget=10).solution
    values = sol.as_dict()
    values[("reg", "mk")] = 2
    values[("reg", "mkc")] = 2
    broken = make_solution(prob, values)
    families = {v.family for v in check_solution(broken, prob)}
    assert "rot-conflict" in families


def test_check_solution_flags_unbalanced_paths():
    prob = _problem("check_bit", Mode.TSC)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    values = sol.as_dict()
    # deactivate one padding NOP: the taken path gets shorter
    nops = prob.nop_blocks[2]
    actives = [i for i in nops if values[("active", i)]]
    assert actives
    values[("active", actives[-1])] = False
    broken = make_solution(prob, values)
    families = {v.family for v in check_solution(broken, prob)}
    assert "balance" in families


MRE_TEXT = (
    "func f (p:public, k:secret, m:random)\n"
    "block 0\n"
    "  mk = xor k, m\n"
    "  st s1, mk\n"
    "  st s2, m\n"
    "  st s3, p\n"
    "  r = ld s1\n"
    "  ret r\n"
)


def test_solver_separates_hazardous_memory_ops():
    func = parse_function(MRE_TEXT)
    analyzed = analyze(func, TIGHT8, mode=Mode.PSC)
    prob = build_problem(analyzed)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    assert sol is not None
    assert check_solution(sol, prob) == []
    # the store of m and the accesses moving mk may never be bus-adjacent:
    # the public store must sit between them
    values = sol.as_dict()
    mem = sorted(
        (values[("cycle", op.index)], op.uses[0])
        for op in prob.ops
        if op.opcode.value in ("st", "ld")
    )
    order = [slot for _, slot in mem]
    s2 = order.index("s2")
    for neighbor in (s2 - 1, s2 + 1):
        if 0 <= neighbor < len(order):
            assert order[neighbor] not in ("s1",)


def test_check_solution_flags_mre_conflict():
    func = parse_function(MRE_TEXT)
    analyzed = analyze(func, TIGHT8, mode=Mode.PSC)
    prob = build_problem(analyzed)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    values = sol.as_dict()
    ops = {op.uses[0]: op.index for op in prob.ops if op.opcode.value == "st"}
    ld = next(op.index for op in prob.ops if op.opcode.value == "ld")
    ret = next(op.index for op in prob.ops if op.opcode.value == "ret")
    mk_cycle = values[("cycle", 0)]
    # force the bus order mk, m, p, mk: the first transition leaks k
    values[("cycle", ops["s1"])] = mk_cycle + 2
    values[("cycle", ops["s2"])] = mk_cycle + 4
    values[("cycle", ops["s3"])] = mk_cycle + 6
    values[("cycle", ld)] = mk_cycle + 8
    values[("cycle", ret)] = mk_cycle + 10
    broken = make_solution(prob, values)
    families = {v.family for v in check_solution(broken, prob)}
    assert "mre-conflict" in families


def test_check_solution_flags_gap_bound():
    prob = _problem("straightline", Mode.NONE)
    best = solver.solve_optimal(prob, time_budget=10).solution
    from dataclasses import replace

    bounded = replace(prob, opt_bound=int(best.objective))
    values = best.as_dict()
    values[("cycle", 3)] = values[("cycle", 3)] + 2  # delay the ret
    worse = make_solution(bounded, values)
    families = {v.family for v in check_solution(worse, bounded)}
    assert "optimality-gap" in families


DOMAIN_TEXT = (
    "func f (a:public, b:public)\n"
    "block 0\n"
    "  x = mov a\n"
    "  y = add x, b\n"
    "  opt yc = copy y\n"
    "  ret yc\n"
)


@pytest.mark.parametrize(
    "kind, opcode, value",
    [("instr", Opcode.MOV, -1), ("instr", Opcode.MOV, 3), ("swap", Opcode.ADD, 2),
     ("swap", Opcode.ADD, "yes"), ("active", Opcode.COPY, 5)],
)
def test_check_solution_flags_values_outside_their_domain(kind, opcode, value):
    # an instr of -1 would lower to the last alternative and one of 3 past
    # the alternatives; an activation or swap is a bool
    prob = build_problem(analyze(parse_function(DOMAIN_TEXT), TIGHT8, mode=Mode.NONE))
    sol = solver.solve_optimal(prob, time_budget=10).solution
    assert check_solution(sol, prob) == []
    values = sol.as_dict()
    values[(kind, next(op.index for op in prob.ops if op.opcode is opcode))] = value
    families = {v.family for v in check_solution(make_solution(prob, values), prob)}
    assert families == {"domain"}


def test_check_solution_flags_objective():
    prob = _problem("straightline", Mode.NONE)
    sol = solver.solve_optimal(prob, time_budget=10).solution
    assert check_solution(sol, prob) == []
    wrong = dataclasses.replace(sol, objective=sol.objective + 1)
    families = {v.family for v in check_solution(wrong, prob)}
    assert families == {"objective"}


@pytest.mark.parametrize(
    "kind, value", [("instr", False), ("cycle", False), ("reg", True), ("swap", 0), ("active", 0)]
)
def test_check_solution_flags_values_of_the_wrong_type(kind, value):
    # each value equals one of its domain (False == 0, True == 1), so only
    # its type puts it outside: an activation or swap is a bool, an
    # instruction, cycle or location an int
    prob = _problem("masked_xor", Mode.PSC)
    sol = solver.solve_optimal(prob, time_budget=10).solution
    key = next(k for k, v in sol.assignment if k[0] == kind and v == value)
    wrong = Solution(
        tuple((k, value if k == key else v) for k, v in sol.assignment), sol.objective
    )
    assert {v.family for v in check_solution(wrong, prob)} == {"domain"}


@functools.cache
def _corpus_pools() -> list:
    """A pool of 4 of each corpus function in each mode that applies to it
    (tsc with a secret branch, psc with a random input), and its naive
    pool."""
    pools = []
    for name in all_corpus_names():
        for mode in Mode:
            func = load(name)
            analyzed = analyze(func, TIGHT8, mode=mode)
            random = any(label is SecurityLabel.RANDOM for _, label in func.inputs)
            if mode is Mode.TSC and not analyzed.psets or mode is Mode.PSC and not random:
                continue
            prob = build_problem(analyzed)
            best = solver.solve_optimal(prob, time_budget=60).solution
            pools.append(solver.diversify(prob, best, n=4, gap=Fraction(1, 20), time_budget=60))
        pools.append(corpus_naive_pool(name, 4))
    return pools


def test_make_solution_is_idempotent_on_the_corpus_pools():
    for pool in _corpus_pools():
        for sol in pool.solutions:
            assert make_solution(pool.problem, sol.as_dict()) == sol


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_symmetry_names_the_keys_off_canonical_form(data):
    """The symmetry family names, in variable order, exactly the keys
    where an assignment differs from its canonical form. The checker
    stops at a domain violation, and a naive variant may hold a cycle
    outside its domain, so the drawn base is one within its domains."""
    pool = data.draw(st.sampled_from(_corpus_pools()))
    prob = pool.problem
    in_domain = [
        s for s in pool.solutions if all(v.family != "domain" for v in check_solution(s, prob))
    ]
    sol = data.draw(st.sampled_from(in_domain))
    values = sol.as_dict()
    for key in data.draw(st.lists(st.sampled_from(prob.var_order), min_size=1, max_size=6)):
        values[key] = data.draw(st.sampled_from(prob.domain(key)))
    perturbed = Solution(tuple((k, values[k]) for k in prob.var_order), sol.objective)
    canonical = make_solution(prob, values).assignment
    expected = [f"non-canonical value for {k}" for k, v in canonical if values[k] != v]
    found = [
        v.message for v in check_solution(perturbed, prob) if v.message.startswith("non-canonical")
    ]
    assert found == expected


def test_balance_constraint_implies_equal_simulated_paths():
    prob = _problem("check_bit", Mode.TSC)
    sol = solver.solve_optimal(prob, time_budget=30).solution
    program = encode(prob.function, to_schedule(prob, sol), TIGHT8)
    cycles = set()
    for pub in (0, 1, 255):
        for key in (0, 1, 255):
            cycles.add(run(program, [pub, key]).total_cycles)
    assert len(cycles) == 1


def test_emit_model_deterministic_and_complete():
    prob = _problem("masked_xor", Mode.PSC)
    dump = emit_model(prob)
    assert dump == emit_model(prob)
    assert "(rot-conflict mask mk)" in dump
    assert "(secret-valued key)" in dump
    prob_tsc = _problem("check_bit", Mode.TSC)
    assert "(balance" in emit_model(prob_tsc)


# ----------------------------------------------------------------------
# power transitions on every path
# ----------------------------------------------------------------------


def _every_path_transitions(prob, active, cycle, loc, roots) -> set:
    """(family, location, prev, value) of each forbidden transition, found
    by walking every path from the entry on its own."""
    func = prob.function
    nregs = prob.num_registers
    found = set()
    for path in paths(func):
        held = {f"r{r}": ZERO for r in range(nregs)}
        held.update({f"r{i}": name for i, name in enumerate(func.input_names())})
        held["bus"] = ZERO
        for b in path:
            ops = [op for op in func.blocks[b].ops if op.index in active]
            for op in sorted(ops, key=lambda o: cycle[o.index]):
                writes = []
                if op.opcode is Opcode.ST:
                    writes.append(("bus", roots[op.uses[1]]))
                elif op.opcode is Opcode.LD:
                    writes.append(("bus", roots[op.defs[0]]))
                elif op.opcode is Opcode.COPY and loc[op.defs[0]] >= nregs:
                    writes.append(("bus", roots[op.uses[0]]))  # spill store
                elif op.opcode is Opcode.COPY and loc[roots[op.uses[0]]] >= nregs:
                    writes.append(("bus", roots[op.defs[0]]))  # reload
                if op.defs and roots[op.defs[0]] == op.defs[0] and loc[op.defs[0]] < nregs:
                    writes.append((f"r{loc[op.defs[0]]}", op.defs[0]))
                for where, value in writes:
                    if hazard(prob, held[where], value):
                        family = "mre-conflict" if where == "bus" else "rot-conflict"
                        found.add((family, where, held[where], value))
                    held[where] = value
    return found


_TRANSITION = re.compile(r"(?:register (r\d+)|memory (bus)) transition (\S+) -> (\S+) at op")


@st.composite
def psc_functions(draw):
    """Valid functions of 3-7 blocks over public, secret and random inputs
    whose blocks xor, copy (optionally), store and load."""
    edges, n = draw(dag_edges())
    bodies = {0: ["  km = xor k, m", "  xk = xor x, k"]}
    fresh = 0
    for i in range(n):
        local = ["x", "k", "m", "km", "xk"]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            a, b = draw(st.sampled_from(local)), draw(st.sampled_from(local))
            slot = draw(st.sampled_from(["s0", "s1"]))
            line = draw(st.sampled_from([
                f"  v{fresh} = xor {a}, {b}",
                f"  opt v{fresh} = copy {a}",
                f"  v{fresh} = ld {slot}",
                f"  st {slot}, {a}",
            ]))
            bodies.setdefault(i, []).append(line)
            if "=" in line:
                local.append(f"v{fresh}")
                fresh += 1
    return _graph(edges, n, "x:public, y:public, k:secret, m:random", bodies)


@settings(max_examples=200, deadline=None)
@given(psc_functions(), st.randoms(use_true_random=False))
def test_transitions_match_every_path_walk(func, rng):
    analyzed = analyze(func, TIGHT8, mode=Mode.PSC)
    prob = build_problem(analyzed)
    active = {op.index for op in prob.ops if not op.optional or rng.random() < 0.5}
    cycle = {op.index: rng.choice(prob.cycle_domain[op.index]) for op in prob.ops}
    # the inputs sit in r0-r3: drawing from those and the spill slots
    # makes values share locations often
    loc = {
        name: rng.choice([r for r in dom if r < 4 or r >= prob.num_registers])
        for name, dom in prob.reg_domain.items()
    }
    roots = resolve_roots(prob, active)
    flagged = set()
    for v in _check_transitions(prob, active, cycle, loc, roots):
        reg, bus, prev, value = _TRANSITION.match(v.message).groups()
        flagged.add((v.family, reg or bus, prev, value))
    assert flagged == _every_path_transitions(prob, active, cycle, loc, roots)


def _diamonds(n: int, cond: str) -> FunctionIR:
    """n diamonds in sequence, each branching on x != cond; one arm masks
    k, the other copies the mask."""
    lines = ["func d (x:public, y:public, k:secret, m:random)"]
    for i in range(n):
        head = 3 * i
        lines += [f"block {head}", f"  bne x, {cond}, {head + 2}"]
        lines += [f"block {head + 1}", f"  a{i} = xor k, m", f"  b {head + 3}"]
        lines += [f"block {head + 2}", f"  c{i} = mov m"]
    lines += [f"block {3 * n}", "  ret x"]
    return parse_function("\n".join(lines) + "\n")


@pytest.mark.parametrize("mode, cond", [(Mode.NONE, "y"), (Mode.TSC, "k"), (Mode.PSC, "y")])
def test_twenty_diamonds_build_fast(mode, cond):
    # 2^20 paths lead from the entry to the return
    start = time.process_time()
    analyzed = analyze(_diamonds(20, cond), TIGHT8, mode=mode)
    build_problem(analyzed)
    assert time.process_time() - start < 1.0
    assert len(analyzed.psets) == (20 if mode is Mode.TSC else 0)


# ----------------------------------------------------------------------
# what build_problem derives once per problem
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", [TIGHT8, WIDE32], ids=lambda p: p.name)
def test_latency_table_matches_the_profile(profile):
    copies = 0
    for name in all_corpus_names():
        for mode in Mode:
            prob = _problem(name, mode, profile)
            assert sorted(prob.latency) == [op.index for op in prob.ops]
            for op in prob.ops:
                if op.opcode is Opcode.COPY:
                    copies += 1
                    assert prob.latency[op.index] == 2
                else:
                    assert prob.latency[op.index] == profile.lat(op.opcode)
    assert copies > 0


def _span_sum(prob, values) -> Fraction:
    """The objective summed in Fractions, block by block."""
    total = Fraction(0)
    for block in prob.function.blocks:
        span = 0
        for op in block.ops:
            if not op.optional or values[("active", op.index)]:
                span = max(span, values[("cycle", op.index)] + prob.latency[op.index])
        term = block.terminator
        if term is not None and term.opcode in (Opcode.BEQ, Opcode.BNE):
            span += prob.profile.taken_branch_overhead
        total += block.weight * span
    return total


_ANY_WEIGHT = st.one_of(
    st.sampled_from(_WEIGHTS),
    st.fractions(min_value=Fraction(1, 97), max_value=50, max_denominator=97),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("two_branches", Mode.TSC), ("long_arm", Mode.TSC), ("masked_xor", Mode.PSC)]),
    st.data(),
)
def test_integer_objective_equals_fraction_sum(job, data):
    name, mode = job
    analyzed = analyze(load(name), TIGHT8, mode=mode)
    for block in analyzed.function.blocks:
        block.weight = data.draw(_ANY_WEIGHT)
    prob = build_problem(analyzed)
    values = {}
    for op in prob.ops:
        if op.optional:
            values[("active", op.index)] = data.draw(st.booleans())
        values[("cycle", op.index)] = data.draw(st.sampled_from(prob.cycle_domain[op.index]))
    for name in sorted(prob.function.temps):
        values[("reg", name)] = data.draw(st.sampled_from(prob.reg_domain[name]))
    objective = make_solution(prob, values).objective
    assert isinstance(objective, Fraction)
    assert objective == _span_sum(prob, values)


def _fields_equal(a, b) -> None:
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_value_model_memo_keys_on_the_cycles():
    prob = _problem("straightline", Mode.NONE)
    active = {op.index for op in prob.ops}
    compact = {}
    clock = 0
    for op in prob.ops:
        compact[op.index] = clock
        clock += prob.latency[op.index]
    # the same ops, each issued one cycle later
    later = {idx: c + 1 for idx, c in compact.items()}
    first = build_value_model(prob, active, compact)
    second = build_value_model(prob, active, later)
    assert first != second
    assert first.def_point != second.def_point
    for cycle, model in ((compact, first), (later, second)):
        _fields_equal(model, _build_value_model(prob, active, cycle, resolve_roots(prob, active)))
        assert build_value_model(prob, active, dict(cycle)) is model
    assert len(prob.value_models) == 2


def test_value_model_memo_belongs_to_one_problem():
    prob = _problem("two_branches", Mode.TSC)
    solver.solve_optimal(prob, time_budget=30)
    assert len(prob.value_models) > 1
    # a fresh problem's memo holds only the model of its infeasibility check
    other = _problem("check_bit", Mode.TSC)
    assert len(other.value_models) == 1 and other.value_models is not prob.value_models
    # a plain bounded copy starts empty; diversify hands the copy it
    # searches the memo of the problem it copies
    bounded = dataclasses.replace(prob, opt_bound=Fraction(100))
    assert bounded.value_models == {} and prob.value_models
    assert "value_models" not in repr(prob)


def _record_value_model_builds(monkeypatch) -> list[tuple]:
    """The key of every value model built from now on, in build order."""
    built = []
    real = copmodel._build_value_model

    def record(prob, active, cycle, roots):
        built.append(tuple(cycle[op.index] if op.index in active else None for op in prob.ops))
        return real(prob, active, cycle, roots)

    monkeypatch.setattr(copmodel, "_build_value_model", record)
    return built


def test_no_value_model_is_built_twice_for_one_problem(monkeypatch):
    """build_problem's infeasibility check, solve_optimal and diversify's
    bounded search of one problem build each value model once: they all
    go through the problem's memo, which the bounded copy shares."""
    built = _record_value_model_builds(monkeypatch)
    prob = _problem("check_bit", Mode.TSC)
    best = solver.solve_optimal(prob, time_budget=30).solution
    pool = solver.diversify(prob, best, 4, seed=0)
    assert len(pool.solutions) == 4
    assert built and len(built) == len(set(built))


def test_infeasibility_check_builds_its_value_model_through_the_memo(monkeypatch):
    built = _record_value_model_builds(monkeypatch)
    prob = _problem("masked_xor", Mode.PSC)
    assert len(built) == 1 and list(prob.value_models) == built
    best = solver.solve_optimal(prob, time_budget=30).solution
    pool = solver.diversify(prob, best, 4, gap=Fraction(10, 100), seed=0)
    assert len(pool.solutions) == 4
    assert len(built) == len(set(built))
