from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import load
from gadget_overlap import mean_srate, srate
from secdiv.copmodel import build_problem, to_schedule
from secdiv.gadgets import SrateHistogram, extract_gadgets, pool_histogram
from secdiv.machine import TIGHT8, Instr, MachineProgram, Schedule, encode
from secdiv.mir import Opcode
from secdiv.secanalysis import analyze
from secdiv.solver import solve_optimal


def _program(words: list[Instr], num_inputs=1) -> MachineProgram:
    return MachineProgram(profile_name="tight8", num_inputs=num_inputs, blocks=[words])


def _xor_ret() -> MachineProgram:
    return _program(
        [
            Instr(Opcode.XOR, 3, 1, 2),
            Instr(Opcode.XOR, 4, 3, 0),
            Instr(Opcode.XOR, 5, 4, 1),
            Instr(Opcode.RET, 5),
        ],
        num_inputs=3,
    )


def test_gadgets_end_at_ret():
    gads = extract_gadgets(_xor_ret())
    assert len(gads) == 4  # suffix lengths 1..4
    assert {len(g.words) for g in gads} == {1, 2, 3, 4}
    end = 4 * 3
    for g in gads:
        assert g.start + 4 * (len(g.words) - 1) == end


def test_no_ret_no_gadgets():
    program = _program([Instr(Opcode.ADD, 1, 2, 3), Instr(Opcode.B, 0)])
    assert extract_gadgets(program) == set()


def test_two_rets_two_families():
    func = load("two_exits")
    sched = Schedule(
        active=set(range(5)),
        cycle={0: 0, 1: 0, 2: 1, 3: 0, 4: 1},
        loc={"a": 0, "b": 1, "r1": 2, "r2": 3},
    )
    program = encode(func, sched, TIGHT8)
    gads = extract_gadgets(program)
    ends = {g.start + 4 * (len(g.words) - 1) for g in gads}
    assert len(ends) == 2
    assert len({g.start for g in gads}) == len(gads)  # a start fixes its gadget


def test_gadget_does_not_cross_control_transfer():
    program = _program(
        [
            Instr(Opcode.ADD, 1, 2, 3),
            Instr(Opcode.B, 0),
            Instr(Opcode.MOV, 1, 2),
            Instr(Opcode.RET, 1),
        ]
    )
    gads = extract_gadgets(program)
    assert max(len(g.words) for g in gads) == 2  # stops before the b


def test_k_limits_length():
    gads = extract_gadgets(_xor_ret(), k=2)
    assert {len(g.words) for g in gads} == {1, 2}


def test_srate_self_is_one():
    assert srate(_xor_ret(), _xor_ret()) == 1


def test_srate_zero_gadget_program():
    empty = _program([Instr(Opcode.B, 0)])
    assert srate(empty, _xor_ret()) == 0


def test_leading_nop_keeps_gadget_alive():
    a = _xor_ret()
    shifted = _program([Instr(Opcode.NOP)] + list(a.blocks[0]), num_inputs=3)
    # jumping to address 0 in the shifted program still runs a's longest
    # gadget: NOP stripping finds it at the same address
    assert srate(a, shifted) == Fraction(1, 4)


def test_srate_disjoint_addresses():
    a = _xor_ret()
    shim = Instr(Opcode.MOV, 6, 6)
    shifted = _program([shim] + list(a.blocks[0]), num_inputs=3)
    assert srate(a, shifted) == 0


def test_srate_nop_stripping_matches_same_address():
    a = _program(
        [Instr(Opcode.XOR, 3, 1, 2), Instr(Opcode.XOR, 4, 3, 0), Instr(Opcode.RET, 4)],
        num_inputs=3,
    )
    b = _program(
        [Instr(Opcode.XOR, 3, 1, 2), Instr(Opcode.NOP), Instr(Opcode.RET, 4)],
        num_inputs=3,
    )
    # b's 3-word gadget at address 0 normalizes to (xor, ret): it does not
    # match a's (xor, xor, ret) there, but the ret-only gadgets differ in
    # address, so only partial overlap remains
    rate = srate(a, b)
    assert 0 < rate < 1


def test_trailing_nops_leave_gadgets_alive():
    # padding between the body and the return does not move the body:
    # the NOP-stripped windows still match at the same addresses
    analyzed, prob, sol, base = _compile_masked()
    values = sol.as_dict()
    values[("cycle", 3)] = values[("cycle", 3)] + 2
    from secdiv.copmodel import make_solution

    delayed = make_solution(prob, values)
    moved = encode(analyzed.function, to_schedule(prob, delayed), TIGHT8)
    assert srate(base, moved) == 1


def test_shifting_the_body_defeats_address_matches():
    # NOPs inserted ahead of the body move every instruction; once the
    # shift exceeds what the strip window can absorb, nothing matches
    analyzed, prob, sol, base = _compile_masked()
    values = sol.as_dict()
    for idx in (0, 2, 3):
        values[("cycle", idx)] = values[("cycle", idx)] + 3
    from secdiv.copmodel import make_solution

    delayed = make_solution(prob, values)
    moved = encode(analyzed.function, to_schedule(prob, delayed), TIGHT8)
    assert srate(base, moved) == 0


def _compile_masked():
    func = load("masked_xor")
    analyzed = analyze(func, TIGHT8)
    prob = build_problem(analyzed)
    sol = solve_optimal(prob, time_budget=30).solution
    program = encode(analyzed.function, to_schedule(prob, sol), TIGHT8)
    return analyzed, prob, sol, program


def test_histogram_identical_pool_all_high():
    pool = [_xor_ret() for _ in range(4)]
    hist = pool_histogram(pool)
    assert hist.total == 12  # ordered pairs
    assert hist.high == 12 and hist.zero == 0 and hist.low == 0


def test_histogram_disjoint_pool_all_zero():
    a = _xor_ret()
    shim = Instr(Opcode.MOV, 6, 6)
    b = _program([shim] + list(a.blocks[0]), num_inputs=3)
    c = _program([shim, shim] + list(a.blocks[0]), num_inputs=3)
    hist = pool_histogram([a, b, c])
    assert hist.zero == hist.total == 6


def test_histogram_buckets_partition():
    hist = SrateHistogram()
    for rate in [Fraction(0), Fraction(1, 10), Fraction(1, 5), Fraction(21, 100), Fraction(1)]:
        hist.add(rate)
    assert (hist.zero, hist.low, hist.high) == (1, 2, 2)


def test_histogram_needs_two_variants():
    with pytest.raises(ValueError, match="two variants"):
        pool_histogram([_xor_ret()])


def test_mean_srate_bounds():
    a = _xor_ret()
    b = _program([Instr(Opcode.MOV, 6, 6)] + list(a.blocks[0]), num_inputs=3)
    assert mean_srate([a, a]) == 1
    assert mean_srate([a, b]) == 0
