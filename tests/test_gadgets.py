from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import corpus_path, load
from gadget_overlap import gadgets, mean_srate, srate
from secdiv.cli import main
from secdiv.copmodel import build_problem, to_schedule
from secdiv.gadgets import DEFAULT_MAX_LEN, SrateHistogram, extract_gadgets, pool_histogram
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
    assert {len(words) for words in gads.values()} == {1, 2, 3, 4}
    end = 4 * 3
    for start, words in gads.items():
        assert start + 4 * (len(words) - 1) == end


def test_no_ret_no_gadgets():
    program = _program([Instr(Opcode.ADD, 1, 2, 3), Instr(Opcode.B, 0)])
    assert extract_gadgets(program) == {}


def test_two_rets_two_families():
    func = load("two_exits")
    sched = Schedule(
        active=set(range(5)),
        cycle={0: 0, 1: 0, 2: 1, 3: 0, 4: 1},
        loc={"a": 0, "b": 1, "r1": 2, "r2": 3},
    )
    program = encode(func, sched, TIGHT8)
    gads = extract_gadgets(program)
    flat = program.flat()
    rets = [i for i, ins in enumerate(flat) if ins.opcode is Opcode.RET]
    assert len(rets) == 2
    # each gadget ends at the first RET from its start, whose word it ends with
    ends = set()
    for start, words in gads.items():
        end = next(r for r in rets if r >= start // 4)
        assert words[-1] == flat[end].word()
        ends.add(end)
    assert ends == set(rets)
    assert len(gads) == len(gadgets(program))  # a start fixes its gadget


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
    assert set(gads) == {8, 12}  # stops before the b
    assert max(len(words) for words in gads.values()) == 2


def test_k_limits_length():
    gads = extract_gadgets(_xor_ret(), k=2)
    assert set(gads) == {8, 12}
    assert {len(words) for words in gads.values()} == {1, 2}


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
    # (shared, total): srates 0, 0 (no gadget), 1/10, 1/5, 1/5, 21/100, 1
    for shared, total in [(0, 5), (0, 0), (1, 10), (1, 5), (2, 10), (21, 100), (1, 1)]:
        hist.add(shared, total)
    assert (hist.zero, hist.low, hist.high) == (2, 3, 2)


def test_histogram_needs_two_variants():
    with pytest.raises(ValueError, match="two variants"):
        pool_histogram([_xor_ret()])


def test_mean_srate_bounds():
    a = _xor_ret()
    b = _program([Instr(Opcode.MOV, 6, 6)] + list(a.blocks[0]), num_inputs=3)
    assert mean_srate([a, a]) == 1
    assert mean_srate([a, b]) == 0


def _reference_buckets(programs, k) -> tuple[int, int, int]:
    """(zero, low, high) of the reference srate over all ordered pairs."""
    rates = [srate(a, b, k) for a, b in itertools.permutations(programs, 2)]
    return (
        sum(r == 0 for r in rates),
        sum(0 < r <= Fraction(1, 5) for r in rates),
        sum(r > Fraction(1, 5) for r in rates),
    )


def _buckets(programs, k) -> tuple[int, int, int]:
    hist = pool_histogram(programs, k)
    return (hist.zero, hist.low, hist.high)


# the jobs of the tsc_pool benchmark workload: (function, gap percent, variants)
TSC_POOL_JOBS = [("modexp_step", 0, 30), ("two_branches", 5, 40), ("long_arm", 5, 40)]


@pytest.mark.parametrize("name, gap, n", TSC_POOL_JOBS)
def test_histogram_matches_the_reference_on_tsc_pools(tmp_path, name, gap, n):
    out = tmp_path / "out"
    argv = ["diversify", corpus_path(name), "--mode", "tsc", "--gap", gap, "--variants", n,
            "--seed", 0, "--out", out]
    assert main([str(a) for a in argv]) == 0
    variants = sorted((out / f"{name}-tsc-g{gap}").glob("variant_*.bin"))
    programs = [MachineProgram.from_bytes(v.read_bytes()) for v in variants]
    assert len(programs) == n
    assert _buckets(programs, DEFAULT_MAX_LEN) == _reference_buckets(programs, DEFAULT_MAX_LEN)


_PALETTE = [
    Instr(Opcode.XOR, 1, 2, 3),
    Instr(Opcode.ADD, 1, 1, 2),
    Instr(Opcode.MOV, 2, 3),
    Instr(Opcode.AND, 3, 1, 2),
    Instr(Opcode.NOP),
    Instr(Opcode.NOP),
    Instr(Opcode.B, 0),
    Instr(Opcode.BEQ, 1, 2, 1),
    Instr(Opcode.RET, 1),
    Instr(Opcode.RET, 2),
]


def _generated_pool(seed: int) -> list[MachineProgram]:
    """Four variants of one random stream of ALU words, NOPs, branches and
    RETs: each edits a few words or inserts NOPs, which shifts the rest."""
    rng = random.Random(seed)
    base = [rng.choice(_PALETTE) for _ in range(rng.randint(3, 14))] + [Instr(Opcode.RET, 1)]
    pool = []
    for _ in range(4):
        words = list(base)
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(words))
            if rng.random() < 0.5:
                words.insert(at, Instr(Opcode.NOP))
            else:
                words[at] = rng.choice(_PALETTE)
        # one block per control transfer, as the encoder lays them out
        blocks, block = [], []
        for ins in words:
            block.append(ins)
            if ins.opcode in (Opcode.B, Opcode.BEQ, Opcode.RET):
                blocks.append(block)
                block = []
        pool.append(MachineProgram("tight8", 3, blocks + [block] if block else blocks))
    return pool


def test_histogram_matches_the_reference_on_generated_pools():
    rates, gadget_free = set(), 0
    for seed in range(60):
        pool = _generated_pool(seed)
        for k in range(1, 7):
            for program in pool:
                assert set(extract_gadgets(program, k).items()) == gadgets(program, k)
                gadget_free += not gadgets(program, k)
            assert _buckets(pool, k) == _reference_buckets(pool, k), (seed, k)
            rates.update(srate(a, b, k) for a, b in itertools.permutations(pool, 2))
    # the pools reach every bucket, the boundary between low and high, and
    # programs without any gadget
    assert gadget_free
    assert {0, Fraction(1, 5), 1} <= rates
    assert any(0 < r < Fraction(1, 5) for r in rates)
    assert any(Fraction(1, 5) < r < 1 for r in rates)
