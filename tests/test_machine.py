from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_corpus_names, load
from scalar_machine import check_shape, hd_leak_points, run
from secdiv import machine
from secdiv.copmodel import build_problem, to_schedule
from secdiv.machine import (
    PROFILES,
    TIGHT8,
    WIDE32,
    Instr,
    MachineError,
    MachineProgram,
    Schedule,
    encode,
    run_batch,
)
from secdiv.mir import Opcode, parse_function
from secdiv.secanalysis import Mode, analyze
from secdiv.solver import solve_optimal


def test_profiles_shipped():
    assert set(PROFILES) == {"tight8", "wide32"}
    assert TIGHT8.num_registers == 8
    assert WIDE32.num_registers == 32
    assert TIGHT8.latency[Opcode.B] == 3
    assert TIGHT8.latency[Opcode.MOV] == 1
    assert TIGHT8.taken_branch_overhead == 2
    assert TIGHT8.lat(Opcode.BEQ) == 1


def test_word_encoding_bijective():
    for op in Opcode:
        ins = Instr(op, 1, 2, 3)
        assert Instr.from_word(ins.word()) == ins


def test_operand_roles_of_every_machine_opcode():
    # derived from mir.OPERANDS; this is the table as written out by hand
    assert machine._ROLES == {
        Opcode.ADD: "rrr",
        Opcode.SUB: "rrr",
        Opcode.XOR: "rrr",
        Opcode.AND: "rrr",
        Opcode.OR: "rrr",
        Opcode.MOV: "rr-",
        Opcode.LI: "r--",
        Opcode.LD: "rs-",
        Opcode.ST: "sr-",
        Opcode.BEQ: "rr-",
        Opcode.BNE: "rr-",
        Opcode.B: "---",
        Opcode.RET: "r--",
        Opcode.NOP: "---",
    }


def test_undecodable_word_rejected():
    with pytest.raises(MachineError, match="undecodable"):
        Instr.from_word(0xFF)


def _sched_masked_xor(active_copy: bool):
    # ops: 0 mk=xor key,mask; 1 opt mkc=copy mk; 2 t=xor mkc,pub; 3 ret t
    if active_copy:
        return Schedule(
            active={0, 1, 2, 3},
            cycle={0: 0, 1: 1, 2: 3, 3: 4},
            loc={"pub": 0, "key": 1, "mask": 2, "mk": 3, "mkc": 4, "t": 5},
        )
    return Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 3, "mkc": 3, "t": 4},
    )


def test_encode_three_words_plus_ret(masked_xor):
    program = encode(masked_xor, _sched_masked_xor(False), TIGHT8)
    words = program.flat()
    assert len(words) == 3
    assert [w.opcode for w in words] == [Opcode.XOR, Opcode.XOR, Opcode.RET]


def test_encode_materializes_gap_nops(masked_xor):
    # active copy occupies a 2-cycle slot; its register move is 1 cycle,
    # so a NOP pads the difference
    program = encode(masked_xor, _sched_masked_xor(True), TIGHT8)
    ops = [w.opcode for w in program.flat()]
    assert ops == [Opcode.XOR, Opcode.MOV, Opcode.NOP, Opcode.XOR, Opcode.RET]


def test_encode_delayed_op_inserts_nop(straightline):
    sched = Schedule(
        active={0, 1, 2, 3},
        cycle={0: 0, 1: 2, 2: 3, 3: 4},
        loc={"a": 0, "b": 1, "x": 2, "y": 3, "z": 4},
    )
    program = encode(straightline, sched, TIGHT8)
    assert len(program.flat()) == 5  # 4 active ops + 1 nop


def test_encode_empty_block_emits_nothing():
    func = parse_function(
        "func f (x:public)\nblock 0\n  beq x, x, 2\nblock 1\n  ret x\nblock 2\n  ret x\n"
    )
    sched = Schedule(active={0, 1, 2}, cycle={0: 0, 1: 0, 2: 0}, loc={"x": 0})
    program = encode(func, sched, TIGHT8)
    assert len(program.blocks[0]) == 1


def test_encode_cycle_collision_rejected(straightline):
    sched = Schedule(
        active={0, 1, 2, 3},
        cycle={0: 0, 1: 0, 2: 1, 3: 2},
        loc={"a": 0, "b": 1, "x": 2, "y": 3, "z": 4},
    )
    with pytest.raises(MachineError, match="collision"):
        encode(straightline, sched, TIGHT8)


def test_encode_unmapped_temp_rejected(straightline):
    sched = Schedule(active={0, 1, 2, 3}, cycle={0: 0, 1: 1, 2: 2, 3: 3}, loc={"a": 0})
    with pytest.raises(MachineError, match="unmapped"):
        encode(straightline, sched, TIGHT8)


@pytest.mark.parametrize("profile", [TIGHT8, WIDE32], ids=lambda p: p.name)
def test_encode_emits_only_programs_that_decode(profile):
    """Every corpus function in none, tsc (ebb and cbb) and psc: the
    schedule the solver finds in a second encodes to a program that
    `_decode` accepts and the scalar interpreter's own shape check passes.
    Only psc on modexp_step (no schedule in time) and share_compare (none
    at all on tight8) may have nothing to encode."""
    unsolved = set()
    for name in all_corpus_names():
        for mode, balance in [
            (Mode.NONE, "ebb"), (Mode.TSC, "ebb"), (Mode.TSC, "cbb"), (Mode.PSC, "ebb")
        ]:
            analyzed = analyze(load(name), profile, mode=mode, balance=balance)
            prob = build_problem(analyzed)
            solution = solve_optimal(prob, time_budget=1).solution
            if solution is None:
                unsolved.add((name, mode))
                continue
            program = encode(analyzed.function, to_schedule(prob, solution), profile)
            program.decoded
            check_shape(program)
    assert unsolved <= {("modexp_step", Mode.PSC), ("share_compare", Mode.PSC)}


def test_dump_round_trip(masked_xor):
    program = encode(masked_xor, _sched_masked_xor(True), TIGHT8)
    again = MachineProgram.from_bytes(program.to_bytes())
    assert again.profile_name == program.profile_name
    assert again.num_inputs == program.num_inputs
    assert again.blocks == program.blocks


def test_program_is_frozen_and_decodes_once(masked_xor):
    program = encode(masked_xor, _sched_masked_xor(True), TIGHT8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.blocks = []
    with pytest.raises(AttributeError):
        program.blocks[0].append(Instr(Opcode.NOP))
    assert program.decoded is program.decoded


def test_run_straightline_cycle_count(straightline):
    sched = Schedule(
        active={0, 1, 2, 3},
        cycle={0: 0, 1: 1, 2: 2, 3: 3},
        loc={"a": 0, "b": 1, "x": 2, "y": 3, "z": 4},
    )
    program = encode(straightline, sched, TIGHT8)
    trace = run(program, [10, 20])
    # 3 single-cycle ALU ops plus the return
    assert trace.total_cycles == 4
    assert trace.return_value == (((10 + 20) & 0xFF) ^ 10) - 20 & 0xFF


def test_run_single_ret_one_cycle():
    func = load("minimal")
    program = encode(func, Schedule(active={0}, cycle={0: 0}, loc={"x": 0}), TIGHT8)
    trace = run(program, [42])
    assert trace.total_cycles == 1
    assert trace.return_value == 42


def test_run_taken_branch_overhead():
    func = load("two_exits")
    sched = Schedule(
        active={0, 1, 2, 3, 4},
        cycle={0: 0, 1: 0, 2: 1, 3: 0, 4: 1},
        loc={"a": 0, "b": 1, "r1": 2, "r2": 3},
    )
    program = encode(func, sched, TIGHT8)
    taken = run(program, [5, 5])  # equal -> beq taken to block 2
    not_taken = run(program, [5, 6])
    assert taken.return_value == 9 and not_taken.return_value == 7
    # taken: beq (1+2) + li + ret; not taken: beq (1) + li + ret
    assert taken.total_cycles == 5
    assert not_taken.total_cycles == 3
    assert taken.path == [0, 2]
    assert not_taken.path == [0, 1]


def test_run_determinism(masked_xor):
    program = encode(masked_xor, _sched_masked_xor(True), TIGHT8)
    t1 = run(program, [1, 2, 3])
    t2 = run(program, [1, 2, 3])
    assert t1 == t2


def test_cycle_additivity(masked_xor):
    program = encode(masked_xor, _sched_masked_xor(True), TIGHT8)
    trace = run(program, [7, 8, 9])
    assert trace.total_cycles == sum(step.cycles for step in trace.steps)


def test_hd_leak_points_masked_xor():
    # insecure placement: mk lands on mask's register, transition = key
    func = load("masked_xor")
    insecure = Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 2, "mkc": 2, "t": 0},
    )
    program = encode(func, insecure, TIGHT8)
    pub, key, mask = 0x11, 0xA7, 0x39
    points = hd_leak_points(run(program, [pub, key, mask]))
    assert points[0][1] == key  # mask ^ (key ^ mask)
    assert points[1][1] == mask ^ key  # pub ^ (key ^ mask ^ pub)


def test_hd_leak_points_secure_variant():
    func = load("masked_xor")
    secure = Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 1, "mkc": 1, "t": 0},
    )
    program = encode(func, secure, TIGHT8)
    pub, key, mask = 0x11, 0xA7, 0x39
    points = hd_leak_points(run(program, [pub, key, mask]))
    assert [v for _, v in points] == [mask, mask ^ key]


def test_hd_leak_points_empty_without_writes():
    func = load("minimal")
    program = encode(func, Schedule(active={0}, cycle={0: 0}, loc={"x": 0}), TIGHT8)
    assert hd_leak_points(run(program, [9])) == []


def test_memory_bus_leak_points(check_bit):
    sched = Schedule(
        active=set(range(7)),
        cycle={0: 0, 1: 1, 2: 3, 3: 0, 4: 1, 5: 0, 6: 2},
        loc={"pub": 0, "key": 1, "t0": 2, "t1": 3, "r": 4},
    )
    program = encode(check_bit, sched, TIGHT8)
    trace = run(program, [3, 3])
    bus_writes = [s for s in trace.steps if s.bus_write is not None]
    assert len(bus_writes) == 3  # st, st, ld on the equal path


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_run_batch_agrees_with_scalar(pub, key, mask):
    func = load("masked_xor")
    program = encode(func, _sched_masked_xor(True), TIGHT8)
    scalar = run(program, [pub, key, mask])
    batch = run_batch(program, np.array([[pub], [key], [mask]], dtype=np.uint8))
    assert int(batch.returns[0]) == scalar.return_value
    assert int(batch.cycles[0]) == scalar.total_cycles


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_run_batch_agrees_on_branches(pub, key):
    func = load("check_bit")
    sched = Schedule(
        active=set(range(7)),
        cycle={0: 0, 1: 1, 2: 3, 3: 0, 4: 1, 5: 0, 6: 2},
        loc={"pub": 0, "key": 1, "t0": 2, "t1": 3, "r": 4},
    )
    program = encode(func, sched, TIGHT8)
    scalar = run(program, [pub, key])
    batch = run_batch(program, np.array([[pub], [key]], dtype=np.uint8))
    assert int(batch.returns[0]) == scalar.return_value
    assert int(batch.cycles[0]) == scalar.total_cycles


def _check_bit_program():
    sched = Schedule(
        active=set(range(7)),
        cycle={0: 0, 1: 1, 2: 3, 3: 0, 4: 1, 5: 0, 6: 2},
        loc={"pub": 0, "key": 1, "t0": 2, "t1": 3, "r": 4},
    )
    return encode(load("check_bit"), sched, TIGHT8)


def _modexp_step_program():
    # unbalanced (mode none), so lanes on different paths differ in cycles
    analyzed = analyze(load("modexp_step"), TIGHT8)
    prob = build_problem(analyzed)
    return encode(analyzed.function, to_schedule(prob, solve_optimal(prob).solution), TIGHT8)


def _seeded_lanes(num_inputs: int, n: int, seed: int) -> np.ndarray:
    lanes = np.random.default_rng(seed).integers(0, 256, size=(num_inputs, n), dtype=np.uint8)
    lanes[1, ::3] = lanes[0, ::3]  # equal operands, so check_bit's lanes split
    return lanes


def _scalar_lanes(program, lanes: np.ndarray):
    """Per-lane return values and cycles, and per site the transition
    value of each lane there (-1 where a lane did not run the site), all
    from the scalar interpreter."""
    n = lanes.shape[1]
    returns, cycles, values = [], [], {}
    for j in range(n):
        trace = run(program, [int(v) for v in lanes[:, j]])
        returns.append(trace.return_value)
        cycles.append(trace.total_cycles)
        for site, value in hd_leak_points(trace):
            row = values.setdefault(site, [-1] * n)
            assert row[j] == -1  # a lane runs a site at most once
            row[j] = value
    return returns, cycles, values


def _assert_lane_values(batch, values: dict) -> None:
    assert batch.transitions.keys() == values.keys()
    for site, row in batch.transitions.items():
        assert row.dtype == np.int16
        assert row.tolist() == values[site]


@pytest.mark.parametrize(
    "program, lanes",
    [
        (_check_bit_program, _seeded_lanes(2, 300, seed=1)),
        (_check_bit_program, np.full((2, 300), 7, dtype=np.uint8)),  # no split
        (_modexp_step_program, _seeded_lanes(3, 300, seed=2)),
    ],
)
def test_run_batch_many_lanes_agrees_with_scalar(program, lanes):
    program = program()
    returns, cycles, values = _scalar_lanes(program, lanes)
    batch = run_batch(program, lanes)
    assert batch.returns.tolist() == returns
    assert batch.cycles.tolist() == cycles
    _assert_lane_values(batch, values)


def _sparse_program() -> MachineProgram:
    """Registers r0, r2-r7 and slots 2 and 5 of tight8, with input r1
    never named: r4 is read before it is written, slot 2 is loaded before
    anything is stored to it, and block 0 ends in a branch on r0 == r2."""
    return MachineProgram(
        profile_name="tight8",
        num_inputs=3,
        blocks=[
            [
                Instr(Opcode.LD, 3, 2),
                Instr(Opcode.ADD, 5, 0, 4),
                Instr(Opcode.OR, 5, 5, 5),
                Instr(Opcode.XOR, 7, 2, 0),
                Instr(Opcode.ST, 5, 7),
                Instr(Opcode.BEQ, 0, 2, 2),
            ],
            [
                Instr(Opcode.SUB, 4, 7, 5),
                Instr(Opcode.LD, 6, 5),
                Instr(Opcode.LI, 4, 0x5A),
                Instr(Opcode.B, 3),
            ],
            [Instr(Opcode.AND, 7, 5, 3), Instr(Opcode.ST, 2, 7), Instr(Opcode.NOP)],
            [Instr(Opcode.XOR, 5, 5, 7), Instr(Opcode.ADD, 5, 5, 6), Instr(Opcode.RET, 5)],
        ],
    )


@pytest.mark.parametrize("calls", [1, 3])
def test_run_batch_compact_rows_agree_with_scalar(calls):
    """The 300 lanes run in `calls` calls over consecutive runs of lanes;
    joined up, their per-lane values are the scalar interpreter's, with
    -1 for the lanes of each arm at the sites of the other."""
    program = _sparse_program()
    lanes = np.random.default_rng(4).integers(0, 256, size=(3, 300), dtype=np.uint8)
    lanes[2, ::3] = lanes[0, ::3]  # r0 == r2, so the branch splits the lanes
    returns, cycles, values = _scalar_lanes(program, lanes)
    assert len(set(cycles)) == 2  # both paths ran
    assert {(kind, index) for _, kind, index in values} == {
        ("reg", 3), ("reg", 4), ("reg", 5), ("reg", 6), ("reg", 7), ("bus", 0)
    }
    # the words of blocks 1 and 2, each run by one arm's lanes
    assert {site for site, row in values.items() if -1 in row} == {
        (24, "reg", 4), (28, "bus", 0), (28, "reg", 6), (32, "reg", 4),
        (40, "reg", 7), (44, "bus", 0),
    }
    width = 300 // calls
    joined: dict = {}
    for k in range(calls):
        part = lanes[:, width * k : width * (k + 1)]
        batch = run_batch(program, part)
        plain = run_batch(program, part, collect_transitions=False)
        assert plain.transitions == {}
        for result in (batch, plain):
            assert result.returns.tolist() == returns[width * k : width * (k + 1)]
            assert result.cycles.tolist() == cycles[width * k : width * (k + 1)]
        for site in batch.transitions.keys() | joined.keys():
            row = batch.transitions.get(site, np.full(width, -1, dtype=np.int16))
            joined[site] = joined.get(site, [-1] * (width * k)) + row.tolist()
    assert joined == values


@pytest.mark.parametrize(
    "ins, match",
    [
        (Instr(Opcode.MOV, 8, 0), "register operand 8"),
        (Instr(Opcode.BEQ, 0, 8, 1), "register operand 8"),
        (Instr(Opcode.LD, 0, 8), "memory slot operand 8"),
        (Instr(Opcode.ST, 8, 0), "memory slot operand 8"),
    ],
)
def test_run_batch_rejects_operands_outside_profile(ins, match):
    # the bad instruction is never reached: the check is made when decoding
    program = MachineProgram("tight8", 1, [[Instr(Opcode.RET, 0)], [ins]])
    with pytest.raises(MachineError, match=match):
        run_batch(program, np.zeros((1, 4), dtype=np.uint8))


@pytest.mark.parametrize(
    "blocks, match",
    [
        ([[Instr(Opcode.B, 0)]], "block 0 branches to block 0"),
        ([[Instr(Opcode.NOP)], [Instr(Opcode.BEQ, 0, 0, 0)], [Instr(Opcode.RET, 0)]],
         "block 1 branches to block 0"),
        ([[Instr(Opcode.BNE, 0, 0, 1)], [Instr(Opcode.B, 1)]], "block 1 branches to block 1"),
        ([[Instr(Opcode.B, 2)], [Instr(Opcode.RET, 0)]], "block 0 branches to block 2"),
    ],
)
def test_run_batch_rejects_branches_that_are_not_forward(blocks, match):
    # a back edge would let a lane loop for ever; no instruction runs
    program = MachineProgram("tight8", 1, blocks)
    with pytest.raises(MachineError, match=match):
        run_batch(program, np.zeros((1, 4), dtype=np.uint8))


@pytest.mark.parametrize(
    "blocks, match",
    [
        # the scalar interpreter once ran the bne after the b, run_batch not
        ([[Instr(Opcode.B, 2), Instr(Opcode.BNE, 0, 0, 1)],
          [Instr(Opcode.LI, 0, 7), Instr(Opcode.RET, 0)], [Instr(Opcode.RET, 0)]],
         "block 0 has words after its b"),
        # and the li after a bne that is not taken
        ([[Instr(Opcode.BNE, 0, 0, 1), Instr(Opcode.LI, 0, 9)], [Instr(Opcode.RET, 0)]],
         "block 0 has words after its bne"),
    ],
)
def test_run_batch_and_the_scalar_interpreter_reject_words_after_a_jump(blocks, match):
    program = MachineProgram("tight8", 1, blocks)
    with pytest.raises(MachineError, match=match):
        run_batch(program, np.full((1, 1), 5, dtype=np.uint8))
    with pytest.raises(MachineError):
        run(program, [5])


def test_from_bytes_rejects_truncated_and_trailing_data():
    data = _check_bit_program().to_bytes()
    for cut in (1, 6, len(data) - 9):
        with pytest.raises(MachineError, match="truncated"):
            MachineProgram.from_bytes(data[:-cut])
    with pytest.raises(MachineError, match="2 bytes after"):
        MachineProgram.from_bytes(data + b"\0\0")
    with pytest.raises(MachineError, match="unknown profile"):
        MachineProgram.from_bytes(data.replace(b"tight8", b"tight9"))


def _masked_xor_program():
    return encode(load("masked_xor"), _sched_masked_xor(True), TIGHT8)


@pytest.mark.parametrize(
    "program",
    [_masked_xor_program, _check_bit_program, _sparse_program, _modexp_step_program],
)
def test_run_batch_repeated_calls_keep_results_apart(program):
    """One program, called again and again on lane counts that grow and
    shrink, with and without transitions: every call agrees with the
    scalar interpreter, and no later call changes an array an earlier
    call returned."""
    program = program()
    calls = [
        (240, True), (60, True), (480, True), (480, False),
        (120, True), (480, True), (30, True), (480, False),
    ]
    kept = []
    for seed, (n, collect) in enumerate(calls):
        lanes = np.random.default_rng(seed).integers(
            0, 256, size=(program.num_inputs, n), dtype=np.uint8
        )
        lanes[:, ::3] = lanes[0, ::3]  # equal inputs, so branches split the lanes
        batch = run_batch(program, lanes, collect_transitions=collect)
        returns, cycles, values = _scalar_lanes(program, lanes)
        assert batch.returns.tolist() == returns
        assert batch.cycles.tolist() == cycles
        _assert_lane_values(batch, values if collect else {})
        snapshot = (
            batch.returns.copy(),
            batch.cycles.copy(),
            {site: row.copy() for site, row in batch.transitions.items()},
        )
        kept.append((batch, snapshot))
    for batch, (returns, cycles, transitions) in kept:
        assert np.array_equal(batch.returns, returns)
        assert np.array_equal(batch.cycles, cycles)
        assert batch.transitions.keys() == transitions.keys()
        for site, row in transitions.items():
            assert np.array_equal(batch.transitions[site], row)
