"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and asserts the criterion at its stated tolerance.  Pools are
built once per (benchmark, mode, profile) and shared across criteria.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import floor

from bruteforce import brute_optimal
from conftest import all_corpus_names, corpus_naive_pool, corpus_path, first_solution, load
from cr_reference import constant_resource, cycle_bounds
from gadget_overlap import mean_srate
from secdiv import gadgets as gadgets_mod
from secdiv import solver as solver_mod
from secdiv import verify as verify_mod
from secdiv.copmodel import Mode, build_problem, check_solution, to_schedule
from secdiv.machine import PROFILES, TIGHT8, Schedule, encode
from secdiv.mir import SecurityLabel
from secdiv.secanalysis import analyze, pick_base_mode
from secdiv.solver import PoolReason, SolveStatus

GAP = Fraction(10, 100)
POOL_SIZE = 20
DTHRESH = 1

_cache: dict = {}


def conclude(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{title}]: {verdict}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def base_op_count(name: str) -> int:
    return len(list(load(name).all_ops()))


def secure_mode(name: str) -> Mode:
    return pick_base_mode(load(name))


def compiled(name: str, mode: Mode, profile_name: str = "tight8"):
    key = ("compiled", name, mode.value, profile_name)
    if key not in _cache:
        profile = PROFILES[profile_name]
        func = load(name)
        analyzed = analyze(func, profile, mode=mode)
        prob = build_problem(analyzed)
        result = solver_mod.solve_optimal(prob, time_budget=120)
        _cache[key] = (analyzed, prob, result)
    return _cache[key]


def pool_for(name: str, mode: Mode, profile_name: str = "tight8"):
    key = ("pool", name, mode.value, profile_name)
    if key not in _cache:
        analyzed, prob, result = compiled(name, mode, profile_name)
        assert result.solution is not None, f"{name}/{mode} has no base solution"
        pool = solver_mod.diversify(
            prob,
            result.solution,
            n=POOL_SIZE,
            gap=GAP,
            dthresh=DTHRESH,
            time_budget=600,
            seed=0,
        )
        programs = [
            encode(prob.function, to_schedule(pool.problem, s), prob.profile)
            for s in pool.solutions
        ]
        _cache[key] = (analyzed, pool, programs)
    return _cache[key]


def naive_pool(name: str, n: int = 50):
    key = ("naive", name, n)
    if key not in _cache:
        pool = corpus_naive_pool(name, n, seed=0)
        programs = [
            encode(pool.problem.function, to_schedule(pool.problem, s), TIGHT8)
            for s in pool.solutions
        ]
        _cache[key] = (pool, programs)
    return _cache[key]


def cr_benchmarks() -> list[str]:
    return [n for n in all_corpus_names() if secure_mode(n) is Mode.TSC]


def masked_benchmarks() -> list[str]:
    out = []
    for n in all_corpus_names():
        func = load(n)
        labels = [lab for _, lab in func.inputs]
        hidden = sum(lab is not SecurityLabel.PUBLIC for lab in labels)
        if SecurityLabel.RANDOM in labels and hidden <= 3:
            out.append(n)
    return out


def test_criterion_1_solver_optimality_oracle():
    started = time.monotonic()
    checked = []
    for name in all_corpus_names():
        if base_op_count(name) > 10:
            continue
        for mode in (Mode.NONE, Mode.TSC, Mode.PSC):
            profile = TIGHT8
            func = load(name)
            analyzed = analyze(func, profile, mode=mode)
            prob = build_problem(analyzed)
            result = solver_mod.solve_optimal(prob, time_budget=60)
            oracle = brute_optimal(prob)
            solver_obj = result.solution.objective if result.solution else None
            assert solver_obj == oracle, f"{name}/{mode.value}: {solver_obj} != {oracle}"
            checked.append(f"{name}/{mode.value}")
    elapsed = time.monotonic() - started
    conclude(
        1,
        "solver optimality vs exhaustive enumeration",
        bool(checked) and elapsed < 60,
        f"{len(checked)} problem instances, {elapsed:.1f}s",
    )


def test_criterion_2_cr_end_to_end():
    tested = 0
    for name in ("check_bit", "share_compare"):
        analyzed, pool, programs = pool_for(name, Mode.TSC)
        policy = analyzed.function.inputs
        for program in programs:
            report = verify_mod.check_cr(program, policy)
            assert report.secure, f"{name}: variant fails BCET=WCET"
            # every value of the public input, every value of the secrets
            bounds = cycle_bounds(program, policy)
            assert len(bounds) == 256
            for bcet, wcet in bounds.values():
                assert bcet == wcet
            tested += 1
    conclude(2, "constant-resource end to end", tested > 0, f"{tested} variants secure")


def test_criterion_3_overhead_direction():
    started = time.monotonic()
    rows = []
    for name in cr_benchmarks():
        _, _, secure = compiled(name, Mode.TSC)
        _, _, base = compiled(name, Mode.NONE)
        s, b = secure.solution.objective, base.solution.objective
        assert s >= b, f"{name}: secure {s} < insecure {b}"
        overhead = float((s - b) / b * 100)
        rows.append(f"{name} +{overhead:.0f}%")
        if name == "check_bit":
            assert s > b, "check_bit balancing must cost extra cycles"
    elapsed = time.monotonic() - started
    conclude(
        3,
        "security overhead direction",
        bool(rows) and elapsed < 120,
        "; ".join(rows) + f"; {elapsed:.1f}s",
    )


def test_criterion_4_psc_end_to_end():
    tested = 0
    for name in masked_benchmarks():
        analyzed, pool, programs = pool_for(name, Mode.PSC)
        policy = analyzed.function.inputs
        for program in programs:
            report = verify_mod.check_psc(program, policy)
            assert report.secure, f"{name}: variant leaks {report.leaks}"
            tested += 1
    # the insecure register assignment, reconstructed by hand, is flagged
    # at the documented write site
    func = load("masked_xor")
    insecure = Schedule(
        active={0, 2, 3},
        cycle={0: 0, 2: 1, 3: 2},
        loc={"pub": 0, "key": 1, "mask": 2, "mk": 2, "mkc": 2, "t": 0},
    )
    report = verify_mod.check_psc(encode(func, insecure, TIGHT8), func.inputs)
    flagged = (0, "reg", 2) in report.leaks
    conclude(
        4,
        "first-order leak freedom plus insecure witness",
        tested > 0 and not report.secure and flagged,
        f"{tested} variants leak-free; insecure variant flagged at 0x0000:r2",
    )


def test_criterion_5_naive_breakage():
    started = time.monotonic()
    pool_cb, programs_cb = naive_pool("check_bit")
    policy_cb = pool_cb.problem.function.inputs
    cr_bad = 0
    for program in programs_cb:
        secure = verify_mod.check_cr(program, policy_cb).secure
        assert secure == constant_resource(program, policy_cb)
        cr_bad += not secure
    cr_rate = cr_bad / len(programs_cb)

    pool_mx, programs_mx = naive_pool("masked_xor")
    rot_bad = 0
    for program in programs_mx:
        report = verify_mod.check_psc(program, pool_mx.problem.function.inputs)
        rot_bad += not report.secure
    rot_rate = rot_bad / len(programs_mx)
    elapsed = time.monotonic() - started
    conclude(
        5,
        "unaware randomization breaks mitigations",
        cr_rate > 0.5 and rot_rate > 0.3 and elapsed < 60,
        f"CR violations {cr_rate:.0%} (>50% required), "
        f"transition leaks {rot_rate:.0%} (>30% required), {elapsed:.1f}s",
    )


def test_criterion_6_diversity_production():
    summary = []
    for name in all_corpus_names():
        mode = secure_mode(name)
        analyzed, pool, programs = pool_for(name, mode)
        bound = floor((1 + GAP) * pool.solutions[0].objective)
        assert pool.reason in (PoolReason.COMPLETE, PoolReason.EXHAUSTED), (
            f"{name}: diversification hit the time limit"
        )
        if pool.reason is PoolReason.COMPLETE:
            assert len(pool.solutions) == POOL_SIZE
        else:
            assert len(pool.solutions) < POOL_SIZE
            # a correct EXHAUSTED report: no further solution exists
            extra = first_solution(
                pool.problem, pool.solutions, dthresh=DTHRESH, time_budget=60, seed=99
            )
            assert extra.status is SolveStatus.UNSAT
        for sol in pool.solutions:
            assert check_solution(sol, pool.problem) == []
            assert sol.objective <= bound
        for i, a in enumerate(pool.solutions):
            for b in pool.solutions[i + 1 :]:
                assert solver_mod.distance(a, b) >= DTHRESH
        summary.append(f"{name}:{len(pool.solutions)}/{pool.reason.value}")
    conclude(6, "diversity production under the gap bound", True, "; ".join(summary))


def test_criterion_7_gadget_trend_and_buckets():
    trends = []
    for name in ("masked_xor", "check_bit"):
        mode = secure_mode(name)
        _, _, tight_programs = pool_for(name, mode, "tight8")
        _, _, wide_programs = pool_for(name, mode, "wide32")
        assert len(tight_programs) >= POOL_SIZE and len(wide_programs) >= POOL_SIZE
        tight = mean_srate(tight_programs)
        wide = mean_srate(wide_programs)
        assert wide <= tight, f"{name}: wide32 {wide} > tight8 {tight}"
        assert tight < 1 and wide < 1
        trends.append(f"{name}: wide32 {float(wide):.3f} <= tight8 {float(tight):.3f}")

    identical = [tight_programs[0]] * 5
    hist = gadgets_mod.pool_histogram(identical)
    assert (hist.zero, hist.low, hist.high) == (0, 0, 20)

    # bucket arithmetic on a NOP-free hand-built pool: shifting the whole
    # body defeats every same-address match
    from secdiv.machine import Instr, MachineProgram, Opcode

    body = [
        Instr(Opcode.XOR, 3, 1, 2),
        Instr(Opcode.XOR, 4, 3, 0),
        Instr(Opcode.RET, 4),
    ]
    shim = Instr(Opcode.MOV, 7, 7)
    disjoint = [
        MachineProgram(profile_name="tight8", num_inputs=3, blocks=[[shim] * i + body])
        for i in range(1, 4)
    ]
    hist0 = gadgets_mod.pool_histogram(disjoint)
    assert (hist0.zero, hist0.low, hist0.high) == (6, 0, 0)
    conclude(7, "gadget survival trend and exact buckets", True, "; ".join(trends))


def test_criterion_8_mitigation_compatibility():
    started = time.monotonic()
    rows = []
    for name in all_corpus_names():
        mode = secure_mode(name)
        if mode is Mode.NONE:
            continue  # no side-channel mitigation to preserve
        _, _, aware_programs = pool_for(name, mode)
        _, _, unaware_programs = pool_for(name, Mode.NONE)
        n = min(len(aware_programs), len(unaware_programs))
        if n < 2:
            rows.append(f"{name}: n/a (pool of {n})")
            continue
        aware = float(mean_srate(aware_programs[:n]))
        unaware = float(mean_srate(unaware_programs[:n]))
        assert abs(aware - unaware) <= 0.15, (
            f"{name}: aware {aware:.3f} vs unaware {unaware:.3f}"
        )
        rows.append(f"{name}: {aware:.3f} vs {unaware:.3f}")
    elapsed = time.monotonic() - started
    conclude(
        8,
        "mitigation-aware diversity matches unaware diversity",
        bool(rows) and elapsed < 600,
        "; ".join(rows) + f"; {elapsed:.0f}s",
    )


def test_criterion_9_functional_equivalence():
    checked = 0
    pools = []
    for name in all_corpus_names():
        pools.append(pool_for(name, secure_mode(name)))
    for name in ("check_bit", "masked_xor"):
        pool, programs = naive_pool(name)
        pools.append((None, pool, programs))
    for _, _, programs in pools:
        base = programs[0]
        for variant in programs[1:]:
            report = verify_mod.check_equivalence(base, variant, seed=0)
            assert report.ok, f"mismatch on {report.mismatch}"
            checked += 1
    conclude(9, "pool-wide functional equivalence", True, f"{checked} variant pairs")


def test_criterion_10_determinism(tmp_path):
    from secdiv.cli import main

    def run(out):
        rc = main(
            [
                "diversify",
                str(corpus_path("masked_xor")),
                "--mode",
                "psc",
                "--out",
                str(out),
                "--variants",
                "8",
                "--gap",
                "10",
                "--seed",
                "7",
                "--budget-secs",
                "120",
            ]
        )
        assert rc == 0
        d = out / "masked_xor-psc-g10"
        blobs = [(d / "manifest.json").read_bytes()]
        for p in sorted(d.glob("variant_*.bin")):
            blobs.append(p.read_bytes())
        return blobs

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    conclude(10, "byte-identical reruns", first == second, f"{len(first)} artifacts compared")
