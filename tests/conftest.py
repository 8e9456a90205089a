from __future__ import annotations

import time
from pathlib import Path

import pytest

from secdiv.copmodel import build_problem
from secdiv.machine import TIGHT8
from secdiv.mir import parse_function
from secdiv.secanalysis import analyze, pick_base_mode
from secdiv import solver
from secdiv.solver import naive_diversify, solve_optimal

CORPUS = Path(__file__).resolve().parent.parent / "src" / "secdiv" / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.mir"


def load(name: str):
    return parse_function(corpus_path(name).read_text())


# a 4-block tsc program with one public and four secret inputs, one more
# than the byte-wise power-leak check enumerates
FOUR_SECRETS = (
    "func f (p:public, k1:secret, k2:secret, k3:secret, k4:secret)\n"
    "block 0\n  z = li 0\n  bne k1, z, 2\n"
    "block 1\n  a = xor k2, k3\n  st s, a\n  b 3\n"
    "block 2\n  c = xor k3, k4\n  st s, c\n"
    "block 3\n  ret p\n"
)

# a program whose branch on r tests a value that only the secret branch
# before it decides, an implicit flow through the slot res
IMPLICIT = (
    "func implicit (pub:public, key:secret)\n"
    "block 0\n  t0 = li 0\n  st res, t0\n  bne pub, key, 2\n"
    "block 1\n  t1 = li 1\n  st res, t1\n"
    "block 2\n  r = ld res\n  z = li 0\n  bne r, z, 4\n"
    "block 3\n  a = add pub, pub\n  st res, a\n"
    "block 4\n  q = ld res\n  ret q\n"
)

# a tsc program whose secret branch skips a one-block arm without stores,
# which --balance cbb pads with a dead-def copy of the arm, not with NOPs
CBB_ARM = (
    "func cbb_arm (x:public, k:secret)\n"
    "block 0\n  z = li 0\n  bne k, z, 2\n"
    "block 1\n  a = add x, x\n  b = xor a, x\n  c = add b, a\n  d = xor c, b\n"
    "block 2\n  ret x\n"
)

# a tsc program whose secret arm ends in an optional copy: a register
# copy's second cycle then ends its block, and the encoder pads it there
COPY_ARM = (
    "func tc (x:public, k:secret)\n"
    "block 0\n  z = li 0\n  bne k, z, 3\n"
    "block 1\n  t = add x, x\n  opt c = copy t\n"
    "block 2\n  st o, c\n  b 4\n"
    "block 3\n  u = add x, x\n  st o, u\n"
    "block 4\n  r = ld o\n  ret r\n"
)


def secret_region(n: int):
    """Block 0 branches on the secret k past n diamonds, each a branch on
    the publics into the arms `a_i = add x, y` and `c_i = mov x`: every
    path from block 0 to the return lies in one secret region."""
    end = 3 * n + 1
    lines = ["func r (x:public, y:public, k:secret)", "block 0", "  z = li 0", f"  bne k, z, {end}"]
    for i in range(n):
        head = 3 * i + 1
        lines += [f"block {head}", f"  bne x, y, {head + 2}",
                  f"block {head + 1}", f"  a{i} = add x, y", f"  b {head + 3}",
                  f"block {head + 2}", f"  c{i} = mov x"]
    lines += [f"block {end}", "  ret x"]
    return parse_function("\n".join(lines) + "\n")


def corpus_naive_pool(name: str, n: int, seed: int = 0):
    """The naive pool of corpus function `name`, grown from the base that
    `secdiv diversify --mode naive` uses: the optimum in the mode
    `pick_base_mode` picks."""
    func = load(name)
    mode = pick_base_mode(func)
    analyzed = analyze(func, TIGHT8, mode=mode)
    prob = build_problem(analyzed)
    base = solve_optimal(prob, time_budget=120).solution
    return naive_diversify(prob, base, n, seed=seed)


def first_solution(prob, blocking, dthresh=1, time_budget=600.0, seed=0):
    """One first-solution search of `prob` under the blocking set, built
    as `diversify` builds each search of a pool."""
    plan = solver._Plan(prob)
    return solver._Search(
        plan,
        seed=seed,
        shuffle=True,
        blocked=[plan.values(sol) for sol in blocking],
        dthresh=dthresh,
        deadline=time.monotonic() + time_budget,
    ).run()


@pytest.fixture
def masked_xor():
    return load("masked_xor")


@pytest.fixture
def check_bit():
    return load("check_bit")


@pytest.fixture
def straightline():
    return load("straightline")


def all_corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.mir"))
