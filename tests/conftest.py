from __future__ import annotations

import time
from pathlib import Path

import pytest

from secdiv.copmodel import build_problem
from secdiv.machine import TIGHT8
from secdiv.mir import parse_function
from secdiv.secanalysis import analyze
from secdiv import solver
from secdiv.solver import naive_diversify, pick_base_mode, solve_optimal

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
