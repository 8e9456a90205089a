from __future__ import annotations

import functools
import hashlib
import itertools
import time
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import def_site
from conftest import all_corpus_names, load
from ir_eval import eval_ir, input_grid
from secdiv.copmodel import build_problem, check_solution, emit_model, to_schedule
from secdiv.machine import TIGHT8, encode
from secdiv.mir import (
    FunctionIR,
    SecurityLabel,
    parse_function,
    paths,
    post_dominator,
    serialize_function,
)
from secdiv.secanalysis import (
    CONST_TYPE,
    Mode,
    _chain_leaves,
    _find_safe_order,
    _join,
    _xor_chains,
    analyze,
    apply_balancing,
    emit_analysis,
    extract_secret_path_sets,
    gen_leak_pairs,
    get_paths,
    infer_types,
    input_type,
    memory_conflicts,
    restore_mask_order,
    xor_type,
)
from secdiv.solver import SolveStatus, solve_optimal
from secdiv.verify import check_cr

# ----------------------------------------------------------------------
# type inference
# ----------------------------------------------------------------------


def test_masked_xor_intermediates_random(masked_xor):
    types = infer_types(masked_xor)
    assert types["mk"].label is SecurityLabel.RANDOM
    assert types["mk"].dominant_randoms == {"mask"}
    assert types["t"].label is SecurityLabel.RANDOM


def test_check_bit_temp_public(check_bit):
    types = infer_types(check_bit)
    assert types["t0"].label is SecurityLabel.PUBLIC
    assert types["t1"].label is SecurityLabel.PUBLIC
    assert types["r"].label is SecurityLabel.PUBLIC


def test_mask_cancellation_restores_secret():
    func = parse_function(
        "func f (key:secret, mask:random)\n"
        "block 0\n"
        "  mk = xor key, mask\n"
        "  u = xor mk, mask\n"
        "  ret u\n"
    )
    types = infer_types(func)
    assert types["mk"].label is SecurityLabel.RANDOM
    assert types["u"].label is SecurityLabel.SECRET
    assert types["u"].secret_support == {"key"}
    assert types["u"].dominant_randoms == frozenset()


def test_xor_of_publics_public():
    func = parse_function(
        "func f (p1:public, p2:public)\nblock 0\n  v = xor p1, p2\n  ret v\n"
    )
    assert infer_types(func)["v"].label is SecurityLabel.PUBLIC


def test_nonlinear_of_secret_is_secret():
    func = parse_function(
        "func f (key:secret, mask:random)\n"
        "block 0\n"
        "  mk = xor key, mask\n"
        "  w = and mk, mk\n"
        "  ret w\n"
    )
    types = infer_types(func)
    assert types["w"].label is SecurityLabel.SECRET


def test_load_type_joins_stores(check_bit):
    types = infer_types(check_bit)
    assert types["r"].label is SecurityLabel.PUBLIC


def test_xor_chain_through_opaque_value_cancels():
    # n is an atom (an `or` result): (n ^ s) ^ s is n again, a public value
    func = parse_function(
        "func f (s:secret, p:public)\n"
        "block 0\n"
        "  n = or p, p\n"
        "  x1 = xor n, s\n"
        "  x2 = xor x1, s\n"
        "  z = li 0\n"
        "  bne x2, z, 2\n"
        "block 1\n"
        "  ret z\n"
        "block 2\n"
        "  ret x2\n"
    )
    types = infer_types(func)
    assert types["x1"].label is SecurityLabel.SECRET
    assert types["x2"].label is SecurityLabel.PUBLIC
    assert types["x2"] == types["n"]
    assert extract_secret_path_sets(func, types) == []


@st.composite
def xor_operands(draw):
    """Three types, each the XOR of some of four inputs of drawn labels and
    two opaque atoms; an atom is the join of two such XORs at a load."""
    labels = draw(st.lists(st.sampled_from(list(SecurityLabel)), min_size=4, max_size=4))
    pool = [input_type(f"i{k}", label) for k, label in enumerate(labels)]

    def xor_of_some():
        return functools.reduce(xor_type, draw(st.lists(st.sampled_from(pool), max_size=4)), CONST_TYPE)

    for key in range(2):
        pool.append(_join([xor_of_some(), xor_of_some()], key))
    return [xor_of_some() for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(xor_operands())
def test_xor_type_is_commutative_associative_and_self_cancelling(operands):
    a, b, c = operands
    assert xor_type(a, b) == xor_type(b, a)
    assert xor_type(xor_type(a, b), c) == xor_type(a, xor_type(b, c))
    assert xor_type(a, a) == CONST_TYPE


@st.composite
def memory_functions(draw):
    """Valid functions of 3-7 blocks that store to and load from two slots
    in different blocks and on different branches.  Block 0 defines the
    values every block may store; a block may also store what it loaded."""
    edges, n = draw(dag_edges())
    bodies = {0: ["  km = xor k, m", "  xk = xor x, k"]}
    loads = 0
    for i in range(n):
        stored = ["k", "m", "x", "km", "xk"]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            slot = draw(st.sampled_from(["s0", "s1"]))
            if draw(st.booleans()):
                bodies.setdefault(i, []).append(f"  st {slot}, {draw(st.sampled_from(stored))}")
            else:
                bodies.setdefault(i, []).append(f"  l{loads} = ld {slot}")
                stored.append(f"l{loads}")
                loads += 1
    return _graph(edges, n, "x:public, y:public, k:secret, m:random", bodies)


def _load_type_oracle(func, types, load):
    """Join of the stores that precede `load` on some path from the entry,
    in program order, plus the zero initial value when some path has no
    store to the slot before it."""
    block = next(b for b in func.blocks if load in b.ops)
    candidates: set = set()
    unstored = False
    for path in paths(func):
        if block.index not in path:
            continue
        before = [op for b in path[: path.index(block.index)] for op in func.blocks[b].ops]
        before += block.ops[: block.ops.index(load)]
        found = [op for op in before if op.opcode.value == "st" and op.uses[0] == load.uses[0]]
        candidates.update(found)
        unstored = unstored or not found
    joined = [types[op.uses[1]] for op in sorted(candidates, key=lambda op: op.index)]
    if unstored:
        joined.append(CONST_TYPE)
    return _join(joined, load.index)


@settings(max_examples=200, deadline=None)
@given(memory_functions())
def test_load_types_match_path_oracle(func):
    types = infer_types(func)
    for op in func.all_ops():
        if op.opcode.value == "ld":
            assert types[op.defs[0]] == _load_type_oracle(func, types, op), op


def _distribution_by_secret(values: np.ndarray, secrets: np.ndarray) -> dict:
    joint = np.bincount(secrets.astype(np.intp) * 256 + values, minlength=65536)
    rows = joint.reshape(256, 256)
    return {int(s): rows[s].tobytes() for s in np.unique(secrets)}


@pytest.mark.parametrize("name", ["masked_xor", "masked_chain"])
def test_inference_soundness_against_exhaustive_oracle(name):
    """Temps typed RANDOM or PUBLIC must have a value distribution that is
    identical for every secret value (randoms uniform, publics fixed)."""
    func = load(name)
    labels = dict(func.inputs)
    secret_names = [n for n, l in func.inputs if l is SecurityLabel.SECRET]
    random_names = [n for n, l in func.inputs if l is SecurityLabel.RANDOM]
    assert len(secret_names) == 1
    grids = np.meshgrid(
        *[np.arange(256, dtype=np.uint8)] * (1 + len(random_names)), indexing="ij"
    )
    flat = [g.reshape(-1) for g in grids]
    inputs = {secret_names[0]: flat[0]}
    for i, rn in enumerate(random_names):
        inputs[rn] = flat[1 + i]
    for n, l in func.inputs:
        if l is SecurityLabel.PUBLIC:
            inputs[n] = np.full(flat[0].shape, 0x5A, dtype=np.uint8)
    env = eval_ir(func, inputs)
    types = infer_types(func)
    secrets = inputs[secret_names[0]]
    for temp, t in types.items():
        if temp in labels or t.label is SecurityLabel.SECRET:
            continue
        dists = _distribution_by_secret(env[temp], secrets)
        assert len(set(dists.values())) == 1, f"{temp} typed {t.label} but leaks"


# ----------------------------------------------------------------------
# path extraction
# ----------------------------------------------------------------------


def _graph(
    edges: dict[int, tuple[int, ...]],
    n: int,
    inputs: str = "x:public, y:public",
    bodies: Optional[dict[int, list[str]]] = None,
) -> FunctionIR:
    """A function of n blocks whose successor lists are `edges` (a block
    with none returns) and whose block i starts with the ops `bodies[i]`.
    The inputs must include public x and y."""
    lines = [f"func g ({inputs})"]
    for i in range(n):
        lines.append(f"block {i}")
        lines += (bodies or {}).get(i, [])
        succ = edges.get(i, ())
        if not succ:
            lines.append("  ret x")
        elif len(succ) == 2:
            lines.append(f"  beq x, y, {succ[1]}")
        elif succ[0] != i + 1:
            lines.append(f"  b {succ[0]}")
    func = parse_function("\n".join(lines) + "\n")
    assert all(func.successors(i) == edges.get(i, ()) for i in range(n))
    return func


def test_get_paths_diamond_stops_at_sink():
    g = _graph({0: (1, 2), 1: (3,), 2: (3,)}, 4)
    assert get_paths(g, 0) == ((0, 1, 3), (0, 2, 3))


def test_get_paths_join_shape():
    g = _graph({0: (1, 2), 1: (2,)}, 3)
    assert get_paths(g, 0) == ((0, 1, 2), (0, 2))


def test_get_paths_two_exits():
    g = _graph({0: (1, 2)}, 3)
    assert post_dominator(g, 0) is None
    assert get_paths(g, 0) == ((0, 1), (0, 2))


def test_get_paths_sink_past_lagging_branch():
    g = _graph({0: (1, 3), 1: (2,), 2: (3,)}, 4)
    assert get_paths(g, 0) == ((0, 1, 2, 3), (0, 3))


def _all_paths_oracle(func: FunctionIR, n: int) -> tuple[tuple[int, ...], ...]:
    """Every path from block n to a return, by recursive search."""
    full: list[tuple[int, ...]] = []

    def walk(node, acc):
        acc = acc + [node]
        if not func.successors(node):
            full.append(tuple(acc))
            return
        for s in func.successors(node):
            walk(s, acc)

    walk(n, [])
    return tuple(sorted(full))


def _truncate_at_sink(full: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Cut every path after the first block other than n common to all of
    them (the sink), if there is one."""
    common = set(full[0])
    for p in full[1:]:
        common &= set(p)
    common.discard(n)
    if not common:
        return full
    sink = min(common)  # block ids are topological: smallest comes first
    return tuple(sorted({p[: p.index(sink) + 1] for p in full}))


def _dfs_paths_oracle(func: FunctionIR, n: int) -> tuple[tuple[int, ...], ...]:
    return _truncate_at_sink(_all_paths_oracle(func, n), n)


@st.composite
def dag_edges(draw):
    """(successor lists, n) of a valid function of 3-7 blocks: a block
    that no earlier block jumps to is reached by falling through from the
    block before it."""
    n = draw(st.integers(min_value=3, max_value=7))
    edges: dict[int, tuple[int, ...]] = {}
    targeted: set[int] = set()
    for i in range(n - 1):
        shapes: list[tuple[int, ...]] = [(i + 1,)]
        shapes += [(i + 1, t) for t in range(i + 2, n)]
        if i + 1 in targeted:
            shapes += [()] + [(t,) for t in range(i + 2, n)]
        succ = draw(st.sampled_from(shapes))
        if succ:
            edges[i] = succ
        targeted.update(succ)
    return edges, n


@st.composite
def random_dags(draw):
    return _graph(*draw(dag_edges()))


@settings(max_examples=150, deadline=None)
@given(random_dags())
def test_get_paths_matches_dfs_oracle(func):
    assert paths(func) == _all_paths_oracle(func, 0)
    for block in func.blocks:
        if len(func.successors(block.index)) == 2:
            assert get_paths(func, block.index) == _dfs_paths_oracle(func, block.index)


_CONFIGS = {
    # the analysis each CLI mode runs: (mode, balance)
    "none": (Mode.NONE, "ebb"),
    "tsc-ebb": (Mode.TSC, "ebb"),
    "tsc-cbb": (Mode.TSC, "cbb"),
    "psc": (Mode.PSC, "ebb"),
}


@pytest.mark.parametrize("config", sorted(_CONFIGS))
@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_paths_match_oracle(name, config):
    mode, balance = _CONFIGS[config]
    analyzed = analyze(load(name), TIGHT8, mode=mode, balance=balance)
    func = analyzed.function
    assert paths(func) == _all_paths_oracle(func, 0)
    for pset in analyzed.psets:
        assert pset.paths == _dfs_paths_oracle(func, pset.branch_block)


# sha256 of emit_analysis + emit_model per (config, corpus function), pinned
# from the analysis that took a balance method and a mask-order flag
# instead of a mode.  long_arm and share_compare under tsc were pinned again
# when balancing went by cycles: long_arm got one NOP block instead of two,
# and share_compare a NOP block for the 1-cycle gap between its arms.
# masked_chain was pinned again when types became exact XORs of atoms: t
# is key ^ pub ^ q ^ m0 with q an `and` result, so it no longer depends on
# m1, and 8 pairs whose XOR is public left the conflicts.
_DUMP_SHA256 = {
    ("none", "check_bit"): "d97621a994682a2185b48f37c400a2c8d4839206948c0ef4c7c01a48e4ab5dc6",
    ("none", "long_arm"): "3e02cb2e459a5498066458f76a11707c63eecf3c440aba9d7e75618a45aef5d5",
    ("none", "masked_chain"): "daf853e7de3b083247dbf8b96b656210eaf8a0ae57d61f8c8ce440ee55093817",
    ("none", "masked_xor"): "83c38c818fe94d793925be4e3cf04a001b783d77b542a4bec22efbc2b4504fb6",
    ("none", "masked_xor_broken"): "61e543cfb99b93f03e1b91d914e85687281f77f4ee4a305ad60ecd0c83812b3f",
    ("none", "minimal"): "908b5fbe44cc0989fc53b86db2c10fd594a0e651523ebde2b4c132a5add66615",
    ("none", "modexp_step"): "b8d01d28d1176a3abc6c59fa054dec66f25c7ceb783d43dfef35374f5f761edc",
    ("none", "share_compare"): "8c8ff5d208485fcc0b27668096a7879ecc18cecaa06ae9ba3ab24a680c74793c",
    ("none", "spill_pair"): "51d57f5cb6fe0a8ebe5b0afe2a6258db7f9c3a0664dd709eb13d5ba5c2405877",
    ("none", "straightline"): "117112ab326402460323b40e5cfe6cfe679ea929414f32defff4716d03b28050",
    ("none", "two_branches"): "e1069e3eac77f9d20a0f096b52bf5660d52dfa49de3e3d94d8c4da20b9e2f5e1",
    ("none", "two_exits"): "2b8ab6f21e935a5ab07df2d73407ac30bafdde3ef43927e0154d70d6e07aea4c",
    ("psc", "check_bit"): "48da304825f12c9779431db1c4639f9824dbe43943bcb64b5508a0413e84cd3c",
    ("psc", "long_arm"): "bb4fca10b183e51cac962e6404b4bc3ea7d5c8b5d062bb9e371a525551669f8a",
    ("psc", "masked_chain"): "e088d13ac0ba6d71257d2a9706062d7e0cf87b8f67af8b9caba162fed73b66a3",
    ("psc", "masked_xor"): "3e0a690ac6b7440a540b78cc52879c779911dbbcb58f51ba1c4093da0f03d6b7",
    ("psc", "masked_xor_broken"): "f18f13686ae0cb1172f1b44e22af45364e9f68a2e2544f91408b83a9b4230146",
    ("psc", "minimal"): "3524b433aab1eed1901056203ff63be91d17b8f8f6a966e79a44f9b03e3a25e3",
    ("psc", "modexp_step"): "24d5658e54de5bd02546ed0f337fc3220ac70dbfd7dffa3e6a951f8829745cb8",
    ("psc", "share_compare"): "7314641a97fa4517192286669591fb294c0e8ecc9930366a9b68c8e1b09a743c",
    ("psc", "spill_pair"): "0b4a1f9282f60cb65d7f9ef7517a0e0d997525753e014358583feb47a7eb7486",
    ("psc", "straightline"): "68a392c4c7bb29d9eb5609f5c0cefc5f08d59945ae90a18e7792644e16aae1d5",
    ("psc", "two_branches"): "5e641fc94af372e9a84d7735929b40a45a46ee89cecaf50dd6bc68326ea994ad",
    ("psc", "two_exits"): "ce6bc751f527da3074afc1d7818e0ebb04b771f17417dfd8c8c7591ab834e14c",
    ("tsc-cbb", "check_bit"): "2554e52923faa2d88afdcffe2ee46c0f1de5dc536ee05309dd27870d4d7c1135",
    ("tsc-cbb", "long_arm"): "96d917b54ba789c65d14c8d2ec561d35527f8144ba090c943b3ef9e7e43a1b1d",
    ("tsc-cbb", "masked_chain"): "977864d588e5339152a1334c59f66c9b45ba3751e2f735868f3facffe089735c",
    ("tsc-cbb", "masked_xor"): "b9c38ce971707698e25b8a9aef93c157fae5bd78c018d9c8e7c7d38280086407",
    ("tsc-cbb", "masked_xor_broken"): "f25105971a1c0636eece91adc53f87dda631c12019e20600079a79fe7d5baad1",
    ("tsc-cbb", "minimal"): "6a39785c96da31c3ab87700f32489218c23145adfba6220c1647d0e0658a71cc",
    ("tsc-cbb", "modexp_step"): "3665e465d3cd400a5a69fa500cb342b45d4822aee89cd25b92e66320317385a2",
    ("tsc-cbb", "share_compare"): "2c0d93e60b60ac51ae1f98427c694b44d104f55c3f83f94d944f3a5d44f89d2d",
    ("tsc-cbb", "spill_pair"): "0685d212355dfff072a1f6b1a6ef562455cb60bd6e333e8645be95b61d0dd03e",
    ("tsc-cbb", "straightline"): "8753cbb2a3abed96a6423822d27bae5c340dd51e43cbb0880de2bc07546d95d6",
    ("tsc-cbb", "two_branches"): "e3238b835cf2f3d93af0e4cd28c916993a768c3e2052c840225ab65cc132951c",
    ("tsc-cbb", "two_exits"): "f80d969bfa918c5d6aff60ea759c13408a339b1ac7f95b4ab07c6c9ca0f4ffa3",
    ("tsc-ebb", "check_bit"): "233b82f5c32facd1ac2ca79f9151b37242f66636fcedf84a67192e07ca22937e",
    ("tsc-ebb", "long_arm"): "b793740d5bff375ccc0afb80a09f536b56ed01a8bc9cecfbbca3144b6db98125",
    ("tsc-ebb", "masked_chain"): "977864d588e5339152a1334c59f66c9b45ba3751e2f735868f3facffe089735c",
    ("tsc-ebb", "masked_xor"): "b9c38ce971707698e25b8a9aef93c157fae5bd78c018d9c8e7c7d38280086407",
    ("tsc-ebb", "masked_xor_broken"): "f25105971a1c0636eece91adc53f87dda631c12019e20600079a79fe7d5baad1",
    ("tsc-ebb", "minimal"): "6a39785c96da31c3ab87700f32489218c23145adfba6220c1647d0e0658a71cc",
    ("tsc-ebb", "modexp_step"): "4aa5d5174160de67397dfaa825ab479de7f8b7e9fe1ab084a7d18b2917693621",
    ("tsc-ebb", "share_compare"): "0beb70ed4d51c777fc604f11b07fcf1d330de8503688fb0bda61bbc958a53605",
    ("tsc-ebb", "spill_pair"): "0685d212355dfff072a1f6b1a6ef562455cb60bd6e333e8645be95b61d0dd03e",
    ("tsc-ebb", "straightline"): "8753cbb2a3abed96a6423822d27bae5c340dd51e43cbb0880de2bc07546d95d6",
    ("tsc-ebb", "two_branches"): "ee105affc03bc52e28b4ee805c698f26e1d0c4e6a7a6d6b26493a92778f8a27d",
    ("tsc-ebb", "two_exits"): "f80d969bfa918c5d6aff60ea759c13408a339b1ac7f95b4ab07c6c9ca0f4ffa3",
}


def _dumps(name: str, mode: Mode, balance: str) -> str:
    analyzed = analyze(load(name), TIGHT8, mode=mode, balance=balance)
    return emit_analysis(analyzed) + emit_model(build_problem(analyzed))


@pytest.mark.parametrize("config, name", sorted(_DUMP_SHA256))
def test_corpus_dumps_match_pinned_digests(config, name):
    dump = _dumps(name, *_CONFIGS[config])
    assert hashlib.sha256(dump.encode()).hexdigest() == _DUMP_SHA256[(config, name)]


@pytest.mark.parametrize("mode", [Mode.NONE, Mode.PSC])
@pytest.mark.parametrize("name", all_corpus_names())
def test_balance_method_matters_only_in_tsc(name, mode):
    assert _dumps(name, mode, "cbb") == _dumps(name, mode, "ebb")


# ----------------------------------------------------------------------
# secret path sets
# ----------------------------------------------------------------------


def test_check_bit_one_set_two_paths(check_bit):
    types = infer_types(check_bit)
    sets = extract_secret_path_sets(check_bit, types)
    assert len(sets) == 1
    assert sets[0].branch_block == 0
    assert sets[0].paths == ((0, 1, 2), (0, 2))


def test_all_public_function_no_sets():
    func = load("two_exits")
    assert extract_secret_path_sets(func, infer_types(func)) == []


def test_two_independent_branches_two_sets():
    func = load("two_branches")
    sets = extract_secret_path_sets(func, infer_types(func))
    assert [s.branch_block for s in sets] == [0, 2]


def test_masked_comparison_branch_not_secret():
    # branching on key ^ mask is fine: the condition value is randomized
    func = parse_function(
        "func f (key:secret, mask:random)\n"
        "block 0\n"
        "  mk = xor key, mask\n"
        "  z = li 0\n"
        "  bne mk, z, 2\n"
        "block 1\n"
        "  ret z\n"
        "block 2\n"
        "  ret mk\n"
    )
    assert extract_secret_path_sets(func, infer_types(func)) == []


# ----------------------------------------------------------------------
# balancing
# ----------------------------------------------------------------------


def _nop_blocks(func: FunctionIR) -> list[int]:
    return [
        b.index for b in func.blocks
        if b.ops and all(op.opcode.value == "nop" and op.optional for op in b.ops)
    ]


def _same_results(before: FunctionIR, after: FunctionIR, seed: int) -> bool:
    inputs = input_grid(before, np.random.default_rng(seed), 512)
    return bool((eval_ir(before, inputs)["<ret>"] == eval_ir(after, inputs)["<ret>"]).all())


def test_ebb_inserts_nop_block(check_bit):
    func, notes = apply_balancing(check_bit)
    assert notes == ["block 0: inserted block 2 (ebb)"]
    assert len(func.blocks) == 4
    assert _nop_blocks(func) == [2]
    # the fall-through arm now jumps over the inserted block
    assert serialize_function(func).count("b 3") == 1
    sets = extract_secret_path_sets(func, infer_types(func))
    assert sets[0].paths == ((0, 1, 3), (0, 2, 3))


def test_ebb_balanced_diamond_untouched():
    # both arms cost li + st + the 2 cycles of a jump or a taken branch
    text = (
        "func f (p:public, k:secret)\n"
        "block 0\n"
        "  z = li 0\n"
        "  bne k, z, 2\n"
        "block 1\n"
        "  a = li 1\n"
        "  st out, a\n"
        "  b 3\n"
        "block 2\n"
        "  c = li 2\n"
        "  nop\n"
        "  st out, c\n"
        "block 3\n"
        "  r = ld out\n"
        "  ret r\n"
    )
    func = parse_function(text)
    for balance in ("ebb", "cbb"):
        assert apply_balancing(func, method=balance) == (func, [])


def test_ebb_multi_block_arm():
    # one pad covers the whole arm: the sibling's blocks (9 cycles) plus
    # the jump, the taken overhead and 3 cycles of slack
    func = load("long_arm")
    balanced, notes = apply_balancing(func)
    assert notes == ["block 0: inserted block 3 (ebb)"]
    assert len(balanced.blocks) == len(func.blocks) + 1
    assert _nop_blocks(balanced) == [3]
    assert len(balanced.blocks[3].ops) == 17


def test_ebb_preserves_semantics():
    for name in ("check_bit", "long_arm", "share_compare", "two_branches", "modexp_step"):
        for balance in ("ebb", "cbb"):
            func = load(name)
            balanced, _ = apply_balancing(func, method=balance)
            assert _same_results(func, balanced, seed=7), (name, balance)


def test_cbb_copies_arm_with_dead_defs():
    text = (
        "func f (p:public, k:secret)\n"
        "block 0\n"
        "  z = li 0\n"
        "  bne k, z, 2\n"
        "block 1\n"
        "  a = li 1\n"
        "block 2\n"
        "  r = add z, z\n"
        "  ret r\n"
    )
    func = parse_function(text)
    new, notes = apply_balancing(func, method="cbb")
    assert notes == ["block 0: inserted block 2 (cbb)"]
    assert len(new.blocks) == 4
    copied = new.blocks[2]
    assert [op.opcode.value for op in copied.body] == ["li"]
    dead = copied.body[0].defs[0]
    assert dead not in {u for op in new.all_ops() for u in op.temp_uses()}
    assert _same_results(func, new, seed=3)


def test_cbb_three_op_arm():
    text = (
        "func f (p:public, k:secret)\n"
        "block 0\n"
        "  z = li 0\n"
        "  bne k, z, 2\n"
        "block 1\n"
        "  a = li 1\n"
        "  a2 = add a, p\n"
        "  a3 = xor a2, a\n"
        "block 2\n"
        "  r = add z, z\n"
        "  ret r\n"
    )
    func = parse_function(text)
    new, notes = apply_balancing(func, method="cbb")
    assert notes == ["block 0: inserted block 2 (cbb)"]
    copied = new.blocks[2]
    assert len(copied.body) == 3
    defs = {op.defs[0] for op in copied.body}
    # the copied defs never escape: uses outside the copied block are
    # exactly the original program's uses
    external_uses = {
        u
        for b in new.blocks
        if b.index != 2
        for op in b.ops
        for u in op.temp_uses()
    }
    assert not (defs & external_uses)
    assert _same_results(func, new, seed=5)


def test_cbb_multi_block_arm_unsupported():
    balanced, notes = apply_balancing(load("long_arm"), method="cbb")
    assert notes == [
        "block 0: arm longer than one block: use the empty-block transformation; "
        "fell back to ebb",
        "block 0: inserted block 3 (ebb)",
    ]
    assert balanced.blocks == apply_balancing(load("long_arm"))[0].blocks


def test_cbb_arm_with_store_unsupported(check_bit):
    balanced, notes = apply_balancing(check_bit, method="cbb")
    assert notes == [
        "block 0: arm stores to memory: copying it would clobber the slot, "
        "use the empty-block transformation; fell back to ebb",
        "block 0: inserted block 2 (ebb)",
    ]
    assert _nop_blocks(balanced) == [2]


@pytest.mark.parametrize(
    "edges, n, bodies, branch",
    [
        # block 2 is the arm of branch 1, and block 0 jumps into it too
        ({0: (1, 2), 1: (2, 3), 2: (3,)}, 4, {2: ["  t = add x, x"]}, 1),
        # the arm of branch 0 has no op that could take up a cycle
        ({0: (1, 2), 1: (2,)}, 3, {}, 0),
    ],
)
def test_cbb_arm_shared_or_empty_gets_nops(edges, n, bodies, branch):
    func = _secret_graph(edges, n, bodies)
    balanced, notes = apply_balancing(func, method="cbb")
    assert notes == [
        f"block {branch}: arm is empty or entered from elsewhere: use the empty-block "
        "transformation; fell back to ebb",
        f"block {branch}: inserted block {branch + 1} (ebb)",
    ]
    assert _nop_blocks(balanced) == [branch + 1]
    assert _same_results(func, balanced, seed=13)


def test_apply_balancing_handles_two_branches():
    func = load("two_branches")
    balanced, notes = apply_balancing(func)
    assert len(notes) == 2
    sets = extract_secret_path_sets(balanced, infer_types(balanced))
    for s in sets:
        lengths = {len(p) for p in s.paths}
        assert len(lengths) == 1
    assert _same_results(func, balanced, seed=11)


def _all_dag_edges(n: int) -> list[dict[int, tuple[int, ...]]]:
    """Every successor map that `dag_edges` can draw for n blocks."""
    shapes: list[dict[int, tuple[int, ...]]] = [{}]
    targeted: list[set[int]] = [set()]
    for i in range(n - 1):
        grown, grown_targeted = [], []
        for edges, done in zip(shapes, targeted):
            options: list[tuple[int, ...]] = [(i + 1,)] + [(i + 1, t) for t in range(i + 2, n)]
            if i + 1 in done:
                options += [()] + [(t,) for t in range(i + 2, n)]
            for succ in options:
                grown.append({**edges, i: succ} if succ else dict(edges))
                grown_targeted.append(done | set(succ))
        shapes, targeted = grown, grown_targeted
    return shapes


def _secret_graph(edges, n: int, bodies=None) -> FunctionIR:
    """`_graph` with every branch on the secret y."""
    return _graph(edges, n, "x:public, y:secret", bodies)


def test_every_small_cfg_balances_in_one_pass():
    counts = {}
    for n in (3, 4, 5, 6):
        shapes = _all_dag_edges(n)
        counts[n] = len(shapes)
        for edges in shapes:
            func = _secret_graph(edges, n)
            start = time.process_time()
            analyzed = analyze(func, TIGHT8, mode=Mode.TSC)
            assert time.process_time() - start < 0.1, edges
            # at most one pad per edge of a secret region, each with at
            # most one jump block behind it
            region_edges = {
                e for s in extract_secret_path_sets(func, infer_types(func))
                for p in s.paths for e in zip(p, p[1:])
            }
            assert len(analyzed.function.blocks) <= n + 2 * len(region_edges), edges
    assert counts == {3: 3, 4: 13, 5: 75, 6: 541}


def _pipeline_ok(func: FunctionIR, balance: str) -> bool:
    analyzed = analyze(func, TIGHT8, mode=Mode.TSC, balance=balance)
    prob = build_problem(analyzed)
    result = solve_optimal(prob, time_budget=20)
    assert result.status is SolveStatus.OPTIMAL
    assert check_solution(result.solution, prob) == []
    program = encode(prob.function, to_schedule(prob, result.solution), TIGHT8)
    return check_cr(program, analyzed.function.inputs).secure


# The 3-4-block shapes include {0: (1, 3), 1: (2, 3), 2: (3,)}, on which
# the round-by-round balancing did not converge, and {0: (1, 2), 1: (2, 3)},
# where it found no room for a block.  It counted {0: (1,), 1: (2, 4),
# 2: (3, 4)} as balanced by blocks, and the solver then timed out at 20 s.
@pytest.mark.parametrize(
    "edges, n",
    [(e, n) for n in (3, 4) for e in _all_dag_edges(n)]
    + [({0: (1,), 1: (2, 4), 2: (3, 4)}, 5)],
    ids=str,
)
def test_balanced_small_cfg_solves_and_is_constant_time(edges, n):
    assert _pipeline_ok(_secret_graph(edges, n), "ebb")
    # one op in every block lets cbb copy the one-block arms
    bodies = {i: [f"  t{i} = add x, x"] for i in range(n)}
    assert _pipeline_ok(_secret_graph(edges, n, bodies), "cbb")


# ----------------------------------------------------------------------
# masking order restoration
# ----------------------------------------------------------------------


def test_restore_mask_order_fixes_broken_chain():
    func = load("masked_xor_broken")
    types = infer_types(func)
    assert types["t1"].label is SecurityLabel.SECRET  # pub ^ key leaks
    result = restore_mask_order(func)
    assert result.changed
    assert result.residual == ()
    fixed_types = infer_types(result.function)
    assert fixed_types["t1"].label is SecurityLabel.RANDOM
    assert fixed_types["t"].label is SecurityLabel.RANDOM
    # the reassociation preserves the final value on every 8-bit input:
    # sweep the full 2^24 grid in chunks
    grid = np.meshgrid(
        np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8), indexing="ij"
    )
    pub, key = (g.reshape(-1) for g in grid)
    for mask_value in range(256):
        inputs = {
            "pub": pub,
            "key": key,
            "mask": np.full(pub.shape, mask_value, dtype=np.uint8),
        }
        got = eval_ir(result.function, inputs)["<ret>"]
        want = eval_ir(func, inputs)["<ret>"]
        assert (got == want).all()


def test_restore_mask_order_keeps_safe_function(masked_xor):
    result = restore_mask_order(masked_xor)
    assert not result.changed
    assert serialize_function(result.function) == serialize_function(masked_xor)


def test_restore_mask_order_reports_residual():
    func = parse_function(
        "func f (k1:secret, k2:secret)\nblock 0\n  t = xor k1, k2\n  ret t\n"
    )
    result = restore_mask_order(func)
    assert result.residual == ("t",)


@st.composite
def xor_chain_functions(draw):
    """A single-block function whose XOR chain (any tree shape) has 2-6
    leaves: inputs of mixed labels, possibly repeated, and mov/add/or
    temps defined between the chain ops (a mov keeps a mask a mask)."""
    labels = draw(st.lists(st.sampled_from(["secret", "public", "random"]), min_size=2, max_size=4))
    inputs = [f"i{k}" for k in range(len(labels))]
    lines = ["func c (" + ", ".join(f"{n}:{l}" for n, l in zip(inputs, labels)) + ")", "block 0"]
    n = draw(st.integers(min_value=2, max_value=6))
    stack: list[str] = []
    pushed = temps = 0
    while pushed < n or len(stack) > 1:
        if pushed < n and (len(stack) < 2 or draw(st.booleans())):
            leaf = draw(st.sampled_from(inputs))
            op = draw(st.sampled_from(["", "", "mov", "add", "or"]))
            if op == "mov":
                lines.append(f"  n{pushed} = mov {leaf}")
                leaf = f"n{pushed}"
            elif op:
                other = draw(st.sampled_from(inputs))
                lines.append(f"  n{pushed} = {op} {leaf}, {other}")
                leaf = f"n{pushed}"
            stack.append(leaf)
            pushed += 1
        else:
            b, a = stack.pop(), stack.pop()
            if draw(st.booleans()):
                a, b = b, a
            lines.append(f"  x{temps} = xor {a}, {b}")
            stack.append(f"x{temps}")
            temps += 1
    lines.append(f"  ret {stack[0]}")
    return parse_function("\n".join(lines) + "\n")


def _brute_safe_order(func, chain):
    """The chain's own leaf order if safe, else the first safe permutation
    of the leaves sorted by definition site."""
    types = infer_types(func)
    op_sites = sorted(op.index for op in chain)

    def key(use) -> int:
        site = def_site(func, use) if isinstance(use, str) else None
        return -1 if site is None else site

    def valid(order) -> bool:
        acc = types[order[0]]
        for i in range(1, len(order)):
            for use in (order[i],) if i > 1 else (order[0], order[1]):
                if key(use) >= op_sites[i - 1]:
                    return False
            acc = xor_type(acc, types[order[i]])
            if acc.label is SecurityLabel.SECRET:
                return False
        return True

    leaves = _chain_leaves(chain)
    if valid(leaves):
        return leaves
    for perm in itertools.permutations(sorted(leaves, key=lambda u: (key(u), str(u)))):
        if valid(list(perm)):
            return list(perm)
    return None


@settings(max_examples=300, deadline=None)
@given(xor_chain_functions())
def test_find_safe_order_matches_permutation_oracle(func):
    for chain in _xor_chains(func):
        found = _find_safe_order(func, chain, infer_types(func))
        assert found == _brute_safe_order(func, chain)


@pytest.mark.parametrize(
    "inputs, residual",
    [
        # no prefix of two or more secrets is safe
        ([f"k{i}:secret" for i in range(9)], tuple(f"t{i}" for i in range(1, 9))),
        # every order xors the secret into a public prefix without a mask
        (["k0:secret"] + [f"p{i}:public" for i in range(1, 9)], tuple(f"t{i}" for i in range(1, 9))),
    ],
)
def test_restore_mask_order_nine_leaf_chain_is_fast(inputs, residual):
    names = [i.split(":")[0] for i in inputs]
    lines = [f"func f ({', '.join(inputs)})", "block 0", f"  t1 = xor {names[0]}, {names[1]}"]
    lines += [f"  t{i} = xor t{i - 1}, {names[i]}" for i in range(2, 9)]
    lines.append("  ret t8")
    func = parse_function("\n".join(lines) + "\n")
    start = time.process_time()
    result = restore_mask_order(func)
    assert time.process_time() - start < 1.0
    assert not result.changed
    assert result.residual == residual


def test_secret_chain_result_skips_the_order_search():
    # the chain's result, k0 ^ p1 ^ ... ^ p19, is secret, and every order
    # ends with it; searching the orders took 3.4 s at 16 leaves, and
    # about twice as long with each leaf more
    inputs = ["k0:secret"] + [f"p{i}:public" for i in range(1, 20)]
    names = [i.split(":")[0] for i in inputs]
    lines = [f"func f ({', '.join(inputs)})", "block 0", f"  t1 = xor {names[0]}, {names[1]}"]
    lines += [f"  t{i} = xor t{i - 1}, {names[i]}" for i in range(2, 20)]
    lines.append("  ret t19")
    func = parse_function("\n".join(lines) + "\n")
    start = time.process_time()
    analyzed = analyze(func, TIGHT8, mode=Mode.PSC)
    assert time.process_time() - start < 0.5
    residual = ", ".join(sorted(f"t{i}" for i in range(1, 20)))
    assert analyzed.notes == [f"residual secret intermediates: {residual}"]
    assert serialize_function(analyzed.function) == serialize_function(func)


def test_restore_mask_order_sees_earlier_rewrites():
    # x1 = n ^ s is secret, so the first chain becomes s ^ s ^ n.  x2 is
    # n again (an `or` result, public) in either order, so the second
    # chain, (x2 ^ p) ^ r, has no secret def and keeps its text.
    text = (
        "func f (s:secret, p:public, r:random)\n"
        "block 0\n"
        "  n = or p, p\n"
        "  x1 = xor n, s\n"
        "  x2 = xor x1, s\n"
        "  st t, x2\n"
        "  y1 = xor x2, p\n"
        "  y2 = xor r, y1\n"
        "  ret y2\n"
    )
    result = restore_mask_order(parse_function(text))
    assert result.changed and result.residual == ()
    fixed = text.replace("xor n, s", "xor s, s").replace("xor x1, s", "xor x1, n")
    assert serialize_function(result.function) == fixed


@st.composite
def xor_chain_programs(draw):
    """A single-block function of 2-4 XOR chains (any tree shapes) of 2-5
    leaves each.  A leaf is an input of any label, an earlier chain's
    result, a load or an `or` of two of those; a chain's result may be
    stored to one of two slots, so loads join the chains' types."""
    labels = draw(st.lists(st.sampled_from(["secret", "public", "random"]), min_size=2, max_size=4))
    values = [f"i{k}" for k in range(len(labels))]
    lines = ["func c (" + ", ".join(f"{n}:{l}" for n, l in zip(values, labels)) + ")", "block 0"]
    fresh = 0
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        n = draw(st.integers(min_value=2, max_value=5))
        stack: list[str] = []
        pushed = 0
        while pushed < n or len(stack) > 1:
            if pushed < n and (len(stack) < 2 or draw(st.booleans())):
                leaf = draw(st.sampled_from(values + ["ld", "or"]))
                if leaf == "ld":
                    lines.append(f"  l{fresh} = ld s{draw(st.integers(0, 1))}")
                elif leaf == "or":
                    a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
                    lines.append(f"  l{fresh} = or {a}, {b}")
                if leaf in ("ld", "or"):
                    leaf = f"l{fresh}"
                    fresh += 1
                stack.append(leaf)
                pushed += 1
            else:
                b, a = stack.pop(), stack.pop()
                lines.append(f"  x{fresh} = xor {a}, {b}")
                stack.append(f"x{fresh}")
                fresh += 1
        if draw(st.booleans()):
            lines.append(f"  st s{draw(st.integers(0, 1))}, {stack[0]}")
        values.append(stack[0])
    lines.append(f"  ret {values[-1]}")
    return parse_function("\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None)
@given(st.one_of(xor_chain_functions(), xor_chain_programs()))
def test_restore_mask_order_is_a_fixpoint(func):
    text = serialize_function(func)
    first = restore_mask_order(func)
    assert serialize_function(func) == text  # the argument is left as it was
    again = restore_mask_order(first.function)
    assert not again.changed
    assert serialize_function(again.function) == serialize_function(first.function)
    assert again.residual == first.residual
    assert _same_results(func, first.function, seed=0)


# ----------------------------------------------------------------------
# leak pairs
# ----------------------------------------------------------------------


def test_masked_xor_pairs(masked_xor):
    types = infer_types(masked_xor)
    pairs = gen_leak_pairs(masked_xor, types)
    assert ("mask", "mk") in pairs.rpairs  # mask ^ (key ^ mask) = key
    assert ("key", "mk") not in pairs.rpairs  # key ^ (key ^ mask) = mask
    assert ("mask", "t") in pairs.rpairs
    assert pairs.hazard_temps == {"key"}
    assert memory_conflicts(masked_xor, pairs) == []


def test_all_public_program_empty_pairs():
    func = load("two_exits")
    pairs = gen_leak_pairs(func, infer_types(func))
    assert pairs.rpairs == frozenset()
    assert memory_conflicts(func, pairs) == []
    assert pairs.hazard_temps == frozenset()


def test_mpairs_on_secret_stores():
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
    pairs = gen_leak_pairs(func, infer_types(func))
    ops = {op.index: op for op in func.all_ops()}
    st_pairs = [
        (a, b)
        for a, b in memory_conflicts(func, pairs)
        if ops[a].opcode.value == "st" and ops[b].opcode.value == "st"
    ]
    assert st_pairs  # mk then m on the bus transitions by k


def test_emit_analysis_deterministic(masked_xor):
    from secdiv.secanalysis import emit_analysis

    a1 = emit_analysis(analyze(masked_xor, TIGHT8))
    a2 = emit_analysis(analyze(masked_xor, TIGHT8))
    assert a1 == a2
    assert "mask" in a1 and "(mask, mk)" in a1
