from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_corpus_names, load
from ir_eval import eval_ir, input_grid
from secdiv.copmodel import Mode, build_problem
from secdiv.machine import TIGHT8
from secdiv.mir import (
    FunctionIR,
    SecurityLabel,
    parse_function,
    paths,
    post_dominator,
    serialize_function,
)
from secdiv.secanalysis import (
    BalanceError,
    analyze,
    apply_balancing,
    balance_cbb,
    balance_ebb,
    extract_secret_path_sets,
    gen_leak_pairs,
    get_paths,
    infer_types,
    memory_conflicts,
    restore_mask_order,
)

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


def _graph(edges: dict[int, tuple[int, ...]], n: int) -> FunctionIR:
    """A function of n blocks whose successor lists are `edges` (a block
    with none returns)."""
    lines = ["func g (x:public, y:public)"]
    for i in range(n):
        lines.append(f"block {i}")
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
def random_dags(draw):
    """Valid functions of 3-7 blocks: a block that no earlier block jumps
    to is reached by falling through from the block before it."""
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
    return _graph(edges, n)


@settings(max_examples=150, deadline=None)
@given(random_dags())
def test_get_paths_matches_dfs_oracle(func):
    assert paths(func) == _all_paths_oracle(func, 0)
    for block in func.blocks:
        if len(func.successors(block.index)) == 2:
            assert get_paths(func, block.index) == _dfs_paths_oracle(func, block.index)


_CONFIGS = {
    # the analysis each CLI mode runs: (mode, balance, fix_mask_order)
    "none": (Mode.NONE, None, False),
    "tsc-ebb": (Mode.TSC, "ebb", False),
    "tsc-cbb": (Mode.TSC, "cbb", False),
    "psc": (Mode.PSC, None, True),
}


@pytest.mark.parametrize("config", sorted(_CONFIGS))
@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_paths_match_oracle(name, config):
    mode, balance, fix_mask_order = _CONFIGS[config]
    analyzed = analyze(load(name), TIGHT8, balance=balance, fix_mask_order=fix_mask_order)
    func = analyzed.function
    prob = build_problem(func, analyzed.pairs, analyzed.psets, TIGHT8, mode=mode)
    assert prob.entry_paths == _all_paths_oracle(func, 0)
    for pset in analyzed.psets:
        assert pset.paths == _dfs_paths_oracle(func, pset.branch_block)


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
# balancing transformations
# ----------------------------------------------------------------------


def test_ebb_inserts_nop_block(check_bit):
    types = infer_types(check_bit)
    (pset,) = extract_secret_path_sets(check_bit, types)
    result = balance_ebb(check_bit, pset)
    assert result.changed
    func = result.function
    assert len(func.blocks) == 4
    nop_block = func.blocks[2]
    assert nop_block.ops and all(op.optional for op in nop_block.ops)
    # the fall-through arm now jumps over the inserted block
    assert serialize_function(func).count("b 3") == 1
    sets = extract_secret_path_sets(func, infer_types(func))
    assert sets[0].paths == ((0, 1, 3), (0, 2, 3))


def test_ebb_balanced_diamond_untouched():
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
        "  st out, c\n"
        "block 3\n"
        "  r = ld out\n"
        "  ret r\n"
    )
    func = parse_function(text)
    (pset,) = extract_secret_path_sets(func, infer_types(func))
    result = balance_ebb(func, pset)
    assert not result.changed
    assert "balanced" in result.note


def test_ebb_multi_block_arm():
    func = load("long_arm")
    (pset,) = extract_secret_path_sets(func, infer_types(func))
    result = balance_ebb(func, pset)
    assert result.changed
    assert len(result.function.blocks) == len(func.blocks) + 1


def test_ebb_preserves_semantics(check_bit):
    balanced, _ = apply_balancing(check_bit)
    rng = np.random.default_rng(7)
    inputs = input_grid(check_bit, rng, 512)
    assert (eval_ir(check_bit, inputs)["<ret>"] == eval_ir(balanced, inputs)["<ret>"]).all()


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
    (pset,) = extract_secret_path_sets(func, infer_types(func))
    result = balance_cbb(func, pset)
    assert result.changed
    new = result.function
    assert len(new.blocks) == 4
    copied = new.blocks[2]
    assert [op.opcode.value for op in copied.body] == ["li"]
    dead = copied.body[0].defs[0]
    assert dead not in {u for op in new.all_ops() for u in op.temp_uses()}
    rng = np.random.default_rng(3)
    inputs = input_grid(func, rng, 512)
    assert (eval_ir(func, inputs)["<ret>"] == eval_ir(new, inputs)["<ret>"]).all()


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
    (pset,) = extract_secret_path_sets(func, infer_types(func))
    new = balance_cbb(func, pset).function
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


def test_cbb_multi_block_arm_unsupported():
    func = load("long_arm")
    (pset,) = extract_secret_path_sets(func, infer_types(func))
    with pytest.raises(BalanceError, match="empty-block"):
        balance_cbb(func, pset)


def test_cbb_arm_with_store_unsupported(check_bit):
    (pset,) = extract_secret_path_sets(check_bit, infer_types(check_bit))
    with pytest.raises(BalanceError, match="clobber"):
        balance_cbb(check_bit, pset)


def test_apply_balancing_handles_two_branches():
    func = load("two_branches")
    balanced, notes = apply_balancing(func)
    assert len(notes) == 2
    sets = extract_secret_path_sets(balanced, infer_types(balanced))
    for s in sets:
        lengths = {len(p) for p in s.paths}
        assert len(lengths) == 1
    rng = np.random.default_rng(11)
    inputs = input_grid(func, rng, 512)
    assert (eval_ir(func, inputs)["<ret>"] == eval_ir(balanced, inputs)["<ret>"]).all()


# ----------------------------------------------------------------------
# masking order restoration
# ----------------------------------------------------------------------


def test_restore_mask_order_fixes_broken_chain():
    func = load("masked_xor_broken")
    types = infer_types(func)
    assert types["t1"].label is SecurityLabel.SECRET  # pub ^ key leaks
    result = restore_mask_order(func, types)
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
    result = restore_mask_order(masked_xor, infer_types(masked_xor))
    assert not result.changed
    assert serialize_function(result.function) == serialize_function(masked_xor)


def test_restore_mask_order_reports_residual():
    func = parse_function(
        "func f (k1:secret, k2:secret)\nblock 0\n  t = xor k1, k2\n  ret t\n"
    )
    result = restore_mask_order(func, infer_types(func))
    assert result.residual == ("t",)


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
