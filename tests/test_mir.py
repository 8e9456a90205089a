from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_corpus_names, corpus_path, load
from secdiv.mir import (
    FunctionIR,
    IRSyntaxError,
    IRValidationError,
    Opcode,
    SecurityLabel,
    parse_function,
    paths,
    post_dominator,
    serialize_function,
)


def topological_check(func: FunctionIR) -> bool:
    """True when block ids already form a topological order (acyclic)."""
    return all(s > b.index for b in func.blocks for s in func.successors(b.index))


def structurally_equal(a: FunctionIR, b: FunctionIR) -> bool:
    if a.name != b.name or a.inputs != b.inputs or a.slots != b.slots:
        return False
    if len(a.blocks) != len(b.blocks):
        return False
    for ba, bb in zip(a.blocks, b.blocks):
        if ba.weight != bb.weight or ba.ops != bb.ops:
            return False
    return True


MASKED_XOR_TEXT = """\
func masked_xor (pub:public, key:secret, mask:random)
block 0
  mk = xor key, mask
  t = xor mk, pub
  ret t
"""


def test_parse_masked_xor_shape():
    func = parse_function(MASKED_XOR_TEXT)
    assert func.name == "masked_xor"
    assert [lab for _, lab in func.inputs] == [
        SecurityLabel.PUBLIC,
        SecurityLabel.SECRET,
        SecurityLabel.RANDOM,
    ]
    assert len(func.blocks) == 1
    ops = list(func.all_ops())
    assert [op.opcode for op in ops] == [Opcode.XOR, Opcode.XOR, Opcode.RET]


def test_parse_minimal_single_ret():
    func = load("minimal")
    assert len(func.blocks) == 1
    assert len(list(func.all_ops())) == 1
    assert func.blocks[0].terminator.opcode is Opcode.RET


def test_back_edge_rejected():
    text = """\
func looper (x:public)
block 0
  beq x, x, 2
block 1
  ret x
block 2
  b 1
"""
    with pytest.raises(IRValidationError, match="back edge"):
        parse_function(text)


def test_unlabeled_input_rejected():
    with pytest.raises(IRSyntaxError, match="missing label"):
        parse_function("func f (x)\nblock 0\n  ret x\n")


def test_syntax_error_carries_line_number():
    text = "func f (x:public)\nblock 0\n  y = frobnicate x\n  ret x\n"
    with pytest.raises(IRSyntaxError, match="line 3"):
        parse_function(text)


@pytest.mark.parametrize("line", ["y =", "opt y ="])
def test_def_without_opcode_rejected(line):
    text = f"func f (x:public)\nblock 0\n  {line}\n  ret x\n"
    with pytest.raises(IRSyntaxError, match="line 3:1: missing opcode"):
        parse_function(text)


def test_conditional_to_fallthrough_rejected():
    text = """\
func f (x:public)
block 0
  beq x, x, 1
block 1
  ret x
"""
    with pytest.raises(IRValidationError, match="fall-through"):
        parse_function(text)


def test_double_definition_rejected():
    text = """\
func f (x:public)
block 0
  y = li 1
  y = li 2
  ret y
"""
    with pytest.raises(IRValidationError, match="more than once"):
        parse_function(text)


def test_use_before_def_rejected():
    text = """\
func f (x:public)
block 0
  y = add z, x
  z = li 1
  ret y
"""
    with pytest.raises(IRValidationError, match="undefined temp"):
        parse_function(text)


def test_non_dominating_def_rejected():
    # the def sits on only one of the two paths into the join
    text = """\
func f (x:public)
block 0
  beq x, x, 2
block 1
  y = li 1
  b 3
block 2
  y2 = li 2
block 3
  r = add y, y
  ret r
"""
    with pytest.raises(IRValidationError, match="dominate"):
        parse_function(text)


def test_cfg_check_bit_join_shape(check_bit):
    assert check_bit.successors(0) == (1, 2)
    assert check_bit.successors(1) == (2,)
    assert check_bit.successors(2) == ()
    assert paths(check_bit) == ((0, 1, 2), (0, 2))
    assert post_dominator(check_bit, 0) == 2
    assert topological_check(check_bit)


def test_cfg_single_block(straightline):
    assert straightline.successors(0) == ()
    assert paths(straightline) == ((0,),)
    assert post_dominator(straightline, 0) is None


def test_cfg_diamond():
    text = """\
func diamond (x:public, y:public)
block 0
  s = li 1
  st slot, s
  beq x, y, 2
block 1
  a = li 2
  st slot, a
  b 3
block 2
  bb = li 3
  st slot, bb
block 3
  r = ld slot
  ret r
"""
    func = parse_function(text)
    assert func.successors(0) == (1, 2)
    assert func.successors(1) == (3,)
    assert func.successors(2) == (3,)
    assert paths(func) == ((0, 1, 3), (0, 2, 3))
    assert post_dominator(func, 0) == 3
    assert paths(func, 1) == ((1, 3),)
    assert paths(func, 0, stop=1) == ((0, 1), (0, 2, 3))


@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_round_trips_byte_identical(name):
    text = corpus_path(name).read_text()
    func = parse_function(text)
    assert serialize_function(func) == text


@pytest.mark.parametrize("name", all_corpus_names())
def test_corpus_reparse_structurally_equal(name):
    func = load(name)
    again = parse_function(serialize_function(func))
    assert structurally_equal(func, again)


def test_optional_copy_marked_opt(masked_xor):
    text = serialize_function(masked_xor)
    assert "  opt mkc = copy mk" in text


def test_comments_and_blank_lines_ignored():
    text = "# header\nfunc f (x:public)\n\nblock 0  # entry\n  ret x  # done\n"
    func = parse_function(text)
    assert len(list(func.all_ops())) == 1


# randomized structural property: serialize/parse round trip on small
# generated straight-line functions
@st.composite
def straightline_funcs(draw):
    n_ops = draw(st.integers(min_value=0, max_value=6))
    lines = ["func gen (a:public, b:secret, m:random)"]
    lines.append("block 0")
    temps = ["a", "b", "m"]
    for i in range(n_ops):
        op = draw(st.sampled_from(["add", "sub", "xor", "and", "or", "mov", "li"]))
        name = f"t{i}"
        if op == "li":
            imm = draw(st.integers(min_value=0, max_value=255))
            lines.append(f"  {name} = li {imm}")
        elif op == "mov":
            src = draw(st.sampled_from(temps))
            lines.append(f"  {name} = mov {src}")
        else:
            u1 = draw(st.sampled_from(temps))
            u2 = draw(st.sampled_from(temps))
            lines.append(f"  {name} = {op} {u1}, {u2}")
        temps.append(name)
    lines.append(f"  ret {draw(st.sampled_from(temps))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(straightline_funcs())
def test_roundtrip_property(text):
    func = parse_function(text)
    assert serialize_function(func) == text
    assert topological_check(func)


# Each opcode's operands, written out here apart from `mir.OPERANDS`: the
# number of defs and the uses of one well-formed line.  Numeric uses are
# immediates or block ids; the others are temps (x, y) or a slot (s).
_OPERAND_CASES = {
    **{op: (1, ["x", "y"]) for op in (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR)},
    Opcode.MOV: (1, ["x"]),
    Opcode.LI: (1, ["7"]),
    Opcode.LD: (1, ["s"]),
    Opcode.ST: (0, ["s", "x"]),
    Opcode.BEQ: (0, ["x", "y", "2"]),
    Opcode.BNE: (0, ["x", "y", "2"]),
    Opcode.B: (0, ["1"]),
    Opcode.RET: (0, ["x"]),
    Opcode.NOP: (0, []),
    Opcode.COPY: (1, ["x"]),
}


def _one_op_function(opcode: Opcode, ndefs: int, uses: list[str]) -> str:
    """A function whose line 3 is `opcode` with these defs and uses."""
    line = " ".join([opcode.value, ", ".join(uses)]).strip()
    tail = {
        Opcode.B: "block 1\n  ret x\n",
        Opcode.BEQ: "block 1\n  ret x\nblock 2\n  ret y\n",
        Opcode.BNE: "block 1\n  ret x\nblock 2\n  ret y\n",
        Opcode.RET: "",
    }.get(opcode, "  ret x\n")
    return f"func f (x:public, y:public)\nblock 0\n  {'d = ' * ndefs}{line}\n{tail}"


@pytest.mark.parametrize("opcode", list(Opcode))
def test_each_opcode_takes_exactly_its_operands(opcode):
    ndefs, uses = _OPERAND_CASES[opcode]
    op = parse_function(_one_op_function(opcode, ndefs, uses)).blocks[0].ops[0]
    assert (op.opcode, len(op.defs), [str(u) for u in op.uses]) == (opcode, ndefs, uses)
    wrong = [(1 - ndefs, uses), (ndefs, uses + ["x"])]
    if uses:
        wrong.append((ndefs, uses[:-1]))
    for n, use in enumerate(uses):
        other = "x" if use.isdigit() else "7"  # a name for a number, or back
        wrong.append((ndefs, uses[:n] + [other] + uses[n + 1 :]))
    for bad_defs, bad_uses in wrong:
        with pytest.raises(IRSyntaxError, match="line 3:") as exc:
            parse_function(_one_op_function(opcode, bad_defs, bad_uses))
        assert exc.value.line == 3


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (["  y = li ²", "  ret y"], 3),  # superscript two
        (["  y = li ٣", "  ret y"], 3),  # Arabic-Indic three
        (["  y = li --5", "  ret y"], 3),
        (["  beq x, x, ²", "block 1", "  ret x", "block 2", "  ret x"], 3),
        (["  b 1", "block ١", "  ret x"], 4),  # Arabic-Indic one
        (["  b 1", "block 1 weight ٢", "  ret x"], 4),  # Arabic-Indic two
    ],
)
def test_numbers_are_ascii_decimal(lines, lineno):
    text = "\n".join(["func f (x:public)", "block 0", *lines]) + "\n"
    with pytest.raises(IRSyntaxError, match=f"line {lineno}:") as exc:
        parse_function(text)
    assert exc.value.line == lineno


@pytest.mark.parametrize(
    "header",
    ["block +1", "block 0_1", "block 1 weight 1e1", "block 1 weight 1_0", "block 1 weight +2",
     "block 1 weight 0.5", "block 1 weight 3/0", "block 1 weight 3/"],
)
def test_block_header_numbers_are_ascii_digits(header):
    # int and Fraction read each of these; the format does not
    text = f"func f (x:public)\nblock 0\n  b 1\n{header}\n  ret x\n"
    with pytest.raises(IRSyntaxError, match="line 4:1: bad (block id|weight) "):
        parse_function(text)


@pytest.mark.parametrize("weight", ["3", "3/4", "03/4"])
def test_block_weight_is_a_number_or_a_fraction(weight):
    text = f"func f (x:public)\nblock 0 weight {weight}\n  ret x\n"
    assert parse_function(text).blocks[0].weight == Fraction(weight)


def test_text_after_func_header_is_rejected():
    with pytest.raises(IRSyntaxError, match="line 1:1: text after func header"):
        parse_function("func f (a:public) junk\nblock 0\n  ret a\n")
