from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import COPY_ARM, FOUR_SECRETS, IMPLICIT, corpus_path
from secdiv import cli
from secdiv.cli import main


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("compile")  # missing file
    assert exc.value.code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("func broken (x)\nblock 0\n  ret x\n")
    assert run_cli("compile", bad, "--out", tmp_path / "out") == 2
    assert "error" in capsys.readouterr().err


def test_missing_opcode_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("func f (x:public)\nblock 0\n  y =\n  ret x\n")
    assert run_cli("compile", bad, "--out", tmp_path / "out") == 2
    assert "missing opcode" in capsys.readouterr().err


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    # int() reads the superscript as a digit and then fails on it
    bad = tmp_path / "bad.mir"
    bad.write_text("func f (x:public)\nblock 0\n  y = li \u00b2\n  ret y\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("diversify", bad, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 3:")
    assert not out.exists()


def test_missing_file_exit_code(tmp_path, capsys):
    assert run_cli("compile", tmp_path / "nope.mir", "--out", tmp_path / "out") == 2


# every memory-access order pairs the hazardous values: PSC unsat
UNSAT_TEXT = (
    "func f (k:secret, m:random)\n"
    "block 0\n"
    "  mk = xor k, m\n"
    "  st s1, mk\n"
    "  st s2, m\n"
    "  r = ld s1\n"
    "  ret r\n"
)


def test_unsat_exit_code(tmp_path, capsys):
    src = tmp_path / "unsat.mir"
    src.write_text(UNSAT_TEXT)
    rc = run_cli("compile", src, "--mode", "psc", "--out", tmp_path / "out")
    assert rc == 3
    assert "unsat" in capsys.readouterr().err


def test_naive_unsat_base_exit_code(tmp_path, capsys):
    # naive mode grows its pool from a psc base here, which is unsat
    src = tmp_path / "unsat.mir"
    src.write_text(UNSAT_TEXT)
    rc = run_cli("diversify", src, "--mode", "naive", "--variants", "4", "--out", tmp_path / "out")
    assert rc == 3
    assert "unsat" in capsys.readouterr().err


def test_compile_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli(
        "compile", corpus_path("check_bit"), "--mode", "tsc", "--out", out,
        "--budget-secs", "60",
    )
    assert rc == 0
    run_dir = out / "check_bit-tsc-g0"
    payload = json.loads((run_dir / "compile.json").read_text())
    assert payload["mode"] == "tsc"
    assert payload["overhead_percent"] > 0  # balancing costs cycles
    assert (run_dir / "base.bin").exists()
    assert (run_dir / "transformed.mir").exists()
    assert "overhead" in capsys.readouterr().out


def test_compile_none_has_no_baseline(tmp_path):
    out = tmp_path / "out"
    assert run_cli("compile", corpus_path("straightline"), "--out", out) == 0
    payload = json.loads((out / "straightline-none-g0" / "compile.json").read_text())
    assert payload["baseline_objective"] is None
    assert payload["objective"] == "4"


def test_compile_psc_reports_pairs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli(
        "compile", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--emit-analysis",
    )
    assert rc == 0
    analysis = (out / "masked_xor-psc-g0" / "analysis.txt").read_text()
    assert "(mask, mk)" in analysis
    assert "(mask, mk)" in capsys.readouterr().out


def test_compile_emit_model(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "compile", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--emit-model",
    )
    assert rc == 0
    assert "(rot-conflict" in (out / "masked_xor-psc-g0" / "model.sx").read_text()


def test_diversify_manifest_and_variants(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--variants", "8", "--gap", "10", "--seed", "5", "--budget-secs", "120",
    )
    assert rc == 0
    run_dir = out / "masked_xor-psc-g10"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["produced"] == 8
    assert manifest["reason"] == "complete"
    for i in range(8):
        assert (run_dir / f"variant_{i:03d}.bin").exists()
    assert manifest["variants"][0]["distance_to_base"] == 0
    assert all(v["distance_to_base"] >= 1 for v in manifest["variants"][1:])


def test_exhausted_report(tmp_path):
    out = tmp_path / "out"
    rc = run_cli(
        "diversify", corpus_path("minimal"), "--out", out, "--variants", "200",
        "--gap", "100", "--budget-secs", "60",
    )
    assert rc == 0
    manifest = json.loads((out / "minimal-none-g100" / "manifest.json").read_text())
    assert manifest["reason"] == "exhausted"
    assert manifest["produced"] < 200


def test_manifest_byte_identical_across_reruns(tmp_path):
    args = lambda d: (
        "diversify", corpus_path("check_bit"), "--mode", "tsc", "--out", d,
        "--variants", "6", "--gap", "10", "--seed", "3", "--budget-secs", "120",
    )
    assert run_cli(*args(tmp_path / "a")) == 0
    assert run_cli(*args(tmp_path / "b")) == 0
    ma = (tmp_path / "a" / "check_bit-tsc-g10" / "manifest.json").read_bytes()
    mb = (tmp_path / "b" / "check_bit-tsc-g10" / "manifest.json").read_bytes()
    assert ma == mb
    for i in range(6):
        va = (tmp_path / "a" / "check_bit-tsc-g10" / f"variant_{i:03d}.bin").read_bytes()
        vb = (tmp_path / "b" / "check_bit-tsc-g10" / f"variant_{i:03d}.bin").read_bytes()
        assert va == vb


def test_verify_secure_pool_passes(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "diversify", corpus_path("check_bit"), "--mode", "tsc", "--out", out,
        "--variants", "5", "--gap", "10", "--budget-secs", "120",
    )
    rc = run_cli("verify", corpus_path("check_bit"), "--pool", out / "check_bit-tsc-g10")
    assert rc == 0
    verdicts = json.loads((out / "check_bit-tsc-g10" / "verify.json").read_text())
    assert verdicts["failures"] == 0
    assert verdicts["cr_violation_rate"] == 0


def test_verify_naive_pool_reports_breakage(tmp_path):
    out = tmp_path / "out"
    run_cli(
        "diversify", corpus_path("check_bit"), "--mode", "naive", "--out", out,
        "--variants", "20", "--seed", "0", "--budget-secs", "120",
    )
    rc = run_cli("verify", corpus_path("check_bit"), "--pool", out / "check_bit-naive-g0")
    assert rc == 0  # the unaware baseline has no security contract
    verdicts = json.loads((out / "check_bit-naive-g0" / "verify.json").read_text())
    assert verdicts["cr_violation_rate"] > 0


def test_verify_flags_tampered_variant(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(
        "diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--variants", "3", "--budget-secs", "60",
    )
    pool = out / "masked_xor-psc-g0"
    # tamper: swap variant 1 for a program computing something else
    from secdiv.machine import Instr, MachineProgram, Opcode

    rogue = MachineProgram(
        profile_name="tight8",
        num_inputs=3,
        blocks=[[Instr(Opcode.ADD, 3, 1, 2), Instr(Opcode.RET, 3)]],
    )
    (pool / "variant_001.bin").write_bytes(rogue.to_bytes())
    rc = run_cli("verify", corpus_path("masked_xor"), "--pool", pool)
    assert rc == 5
    assert "mismatch" in (pool / "verify.txt").read_text()


def test_verify_txt_counts_every_proven_variant_equivalent(tmp_path, capsys):
    """perfbench/run.py counts the lines holding
    "\\tequivalence\\tequivalent\\t" and wants one per variant past
    variant 0; a proven variant's line is one of them."""
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("long_arm"), "--mode", "tsc", "--out", out,
                   "--variants", "8", "--gap", "5") == 0
    pool = out / "long_arm-tsc-g5"
    assert run_cli("verify", corpus_path("long_arm"), "--pool", pool) == 0
    produced = json.loads((pool / "manifest.json").read_text())["produced"]
    assert produced > 2
    lines = (pool / "verify.txt").read_text().splitlines()
    equivalent = [l for l in lines if "\tequivalence\tequivalent\t" in l]
    assert equivalent == [
        f"variant_{i:03d}\tequivalence\tequivalent\tproven\t-" for i in range(1, produced)
    ]


def test_verify_rejects_another_functions_pool(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("minimal"), "--out", out, "--variants", "1") == 0
    pool = out / "minimal-none-g0"
    capsys.readouterr()
    assert run_cli("verify", corpus_path("straightline"), "--pool", pool) == 2
    assert capsys.readouterr().err == f"error: pool {pool} holds minimal, not straightline\n"
    assert not (pool / "verify.json").exists()


def test_verify_rejects_empty_pool(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("minimal"), "--out", out, "--variants", "1") == 0
    pool = out / "minimal-none-g0"
    manifest = json.loads((pool / "manifest.json").read_text())
    manifest["produced"] = 0
    (pool / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("verify", corpus_path("minimal"), "--pool", pool) == 2
    assert capsys.readouterr().err == f"error: pool {pool} holds no variants\n"
    assert not (pool / "verify.json").exists()


# what verify says about each damaged variant
_VARIANT_DAMAGE = {
    "truncated": "truncated",
    "loops": "block 0 branches to block 0",
    "word after ret": "block 0 has words after its ret",
    "copy": "block 0 holds copy, not a machine opcode",
    "falls off": "the last block does not end in ret",
}


@pytest.mark.parametrize("damage", list(_VARIANT_DAMAGE))
def test_verify_rejects_malformed_variant(tmp_path, capsys, damage):
    out = tmp_path / "out"
    run_cli(
        "diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--variants", "2", "--budget-secs", "60",
    )
    pool = out / "masked_xor-psc-g0"
    variant = pool / "variant_001.bin"
    from secdiv.machine import Instr, MachineProgram, Opcode

    program = MachineProgram.from_bytes(variant.read_bytes())
    (block,) = program.blocks  # masked_xor is one block, ending in ret
    block = list(block)
    if damage == "truncated":
        variant.write_bytes(variant.read_bytes()[:-6])
    elif damage == "loops":  # b 0: a lane would never leave block 0
        variant.write_bytes(MachineProgram("tight8", 3, [[Instr(Opcode.B, 0)]]).to_bytes())
    else:
        if damage == "word after ret":
            block.append(Instr(Opcode.NOP))
        elif damage == "copy":
            block.insert(0, Instr(Opcode.COPY, 1, 0))
        else:
            block.pop()
        variant.write_bytes(replace(program, blocks=[block]).to_bytes())
    capsys.readouterr()
    assert run_cli("verify", corpus_path("masked_xor"), "--pool", pool) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _VARIANT_DAMAGE[damage] in err
    assert not (pool / "verify.json").exists()


def _naive_check_bit_pool(out: Path) -> Path:
    assert run_cli("diversify", corpus_path("check_bit"), "--mode", "naive", "--out", out,
                   "--variants", "4", "--seed", "0") == 0
    return out / "check_bit-naive-g0"


@pytest.mark.parametrize("change", ["relabel", "delete"])
def test_verify_takes_the_labels_from_file(tmp_path, capsys, change):
    """Not from the pool's own transformed.mir: relabelling its secret
    public, or deleting it, changes no verdict."""
    pool = _naive_check_bit_pool(tmp_path / "out")
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 0
    expected = [(pool / name).read_text() for name in ("verify.txt", "verify.json")]
    assert "variant_001\tcr\tinsecure" in expected[0]
    transformed = pool / "transformed.mir"
    if change == "relabel":
        text = transformed.read_text()
        assert "key:secret" in text
        transformed.write_text(text.replace("key:secret", "key:public"))
    else:
        transformed.unlink()
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 0
    assert [(pool / name).read_text() for name in ("verify.txt", "verify.json")] == expected


def test_verify_decodes_each_variant_once(tmp_path, monkeypatch):
    from secdiv import machine

    pool = _naive_check_bit_pool(tmp_path / "out")
    calls = {"_decode": 0, "to_bytes": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(machine, "_decode", counted("_decode", machine._decode))
    monkeypatch.setattr(machine.MachineProgram, "to_bytes",
                        counted("to_bytes", machine.MachineProgram.to_bytes))
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 0
    assert calls == {"_decode": 4, "to_bytes": 0}


@pytest.mark.parametrize("differs", ["variant", "file"])
def test_verify_rejects_a_variant_with_another_input_count(tmp_path, capsys, differs):
    """Before any oracle runs: FILE's labels would name other registers."""
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
                   "--variants", "2") == 0
    pool = out / "masked_xor-psc-g0"
    src = corpus_path("masked_xor")
    from secdiv.machine import Instr, MachineProgram, Opcode

    if differs == "variant":
        rogue = MachineProgram("tight8", 2, [[Instr(Opcode.XOR, 2, 0, 1), Instr(Opcode.RET, 2)]])
        (pool / "variant_001.bin").write_bytes(rogue.to_bytes())
        message = f"error: pool {pool}: variant_001.bin takes 2 inputs, masked_xor takes 3\n"
    else:
        src = tmp_path / "masked_xor.mir"
        src.write_text(corpus_path("masked_xor").read_text().replace(
            "mask:random)", "mask:random, spare:public)"))
        message = f"error: pool {pool}: variant_000.bin takes 3 inputs, masked_xor takes 4\n"
    capsys.readouterr()
    assert run_cli("verify", src, "--pool", pool) == 2
    assert capsys.readouterr().err == message
    assert not (pool / "verify.json").exists()


@pytest.mark.parametrize("command", ["verify", "gadgets"])
@pytest.mark.parametrize(
    "damage, message",
    [
        ("not json", "manifest.json is not JSON: "),
        ("no produced", "manifest.json lacks produced"),
        ("unknown profile", "unknown profile 'huge64'"),
        ("produced '2'", "manifest.json has produced '2', not a non-negative integer"),
        ("produced True", "manifest.json has produced True, not a non-negative integer"),
        ("produced -1", "manifest.json has produced -1, not a non-negative integer"),
        ("seed '1'", "manifest.json has seed '1', not a non-negative integer"),
        ("mode 'TSC'", "manifest.json has mode 'TSC', not one of tsc, psc, none, naive"),
        ("mode 'tcs'", "manifest.json has mode 'tcs', not one of tsc, psc, none, naive"),
    ],
)
def test_bad_manifest_exits_2(tmp_path, capsys, command, damage, message):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("minimal"), "--out", out, "--variants", "2") == 0
    pool = out / "minimal-none-g0"
    path = pool / "manifest.json"
    manifest = json.loads(path.read_text())
    if damage == "not json":
        path.write_text(path.read_text()[:-3])
    elif damage == "no produced":
        del manifest["produced"]
        path.write_text(json.dumps(manifest))
    elif damage == "unknown profile":
        manifest["profile"] = "huge64"
        path.write_text(json.dumps(manifest))
    else:
        field, value = damage.split()
        manifest[field] = {
            "'2'": "2", "'1'": "1", "'TSC'": "TSC", "'tcs'": "tcs", "True": True, "-1": -1
        }[value]
        path.write_text(json.dumps(manifest))
    capsys.readouterr()
    args = ("verify", corpus_path("minimal")) if command == "verify" else ("gadgets",)
    assert run_cli(*args, "--pool", pool) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: pool {pool}: {message}") and err.count("\n") == 1
    assert not (pool / "verify.json").exists() and not (pool / "gadgets.json").exists()


@pytest.mark.parametrize(
    "case",
    [
        "file not utf-8", "file a directory", "pool a file", "variant a directory",
        "manifest not utf-8 verify", "manifest not utf-8 gadgets", "manifest not utf-8 report",
        "timing.log not utf-8", "out a file",
    ],
)
def test_unreadable_path_exits_2(tmp_path, capsys, case):
    out = tmp_path / "out"
    source = corpus_path("minimal")
    assert run_cli("diversify", source, "--out", out, "--variants", "2") == 0
    pool = out / "minimal-none-g0"
    undecodable, regular = b"\xff\xfe", tmp_path / "regular"
    regular.write_text("")
    if case == "file not utf-8":
        source = tmp_path / "bad.mir"
        source.write_bytes(undecodable)
        args = ("compile", source, "--out", out)
    elif case == "file a directory":
        args = ("compile", tmp_path, "--out", out)
    elif case == "pool a file":
        args = ("verify", source, "--pool", regular)
    elif case == "variant a directory":
        (pool / "variant_000.bin").unlink()
        (pool / "variant_000.bin").mkdir()
        args = ("verify", source, "--pool", pool)
    elif case.startswith("manifest"):
        (pool / "manifest.json").write_bytes(undecodable)
        args = {
            "verify": ("verify", source, "--pool", pool),
            "gadgets": ("gadgets", "--pool", pool),
            "report": ("report", "--out", out),
        }[case.split()[-1]]
    elif case == "timing.log not utf-8":
        (pool / "timing.log").write_bytes(undecodable)
        args = ("report", "--out", out, "--with-times")
    else:
        args = ("diversify", source, "--out", regular)
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# (verify exit, failures, cr rate, psc rate) of a naive pool relabelled as
# each mode: the rates are the pool's own, and only the oracle of the
# label fails it.  check_bit's psc label fails too: a psc pool runs the psc
# oracle even without a random input, and all 4 variants leak
_RELABELLED = {
    "check_bit": {
        "tsc": (5, 2, 0.5, None), "psc": (5, 4, 0.5, 1), "none": (0, 0, 0.5, None),
        "naive": (0, 0, 0.5, None),
    },
    "masked_xor": {
        "tsc": (0, 0, None, 0.5), "psc": (5, 2, None, 0.5), "none": (0, 0, None, 0.5),
        "naive": (0, 0, None, 0.5),
    },
}


@pytest.mark.parametrize("name", list(_RELABELLED))
def test_verify_holds_each_mode_to_its_oracle(tmp_path, name):
    out = tmp_path / "out"
    src = corpus_path(name)
    # a gap of 0 and a distance of 1 are a naive pool's own, so they pass
    assert run_cli("diversify", src, "--mode", "naive", "--variants", 4, "--seed", 0,
                   "--gap", 0, "--dthresh", 1, "--out", out) == 0
    pool = out / f"{name}-naive-g0"
    manifest = json.loads((pool / "manifest.json").read_text())
    got = {}
    for mode in _RELABELLED[name]:
        (pool / "manifest.json").write_text(json.dumps({**manifest, "mode": mode}))
        code = run_cli("verify", src, "--pool", pool)
        v = json.loads((pool / "verify.json").read_text())
        got[mode] = (code, v["failures"], v["cr_violation_rate"], v["psc_violation_rate"])
    assert got == _RELABELLED[name]


@pytest.mark.parametrize("option, value", [("--gap", 10), ("--dthresh", 5)])
def test_naive_diversify_rejects_a_gap_or_a_distance(tmp_path, capsys, option, value):
    """A naive pool is not searched, so neither bound would apply."""
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("check_bit"), "--mode", "naive", option, value,
                   "--out", out) == 2
    assert capsys.readouterr().err == "error: --gap and --dthresh do not apply to --mode naive\n"
    assert not out.exists()


def test_verify_gives_four_secrets_an_exact_cr_verdict(tmp_path, capsys):
    src = tmp_path / "four.mir"
    src.write_text(FOUR_SECRETS)
    out = tmp_path / "out"
    assert run_cli("diversify", src, "--mode", "tsc", "--out", out, "--variants", "2") == 0
    pool = out / "f-tsc-g0"
    start = time.process_time()
    assert run_cli("verify", src, "--pool", pool) == 0
    assert time.process_time() - start < 1.0
    lines = (pool / "verify.txt").read_text().splitlines()
    assert [l for l in lines if "\tcr\t" in l] == [f"variant_00{i}\tcr\tsecure" for i in range(2)]
    verdicts = json.loads((pool / "verify.json").read_text())
    assert verdicts["incomplete"] is False
    assert (verdicts["failures"], verdicts["cr_violation_rate"]) == (0, 0)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode, code", [("tsc", 5), ("none", 0)])
def test_verify_flags_a_branch_on_an_implicit_flow(tmp_path, capsys, mode, code):
    """The analysis misses the branch on r (see IMPLICIT); the oracle
    does not.  Only a tsc pool counts a cr failure."""
    src = tmp_path / "implicit.mir"
    src.write_text(IMPLICIT)
    out = tmp_path / "out"
    assert run_cli("diversify", src, "--mode", mode, "--out", out, "--variants", "3") == 0
    pool = out / f"implicit-{mode}-g0"
    assert run_cli("verify", src, "--pool", pool) == code
    lines = (pool / "verify.txt").read_text().splitlines()
    produced = json.loads((pool / "manifest.json").read_text())["produced"]
    assert [l for l in lines if "\tcr\t" in l] == [
        f"variant_{i:03d}\tcr\tinsecure" for i in range(produced)
    ]
    assert json.loads((pool / "verify.json").read_text())["cr_violation_rate"] == 1


@pytest.mark.parametrize("gap", [25, 50])
def test_a_copy_that_ends_a_secret_arm_keeps_its_pool_constant_resource(tmp_path, capsys, gap):
    """A register copy at the end of COPY_ARM's arm takes both cycles of
    its slot there (a NOP pads it), so every variant runs the cycles the
    model balanced and the oracle passes all 20 (it found 10 insecure at
    either gap when the block lost the copy's second cycle)."""
    src = tmp_path / "tc.mir"
    src.write_text(COPY_ARM)
    out = tmp_path / "out"
    args = ("--mode", "tsc", "--gap", gap, "--variants", "20", "--seed", "0", "--out", out)
    assert run_cli("diversify", src, *args) == 0
    assert run_cli("verify", src, "--pool", out / f"tc-tsc-g{gap}") == 0
    assert capsys.readouterr().err == ""


def test_verify_checks_a_psc_pool_whose_file_has_no_random_input(tmp_path, capsys):
    """check_bit has no random input, yet its psc pool is built to resist
    power leaks; its branch leaks through an implicit flow, which the psc
    oracle sees."""
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("check_bit"), "--mode", "psc", "--out", out,
                   "--variants", "4", "--gap", "10") == 0
    pool = out / "check_bit-psc-g10"
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 5
    lines = (pool / "verify.txt").read_text().splitlines()
    assert [l for l in lines if "\tpsc\t" in l] == [
        f"variant_{i:03d}\tpsc\tinsecure" for i in range(4)
    ]
    verdicts = json.loads((pool / "verify.json").read_text())
    assert (verdicts["failures"], verdicts["psc_violation_rate"]) == (4, 1)
    assert "4 oracle failures" in capsys.readouterr().err


def test_verify_runs_without_the_analysis(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("check_bit"), "--mode", "tsc", "--out", out,
                   "--variants", "4", "--gap", "10") == 0
    pool = out / "check_bit-tsc-g10"
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 0
    expected = (pool / "verify.txt").read_text()
    assert expected.count("\tcr\tsecure") == 4

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran the analysis")

    monkeypatch.setattr(cli, "analyze", refuse)
    (pool / "verify.txt").unlink()
    assert run_cli("verify", corpus_path("check_bit"), "--pool", pool) == 0
    assert (pool / "verify.txt").read_text() == expected


def test_verify_does_not_import_numpy_random(tmp_path):
    """Sampled equivalence inputs come from the standard library's
    generator: numpy.random costs a verify process about 11 ms."""
    out = tmp_path / "out"
    mir = corpus_path("modexp_step")
    assert run_cli("diversify", mir, "--mode", "tsc", "--out", out, "--variants", "2") == 0
    script = (
        "import sys\n"
        "from secdiv.cli import main\n"
        f"code = main(['verify', {str(mir)!r}, '--pool', {str(out / 'modexp_step-tsc-g0')!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_compile_balances_nested_secret_branches(tmp_path, capsys):
    # the 4-block shape {0: (1, 2), 1: (2, 3)} of dag_edges in
    # test_secanalysis.py, branching on a secret: block 1 falls through a
    # conditional into 2, so the pad of the edge 0 -> 2 cannot take that
    # slot and the fall-through reaches 2 through a jump of its own
    src = tmp_path / "nested.mir"
    src.write_text(
        "func g (x:secret, y:public)\n"
        "block 0\n  beq x, y, 2\n"
        "block 1\n  beq x, y, 3\n"
        "block 2\n  ret x\n"
        "block 3\n  ret x\n"
    )
    out = tmp_path / "out"
    assert run_cli("compile", src, "--mode", "tsc", "--out", out) == 0
    assert run_cli(
        "diversify", src, "--mode", "tsc", "--out", out, "--variants", "4", "--gap", "10"
    ) == 0
    assert run_cli("verify", src, "--pool", out / "g-tsc-g10") == 0
    verify_txt = (out / "g-tsc-g10" / "verify.txt").read_text()
    assert verify_txt.count("\tcr\tsecure") == 4
    assert json.loads((out / "g-tsc-g10" / "verify.json").read_text())["failures"] == 0
    assert capsys.readouterr().err == ""


def test_gadgets_command(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(
        "diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--variants", "6", "--gap", "10", "--budget-secs", "60",
    )
    rc = run_cli("gadgets", "--pool", out / "masked_xor-psc-g10", "--format", "csv")
    assert rc == 0
    captured = capsys.readouterr().out
    assert "pct_zero" in captured
    payload = json.loads((out / "masked_xor-psc-g10" / "gadgets.json").read_text())
    assert payload["pairs"] == 30


@pytest.mark.parametrize("value", [0, -1])
def test_gadgets_rejects_k_below_1(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("minimal"), "--out", out, "--variants", "2") == 0
    pool = out / "minimal-none-g0"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("gadgets", "--pool", pool, "--k", value)
    assert exc.value.code == 2
    assert "argument --k: must be at least 1" in capsys.readouterr().err
    assert not (pool / "gadgets.json").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--gap", -10), ("--variants", 0), ("--variants", -3), ("--dthresh", 0), ("--seed", -1)],
)
def test_diversify_rejects_out_of_range_numbers(tmp_path, capsys, option, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("diversify", corpus_path("check_bit"), "--mode", "tsc", option, value,
                "--out", out)
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compile", "diversify"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_budget_must_be_finite_and_positive(tmp_path, capsys, command, value):
    # a NaN deadline never passes, so nan would turn the budget off
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, corpus_path("check_bit"), "--mode", "tsc", "--budget-secs", value,
                "--out", out)
    assert exc.value.code == 2
    assert "argument --budget-secs: must be a finite number above 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compile", "diversify"])
def test_budget_covers_both_solves_of_a_command(tmp_path, capsys, monkeypatch, command):
    # on a fake clock every solve takes 3 s: the second solve of a 10 s
    # budget gets the 7 s the first left
    clock = [100.0]
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    budgets = []

    def spending(solve):
        def timed(prob, *args, time_budget, **kwargs):
            budgets.append(time_budget)
            clock[0] += 3
            return solve(prob, *args, time_budget=60, **kwargs)
        return timed

    monkeypatch.setattr(cli.solver, "solve_optimal", spending(cli.solver.solve_optimal))
    monkeypatch.setattr(cli.solver, "diversify", spending(cli.solver.diversify))
    pool = ["--variants", "2"] if command == "diversify" else []
    assert run_cli(command, corpus_path("check_bit"), "--mode", "tsc", *pool,
                   "--budget-secs", "10", "--out", tmp_path / "out") == 0
    assert budgets == [10, 7]


def test_report_aggregates(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("compile", corpus_path("check_bit"), "--mode", "tsc", "--out", out,
            "--budget-secs", "60")
    run_cli(
        "diversify", corpus_path("masked_xor"), "--mode", "psc", "--out", out,
        "--variants", "4", "--budget-secs", "60",
    )
    run_cli("gadgets", "--pool", out / "masked_xor-psc-g0")
    capsys.readouterr()
    rc = run_cli("report", "--out", out)
    assert rc == 0
    text = capsys.readouterr().out
    assert "security overhead" in text
    assert "variant pools" in text
    assert "gadget overlap" in text
    assert "check_bit" in text and "masked_xor" in text


def test_report_with_times_adds_only_the_seconds_column(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("compile", corpus_path("straightline"), "--out", out, "--budget-secs", "30")
    for gap in (0, 10):
        run_cli("diversify", corpus_path("straightline"), "--variants", 3, "--gap", gap,
                "--out", out, "--budget-secs", "30")
    run_cli("gadgets", "--pool", out / "straightline-none-g10")
    capsys.readouterr()
    assert run_cli("report", "--out", out, "--format", "csv") == 0
    plain = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert run_cli("report", "--out", out, "--format", "csv", "--with-times") == 0
    timed = list(csv.reader(io.StringIO(capsys.readouterr().out)))

    # the pool header and the two pool rows gain a last cell; every other
    # row of every section is unchanged
    assert ["function", "mode", "gap", "pairs", "pct_zero", "pct_low", "pct_high"] in plain
    assert len(timed) == len(plain)
    changed = [(t, p) for t, p in zip(timed, plain) if t != p]
    assert all(t[:-1] == p for t, p in changed)
    logs = [
        cli._time_lines(out / f"straightline-none-g{gap}")["diversify_seconds"] for gap in (0, 10)
    ]
    assert [t[-1] for t, _ in changed] == ["seconds"] + logs


def test_report_shows_the_diversify_time_after_a_compile(tmp_path, capsys):
    # compile and a gap-0 diversify share one run directory; each keeps
    # its own line of timing.log, and the pool row reads diversify's
    out = tmp_path / "out"
    run = out / "straightline-none-g0"
    assert run_cli("diversify", corpus_path("straightline"), "--variants", 3,
                   "--out", out, "--budget-secs", "30") == 0
    (run / "timing.log").write_text("diversify_seconds\t7.000\n")
    assert run_cli("compile", corpus_path("straightline"), "--out", out,
                   "--budget-secs", "30") == 0
    lines = (run / "timing.log").read_text().splitlines()
    assert lines[0] == "diversify_seconds\t7.000"
    assert [line.split("\t")[0] for line in lines] == ["diversify_seconds", "compile_seconds"]
    capsys.readouterr()
    assert run_cli("report", "--out", out, "--format", "csv", "--with-times") == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert ["straightline", "none", "0", "3", "3", "complete", "7.000"] in rows


def test_report_missing_dir(tmp_path, capsys):
    assert run_cli("report", "--out", tmp_path / "empty") == 2
    assert "no such output" in capsys.readouterr().err


def test_report_rejects_a_manifest_that_is_not_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("diversify", corpus_path("minimal"), "--out", out, "--variants", "2") == 0
    path = out / "minimal-none-g0" / "manifest.json"
    path.write_text(path.read_text()[:-3])
    capsys.readouterr()
    assert run_cli("report", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} is not JSON\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("manifest.json", "[]", "is not a JSON object"),
        ("manifest.json", '{"function": "f"}',
         "lacks mode, gap_percent, requested, produced, reason"),
        ("compile.json", '"text"', "is not a JSON object"),
        ("compile.json", '{"function": "f", "mode": "none"}', "lacks profile, objective"),
        ("gadgets.json", "[1, 2]", "is not a JSON object"),
        ("gadgets.json", '{"pairs": 1}', "lacks zero, low, high"),
        ("verify.json", "null", "is not a JSON object"),
        ("verify.json", '{"variants": 2}', "lacks function"),
    ],
)
def test_report_rejects_a_run_file_without_the_fields_it_reads(
    tmp_path, capsys, name, text, message
):
    out = tmp_path / "out"
    minimal = corpus_path("minimal")
    assert run_cli("diversify", minimal, "--mode", "naive", "--out", out, "--variants", "2") == 0
    pool = out / "minimal-naive-g0"
    assert run_cli("verify", minimal, "--pool", pool) == 0
    assert run_cli("gadgets", "--pool", pool) == 0
    path = pool / name
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("report", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, field, value, message",
    [
        ("gadgets.json", "pairs", "3", "has pairs '3', not a non-negative integer"),
        ("gadgets.json", "low", -1, "has low -1, not a non-negative integer"),
        ("gadgets.json", "zero", 1.0, "has zero 1.0, not a non-negative integer"),
        ("manifest.json", "requested", True, "has requested True, not a non-negative integer"),
        ("manifest.json", "mode", "TSC", "has mode 'TSC', not one of tsc, psc, none, naive"),
        ("verify.json", "cr_violation_rate", "0.5",
         "has cr_violation_rate '0.5', not a number or null"),
        ("verify.json", "psc_violation_rate", [0], "has psc_violation_rate [0], not a number or null"),
        ("verify.json", "variants", None, "has variants None, not a non-negative integer"),
    ],
)
def test_report_rejects_a_run_file_field_of_the_wrong_type(
    tmp_path, capsys, name, field, value, message
):
    out = tmp_path / "out"
    minimal = corpus_path("minimal")
    assert run_cli("diversify", minimal, "--mode", "naive", "--out", out, "--variants", "2") == 0
    pool = out / "minimal-naive-g0"
    assert run_cli("verify", minimal, "--pool", pool) == 0
    assert run_cli("gadgets", "--pool", pool) == 0
    path = pool / name
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("report", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} {message}\n"
    assert captured.out == ""


def test_report_reads_a_verify_json_without_rates_as_null(tmp_path, capsys):
    out = tmp_path / "out"
    minimal = corpus_path("minimal")
    assert run_cli("diversify", minimal, "--mode", "naive", "--out", out, "--variants", "2") == 0
    pool = out / "minimal-naive-g0"
    assert run_cli("verify", minimal, "--pool", pool) == 0
    path = pool / "verify.json"
    payload = json.loads(path.read_text())
    del payload["cr_violation_rate"], payload["psc_violation_rate"]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("report", "--out", out, "--format", "csv") == 0
    assert "minimal,2,-,-" in capsys.readouterr().out


def test_report_deterministic(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("compile", corpus_path("straightline"), "--out", out, "--budget-secs", "30")
    capsys.readouterr()
    assert run_cli("report", "--out", out, "--format", "csv") == 0
    first = capsys.readouterr().out
    assert run_cli("report", "--out", out, "--format", "csv") == 0
    assert capsys.readouterr().out == first



def _session(fresh: bool, capsys) -> list:
    """diversify, verify, gadgets, a usage error, then diversify and
    gadgets with every option left at its default, run in the current
    directory; with `fresh` each call gets a newly built parser."""
    out = Path("out")
    pool = out / "check_bit-tsc-g10"
    calls = [
        ("diversify", corpus_path("check_bit"), "--mode", "tsc", "--variants", 3,
         "--gap", 10, "--seed", 5, "--dthresh", 2, "--out", out),
        ("verify", corpus_path("check_bit"), "--pool", pool),
        ("gadgets", "--pool", pool, "--k", 3, "--format", "csv"),
        ("diversify", corpus_path("check_bit"), "--variants", "many", "--out", out),
        ("diversify", corpus_path("check_bit"), "--variants", 3, "--out", out),
        ("gadgets", "--pool", out / "check_bit-none-g0"),
    ]
    results = []
    for call in calls:
        if fresh:
            cli._parser.cache_clear()
        try:
            rc = run_cli(*call)
        except SystemExit as exc:
            rc = exc.code
        results.append((rc, capsys.readouterr().out))
    files = {
        str(p): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "timing.log"
    }
    return [results, files]


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys, monkeypatch):
    cli._parser.cache_clear()
    (tmp_path / "cached").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "cached")
    cached = _session(False, capsys)
    monkeypatch.chdir(tmp_path / "fresh")
    fresh = _session(True, capsys)
    assert [rc for rc, _ in cached[0]] == [0, 0, 0, 2, 0, 0]
    assert cached == fresh
    # the last calls ran on the defaults: no value of an earlier call leaked
    manifest = json.loads((tmp_path / "cached" / "out" / "check_bit-none-g0" / "manifest.json").read_text())
    assert (manifest["mode"], manifest["seed"], manifest["dthresh"]) == ("none", 0, 1)
    assert "," not in cached[0][5][1]  # a text table, not the earlier csv
