"""Batch command-line driver: compile, diversify, verify, gadgets, report.

Artifacts land under an output directory, one subdirectory per run named
``<function>-<mode>-g<gap>``: encoded variants (``variant_NNN.bin``), the
transformed IR (``transformed.mir``), the analysis dump, a deterministic
``manifest.json``, and a ``timing.log`` kept separate so that manifests
and reports are byte-identical across reruns with the same seed.

``verify`` takes the security labels from FILE, the source function, and
reads no file of the pool but its manifest and variants.

Each pool mode's contract is one row of ``POOL_MODES``.

Exit codes: 0 success, 2 usage error (an out-of-range option too, and a
gap or distance given to naive ``diversify``) or parse error (of the IR;
of an encoded variant, also one out of the block shape that
``machine._decode`` states, or one that takes another number of inputs
than FILE; of a pool's ``manifest.json``, also a mode outside
``POOL_MODES``; or of a JSON file that ``report`` reads, also a field of
the wrong type; a file that does not decode is one that does not parse)
or a path that cannot be read or written, 3 unsatisfiable
model, or one infeasible by construction (too many inputs, slots or live
values), 4 solver timeout with an incumbent, 5 oracle failure.
tsc balancing always succeeds: it pads every secret path that costs
less than its siblings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import copmodel, gadgets, solver, verify
from .copmodel import build_problem, to_schedule
from .machine import PROFILES, MachineError, MachineProgram, encode
from .mir import IRError, SecurityLabel, parse_function, serialize_function
from .secanalysis import Mode, analyze, emit_analysis, pick_base_mode
from .solver import SolveResult, SolveStatus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSAT = 3
EXIT_TIMEOUT = 4
EXIT_ORACLE = 5

# model note surfaced in reports: the load/store latency is a choice of
# this machine model, not a measured value
LDST_NOTE = "model note: ld/st latency fixed at 2 cycles (model choice)"


class PoolMode(NamedTuple):
    """What a pool of one ``--mode`` is and what ``verify`` holds it to."""

    # the analysis mode its base compiles in (None: `pick_base_mode` picks)
    base: Optional[Mode]
    # the check whose insecure verdict fails verify (equivalence always does)
    oracle: Optional[str]
    # whether the pool is searched under a gap and a distance
    searched: bool


POOL_MODES = {
    "tsc": PoolMode(Mode.TSC, "cr", True),
    "psc": PoolMode(Mode.PSC, "psc", True),
    "none": PoolMode(Mode.NONE, None, True),
    "naive": PoolMode(None, None, False),
}


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_function(path: str):
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise IRError(f"{path} is not text: {exc}") from None
    return parse_function(text)


def _run_dir(out: Path, name: str, mode: str, gap_percent: int) -> Path:
    d = out / f"{name}-{mode}-g{gap_percent}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _compile(func, profile, mode: Mode, budget: float, balance: str):
    analyzed = analyze(func, profile, mode=mode, balance=balance)
    prob = build_problem(analyzed)
    result = solver.solve_optimal(prob, time_budget=budget)
    return analyzed, prob, result


def _no_solution(result: SolveResult) -> int:
    """Report a solve that ended without a solution: unsat, or a timeout
    before any incumbent."""
    if result.status is SolveStatus.UNSAT:
        print(f"unsat: {result.failing_family}", file=sys.stderr)
        return EXIT_UNSAT
    print("timeout without incumbent", file=sys.stderr)
    return EXIT_TIMEOUT


def cmd_compile(args) -> int:
    func = _load_function(args.file)
    profile = PROFILES[args.profile]
    mode = Mode(args.mode)
    out = _run_dir(Path(args.out), func.name, mode.value, 0)

    started = time.monotonic()
    analyzed, prob, result = _compile(func, profile, mode, args.budget_secs, args.balance)
    elapsed = time.monotonic() - started
    if result.solution is None:
        return _no_solution(result)

    program = encode(analyzed.function, to_schedule(prob, result.solution), profile)
    (out / "base.bin").write_bytes(program.to_bytes())
    (out / "transformed.mir").write_text(serialize_function(analyzed.function))
    (out / "analysis.txt").write_text(emit_analysis(analyzed))
    if args.emit_analysis:
        print(emit_analysis(analyzed), end="")
    if args.emit_model:
        (out / "model.sx").write_text(copmodel.emit_model(prob))

    baseline_obj = None
    overhead = None
    if mode is not Mode.NONE:
        remaining = args.budget_secs - (time.monotonic() - started)
        _, _, base_result = _compile(func, profile, Mode.NONE, remaining, args.balance)
        if base_result.solution is not None:
            baseline_obj = base_result.solution.objective
            if baseline_obj > 0:
                overhead = float(
                    (result.solution.objective - baseline_obj) / baseline_obj * 100
                )

    payload = {
        "function": func.name,
        "profile": profile.name,
        "mode": mode.value,
        "status": result.status.value,
        "objective": _frac_str(result.solution.objective),
        "baseline_objective": _frac_str(baseline_obj) if baseline_obj is not None else None,
        "overhead_percent": round(overhead, 2) if overhead is not None else None,
        "notes": analyzed.notes + [LDST_NOTE],
    }
    _write_json(out / "compile.json", payload)
    _write_time(out, "compile_seconds", elapsed)
    line = f"{func.name}: objective {_frac_str(result.solution.objective)}"
    if overhead is not None:
        line += f" (baseline {_frac_str(baseline_obj)}, overhead {overhead:.1f}%)"
    print(line)
    if result.status is SolveStatus.TIMEOUT:
        print("warning: best-found solution, optimality not proved", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_diversify(args) -> int:
    contract = POOL_MODES[args.mode]
    if not contract.searched and (args.gap, args.dthresh) != (0, 1):
        print(f"error: --gap and --dthresh do not apply to --mode {args.mode}", file=sys.stderr)
        return EXIT_USAGE
    func = _load_function(args.file)
    profile = PROFILES[args.profile]
    out = _run_dir(Path(args.out), func.name, args.mode, args.gap)

    started = time.monotonic()
    mode = pick_base_mode(func) if contract.base is None else contract.base
    _, prob, result = _compile(func, profile, mode, args.budget_secs, args.balance)
    if result.solution is None:
        return _no_solution(result)
    if contract.searched:
        pool = solver.diversify(
            prob,
            result.solution,
            n=args.variants,
            gap=Fraction(args.gap, 100),
            dthresh=args.dthresh,
            time_budget=args.budget_secs - (time.monotonic() - started),
            seed=args.seed,
        )
    else:
        pool = solver.naive_diversify(prob, result.solution, args.variants, seed=args.seed)
    prob = pool.problem
    elapsed = time.monotonic() - started

    func_out = prob.function
    (out / "transformed.mir").write_text(serialize_function(func_out))
    variants = []
    for i, sol in enumerate(pool.solutions):
        program = encode(func_out, to_schedule(prob, sol), prob.profile)
        (out / f"variant_{i:03d}.bin").write_bytes(program.to_bytes())
        entry = {
            "index": i,
            "objective": _frac_str(sol.objective),
            "distance_to_base": solver.distance(sol, pool.solutions[0]) if i else 0,
        }
        variants.append(entry)

    manifest = {
        "function": func.name,
        "profile": profile.name,
        "mode": args.mode,
        "gap_percent": args.gap,
        "dthresh": args.dthresh,
        "seed": args.seed,
        "requested": args.variants,
        "produced": len(pool.solutions),
        "reason": pool.reason.value,
        # an int: with integer block weights, as in the corpus, every
        # objective is an int and the floor bounds it as the exact bound does
        "objective_bound": None if prob.opt_bound is None else math.floor(prob.opt_bound),
        "variants": variants,
    }
    _write_json(out / "manifest.json", manifest)
    _write_time(out, "diversify_seconds", elapsed)
    print(
        f"{func.name}: {len(pool.solutions)} variants ({pool.reason.value}) "
        f"gap {args.gap}% -> {out}"
    )
    return EXIT_OK


class PoolError(Exception):
    """A pool directory whose manifest cannot be read, a run directory
    file that is not a JSON object with the fields that are read, each of
    the kind read, or a ``timing.log`` that is not text."""


class _Kind(NamedTuple):
    what: str
    holds: Callable[[object], bool]


_COUNT = _Kind("a non-negative integer", lambda v: type(v) is int and v >= 0)
# a rate may be absent, which reads as null
_RATE = _Kind("a number or null", lambda v: v is None or type(v) in (int, float))
_MODE = _Kind(f"one of {', '.join(POOL_MODES)}", lambda v: type(v) is str and v in POOL_MODES)


def _read_object(path: Path, fields: dict, pool: Optional[Path] = None) -> dict:
    """The JSON object in `path`, which must have every one of `fields`
    that is not a rate, each of the kind that `fields` gives it.
    Anything else is a PoolError naming the file by its path, or, for the
    manifest of a `pool`, by the pool, with the decoder's reason."""
    where = f"pool {pool}: {path.name}" if pool else str(path)
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PoolError(f"{where} is not JSON" + (f": {exc}" if pool else "")) from None
    if not isinstance(payload, dict):
        raise PoolError(f"{where} is not a JSON object")
    missing = [f for f, kind in fields.items() if f not in payload and kind is not _RATE]
    if missing:
        raise PoolError(f"{where} lacks {', '.join(missing)}")
    for name, kind in fields.items():
        value = payload.get(name)
        if kind is not None and not kind.holds(value):
            raise PoolError(f"{where} has {name} {value!r}, not {kind.what}")
    return payload


# every field that a command reads, per file, and the kind of value it
# must hold (None: any value): the manifest of a pool that verify or
# gadgets reads, and each run directory file that report reads
_FIELDS = {
    "pool": {
        "function": None, "mode": _MODE, "profile": None, "seed": _COUNT,
        "gap_percent": None, "produced": _COUNT,
    },
    "compile.json": {"function": None, "profile": None, "mode": None, "objective": None},
    "manifest.json": {
        "function": None, "mode": _MODE, "gap_percent": None, "requested": _COUNT,
        "produced": _COUNT, "reason": None,
    },
    "gadgets.json": {"pairs": _COUNT, "zero": _COUNT, "low": _COUNT, "high": _COUNT},
    "verify.json": {
        "function": None, "variants": _COUNT, "cr_violation_rate": _RATE,
        "psc_violation_rate": _RATE,
    },
}


def _load_pool(pool_dir: Path) -> tuple[dict, list[MachineProgram]]:
    manifest = _read_object(pool_dir / "manifest.json", _FIELDS["pool"], pool=pool_dir)
    if manifest["profile"] not in PROFILES:
        raise PoolError(f"pool {pool_dir}: unknown profile {manifest['profile']!r}")
    programs = []
    for i in range(manifest["produced"]):
        data = (pool_dir / f"variant_{i:03d}.bin").read_bytes()
        programs.append(MachineProgram.from_bytes(data))
    return manifest, programs


def cmd_verify(args) -> int:
    func = _load_function(args.file)
    pool_dir = Path(args.pool)
    manifest, programs = _load_pool(pool_dir)
    if manifest["function"] != func.name:
        print(
            f"error: pool {pool_dir} holds {manifest['function']}, not {func.name}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not programs:
        print(f"error: pool {pool_dir} holds no variants", file=sys.stderr)
        return EXIT_USAGE
    # the labels of FILE fit a variant only if it takes FILE's inputs
    policy = func.inputs
    for i, program in enumerate(programs):
        if program.num_inputs != len(policy):
            print(
                f"error: pool {pool_dir}: variant_{i:03d}.bin takes {program.num_inputs} "
                f"inputs, {func.name} takes {len(policy)}",
                file=sys.stderr,
            )
            return EXIT_USAGE

    contract = POOL_MODES[manifest["mode"]]
    # a psc pool is checked for power leaks even if FILE has no random input
    randoms = any(label is SecurityLabel.RANDOM for _, label in policy)
    check_psc = contract.base is Mode.PSC or randoms
    reports = []
    for i, program in enumerate(programs):
        eq = verify.check_equivalence(programs[0], program, seed=manifest["seed"]) if i else None
        cr = verify.check_cr(program, policy)
        psc = verify.check_psc(program, policy) if check_psc else None
        reports.append((eq, cr, psc))
    # a pool gets cr lines when some variant has a hidden branch
    check_cr = any(cr.regions for _, cr, _ in reports)

    # one (check, verdict, holds) row per line of verify.txt
    lines: list[str] = []
    violations = {"equivalence": 0, "cr": 0, "psc": 0}
    for i, (eq, cr, psc) in enumerate(reports):
        rows = [("equivalence", eq.line(), eq.ok)] if eq is not None else []
        if check_cr:
            rows.append(("cr", "secure" if cr.secure else "insecure", cr.secure))
        if psc is not None and psc.incomplete:  # no verdict, so no violation
            rows.append(("psc", f"incomplete\t{psc.reason}", True))
        elif psc is not None:
            rows.append(("psc", "secure" if psc.secure else "insecure", psc.secure))
        for check, verdict, holds in rows:
            lines.append(f"variant_{i:03d}\t{check}\t{verdict}")
            violations[check] += not holds
    incomplete = any(psc is not None and psc.incomplete for _, _, psc in reports)
    failures = violations["equivalence"] + violations.get(contract.oracle, 0)

    n = len(programs)
    payload = {
        "function": manifest["function"],
        "mode": manifest["mode"],
        "variants": n,
        "failures": failures,
        "incomplete": incomplete,
        "cr_violation_rate": round(violations["cr"] / n, 4) if check_cr else None,
        "psc_violation_rate": round(violations["psc"] / n, 4) if check_psc else None,
    }
    _write_json(pool_dir / "verify.json", payload)
    (pool_dir / "verify.txt").write_text("\n".join(lines) + "\n" if lines else "")
    for line in lines:
        print(line)
    if incomplete:
        print("warning: enumeration incomplete for some checks", file=sys.stderr)
    if failures:
        print(f"{failures} oracle failures", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


# the gadget-overlap table of `gadgets` and of `report`: a pool's name
# fields, its pair count and each bucket's share of the pairs in percent
_GADGET_HEADER = ("function", "mode", "gap", "pairs", "pct_zero", "pct_low", "pct_high")


def _gadget_row(manifest: dict, counts: dict) -> list:
    total = counts["pairs"] or 1
    shares = (f"{100 * counts[b] / total:.1f}" for b in ("zero", "low", "high"))
    name = [manifest["function"], manifest["mode"], manifest["gap_percent"]]
    return [*name, counts["pairs"], *shares]


def cmd_gadgets(args) -> int:
    pool_dir = Path(args.pool)
    manifest, programs = _load_pool(pool_dir)
    if len(programs) < 2:
        print("pool has fewer than two variants", file=sys.stderr)
        return EXIT_USAGE
    hist = gadgets.pool_histogram(programs, k=args.k)
    counts = {"pairs": hist.total, "zero": hist.zero, "low": hist.low, "high": hist.high}
    _emit_table([_GADGET_HEADER, _gadget_row(manifest, counts)], args.format)
    _write_json(pool_dir / "gadgets.json", counts)
    return EXIT_OK


def _emit_table(rows, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerows(rows)
        return
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        stream.write(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        )


def cmd_report(args) -> int:
    root = Path(args.out)
    if not root.is_dir():
        print(f"no such output directory: {root}", file=sys.stderr)
        return EXIT_USAGE
    run_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not run_dirs:
        print("no run directories found; expected <function>-<mode>-g<gap>/", file=sys.stderr)
        return EXIT_USAGE

    overhead_rows = [["function", "profile", "mode", "objective", "baseline", "overhead_pct"]]
    pool_header = ["function", "mode", "gap", "requested", "produced", "reason"]
    if args.with_times:
        pool_header.append("seconds")
    pool_rows = [pool_header]
    gadget_rows = [_GADGET_HEADER]
    breakage_rows = [["function", "variants", "cr_violation_pct", "psc_violation_pct"]]

    for d in run_dirs:
        compile_json = d / "compile.json"
        if compile_json.exists():
            c = _read_report_file(compile_json)
            overhead_rows.append(
                [
                    c["function"],
                    c["profile"],
                    c["mode"],
                    c["objective"],
                    c.get("baseline_objective") or "-",
                    c.get("overhead_percent") if c.get("overhead_percent") is not None else "-",
                ]
            )
        manifest_json = d / "manifest.json"
        if manifest_json.exists():
            m = _read_report_file(manifest_json)
            row = [
                m["function"],
                m["mode"],
                m["gap_percent"],
                m["requested"],
                m["produced"],
                m["reason"],
            ]
            if args.with_times:
                row.append(_time_lines(d).get("diversify_seconds", "-"))
            pool_rows.append(row)
            gadgets_json = d / "gadgets.json"
            if gadgets_json.exists():
                gadget_rows.append(_gadget_row(m, _read_report_file(gadgets_json)))
            verify_json = d / "verify.json"
            if verify_json.exists() and not POOL_MODES[m["mode"]].searched:
                v = _read_report_file(verify_json)
                breakage_rows.append(
                    [
                        v["function"],
                        v["variants"],
                        _pct(v.get("cr_violation_rate")),
                        _pct(v.get("psc_violation_rate")),
                    ]
                )

    sections = [
        ("security overhead", overhead_rows),
        ("variant pools", pool_rows),
        ("gadget overlap", gadget_rows),
        ("unaware-randomization breakage", breakage_rows),
    ]
    for title, rows in sections:
        if len(rows) == 1:
            continue
        if args.format == "text":
            print(f"# {title}")
        _emit_table(rows, args.format)
        if args.format == "text":
            print(LDST_NOTE if title == "security overhead" else "", end="")
            print()
    return EXIT_OK


def _read_report_file(path: Path) -> dict:
    return _read_object(path, _FIELDS[path.name])


def _pct(rate) -> str:
    return f"{rate * 100:.0f}" if rate is not None else "-"


def _time_lines(run_dir: Path) -> dict[str, str]:
    """The (key, seconds) lines of a run directory's ``timing.log``."""
    path = run_dir / "timing.log"
    if not path.exists():
        return {}
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise PoolError(f"{path} is not text: {exc}") from None
    return dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)


def _write_time(run_dir: Path, key: str, seconds: float) -> None:
    """Replace `key`'s line of ``timing.log``: ``compile`` and a gap-0
    ``diversify`` share a run directory, and each keeps its own time."""
    times = _time_lines(run_dir)
    times[key] = f"{seconds:.3f}"
    (run_dir / "timing.log").write_text("".join(f"{k}\t{v}\n" for k, v in times.items()))


def _at_least(lo: int):
    """An argparse type: an int no smaller than `lo`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above 0 (a NaN
    deadline never passes, and one at or below 0 passes at once)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


_seconds.__name__ = "float"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secdiv",
        description="security-aware diversifying backend for the MiniRISC model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", choices=sorted(PROFILES), default="tight8")
        p.add_argument("--budget-secs", type=_seconds, default=600.0)
        p.add_argument("--out", default="out")
        p.add_argument("--balance", choices=["ebb", "cbb"], default="ebb")

    p = sub.add_parser("compile", help="analyze, build the model, solve, and encode")
    p.add_argument("file")
    analysis_modes = [m for m, contract in POOL_MODES.items() if contract.base is not None]
    p.add_argument("--mode", choices=analysis_modes, default="none")
    p.add_argument("--emit-analysis", action="store_true")
    p.add_argument("--emit-model", action="store_true")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("diversify", help="produce a pool of diverse variants")
    p.add_argument("file")
    p.add_argument("--mode", choices=list(POOL_MODES), default="none")
    p.add_argument("--variants", type=_at_least(1), default=20)
    p.add_argument("--gap", type=_at_least(0), default=0, help="optimality gap in percent")
    p.add_argument("--dthresh", type=_at_least(1), default=1)
    p.add_argument("--seed", type=_at_least(0), default=0)
    common(p)
    p.set_defaults(func=cmd_diversify)

    p = sub.add_parser("verify", help="run the oracles over a variant pool")
    p.add_argument("file")
    p.add_argument("--pool", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gadgets", help="gadget-overlap histogram for a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=_at_least(1), default=gadgets.DEFAULT_MAX_LEN)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser("report", help="aggregate tables over an output directory")
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--with-times", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs about twenty parses, and
    # parse_args keeps nothing from one call to the next
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (IRError, MachineError, PoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing input {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except copmodel.ModelInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_UNSAT


if __name__ == "__main__":
    sys.exit(main())
