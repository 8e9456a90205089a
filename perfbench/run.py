"""Diversify->verify benchmark for secdiv.

Runs one workload (see workloads.py and README.md) from the root of a
source checkout:

    python3 perfbench/run.py --workload tsc_pool --seed 0 --seconds 40 --trace 0

Each job drives the user path in-process through ``secdiv.cli.main``:
``diversify``, ``verify``, then ``gadgets``.  Jobs run one after another
in this one process (a closed loop with one client).  A pass runs every
job of the workload once, with one diversify seed; a run makes the
workload's fixed number of passes, pass k on seed ``seed * passes + k``,
whatever ``--seconds`` says: the pass counts are chosen so that a run
takes about ``run_seconds`` of BENCHMARK.json, and a run that stopped
early would take its medians and quality metrics over other seeds.
Timings are CPU seconds scaled by the host speed measured around each
job (see ``reference``), as medians over passes.  Every job is checked
against its known answer, and diversify is run once more, untimed, on
pass 0's seed to check that it writes the same manifest.  ``--trace 1``
runs the same passes with span tracing on and reports per-layer metrics
instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans
from workloads import WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "secdiv" / "corpus"
OUT = ROOT / ".perfbench_out"
# Jobs are timed in CPU seconds of this single-threaded process.  On a
# shared machine the wall time of one job spreads four times as widely
# (interquartile range 26% of the median against 6% on a repeated job),
# because the process waits for a core; a change that moves work into
# other threads or processes has to be judged by wall time instead, which
# runs print and the traced run reports as trace.pass_wall_s.
CLOCK = time.process_time
# CPU seconds reference() takes on the machine named in README.md.  The
# end-to-end times are CPU seconds scaled to that speed (see reference).
REF_S = 0.024

UNITS = {
    "pass_s": "s",
    "verify_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "variants_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "pool_fill": "share",
    "srate_zero_pct": "%",
    "variant_cycles_mean": "cycles",
}


class SetupError(Exception):
    pass


def setup(work: Path) -> float:
    """Import numpy and secdiv, read the corpus, create the output directory;
    returns the CPU seconds it took (see CLOCK).  The output of an earlier
    run on the same arguments is removed first, untimed."""
    if not (SRC / "secdiv" / "cli.py").is_file() or not CORPUS.is_dir():
        raise SetupError(f"no secdiv sources under {SRC}; run from a source checkout")
    shutil.rmtree(work, ignore_errors=True)
    start = CLOCK()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import secdiv.cli  # noqa: F401

    for path in sorted(CORPUS.glob("*.mir")):
        path.read_bytes()
    work.mkdir(parents=True)
    return CLOCK() - start


def reference() -> float:
    """CPU seconds of a fixed piece of work that owes nothing to secdiv:
    Fraction and dict arithmetic, then integer numpy arithmetic on 65,536
    lanes, like the solver and the oracles.

    On a shared machine the CPU time of fixed work drifts by 20% and more
    over seconds to minutes, with the load on the other cores.  Timed
    before the first job of a pass and after every job, this work measures
    the drift: a job's time counts as its CPU time times REF_S over the
    mean of the two reference times around it."""
    import numpy as np  # imported by setup(), which times the first import

    start = CLOCK()
    total, counts = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 7, i)
        counts[i % 97] = counts.get(i % 97, 0) + i
    lanes = np.arange(65536, dtype=np.uint32)
    for _ in range(40):
        lanes = (lanes * 2654435761 + 7) ^ (lanes >> 3)
    return CLOCK() - start


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository (the
    check for .git keeps git from finding a repository above the checkout)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def digest(directory: Path) -> str:
    """Digest of the .py and .mir files under ``directory``, so results name
    the program and the benchmark that made them."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.suffix in (".py", ".mir"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: str, seed: int, seconds: float, loadavg: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source": digest(SRC / "secdiv"),
        "benchmark": digest(Path(__file__).resolve().parent),
        "loadavg_at_start": loadavg,
    }


# ----------------------------------------------------------------------
# one job: diversify, verify, gadgets, then the known-answer gate
# ----------------------------------------------------------------------


@dataclass
class JobResult:
    job: Job
    # CPU seconds of this process per command (see CLOCK)
    diversify_s: float
    verify_s: float
    gadgets_s: float
    problems: list[str]
    manifest_sha: str = ""
    reason: str = ""
    requested: int = 0
    produced: int = 0
    objectives: list[Fraction] = field(default_factory=list)
    pairs: int = 0
    zero_pairs: int = 0
    # REF_S over the mean reference() time just before and after the job
    speed: float = 1.0

    @property
    def cpu_s(self) -> float:
        return self.diversify_s + self.verify_s + self.gadgets_s

    @property
    def scaled_s(self) -> float:
        return self.cpu_s * self.speed


def _diversify_argv(job: Job, seed: int, out: Path) -> list[str]:
    return ["diversify", str(CORPUS / f"{job.function}.mir"), "--mode", job.mode,
            "--gap", str(job.gap), "--variants", str(job.variants), "--seed", str(seed),
            "--out", str(out)]


def _manifest_sha(pool: Path) -> str:
    return hashlib.sha256((pool / "manifest.json").read_bytes()).hexdigest()


def run_job(cli, job: Job, seed: int, out: Path, tracer) -> JobResult:
    mir = str(CORPUS / f"{job.function}.mir")
    pool = out / job.key
    argv = [
        _diversify_argv(job, seed, out),
        ["verify", mir, "--pool", str(pool)],
        ["gadgets", "--pool", str(pool)],
    ]
    codes, times, problems = [], [], []
    if tracer is not None:
        tracer.job = job.key
        span = tracer.open(spans.JOB)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for args in argv:
            start = CLOCK()
            try:
                codes.append(cli.main(args))
            except Exception as exc:  # a crash is a wrong answer, not the end of the run
                codes.append(-1)
                problems.append(f"{args[0]} raised {exc!r}")
            times.append(CLOCK() - start)
            if codes[0] != 0:
                break
    if tracer is not None:
        tracer.close(span)
    times += [0.0] * (3 - len(times))
    result = JobResult(job, *times, problems=problems)
    if codes[0] != 0:
        result.problems.append(f"diversify exit {codes[0]}")
        return result
    _check(result, pool, codes)
    return result


def _check(result: JobResult, pool: Path, codes: list[int]) -> None:
    """Known answers: every command ends as expected, every variant is
    equivalent to variant 0, and tsc/psc pools are secure."""
    job, problems = result.job, result.problems
    manifest = json.loads((pool / "manifest.json").read_text())
    result.manifest_sha = _manifest_sha(pool)
    result.reason = manifest["reason"]
    result.requested = manifest["requested"]
    result.produced = manifest["produced"]
    result.objectives = [Fraction(v["objective"]) for v in manifest["variants"]]

    if codes[1] != 0:
        problems.append(f"verify exit {codes[1]}")
    if not (pool / "verify.json").is_file():
        problems.append("verify wrote no verdict")
        return
    verdict = json.loads((pool / "verify.json").read_text())
    if verdict["incomplete"]:
        problems.append("verify incomplete")
    if job.mode == "tsc" and verdict["cr_violation_rate"] != 0:
        problems.append(f"tsc pool cr violation rate {verdict['cr_violation_rate']}")
    if job.mode == "psc" and verdict["psc_violation_rate"] != 0:
        problems.append(f"psc pool psc violation rate {verdict['psc_violation_rate']}")
    lines = (pool / "verify.txt").read_text().splitlines()
    checked = sum(1 for line in lines if "\tequivalence\tequivalent\t" in line)
    if checked != result.produced - 1:
        problems.append(f"{checked} of {result.produced - 1} variants equivalent to variant 0")

    # a pool of fewer than two variants has no pairs: exit 2 is its answer
    expected = 0 if result.produced >= 2 else 2
    if codes[2] != expected:
        problems.append(f"gadgets exit {codes[2]}, expected {expected}")
    if codes[2] == 0:
        hist = json.loads((pool / "gadgets.json").read_text())
        result.pairs, result.zero_pairs = hist["pairs"], hist["zero"]


# ----------------------------------------------------------------------
# passes and metrics
# ----------------------------------------------------------------------


def quality(jobs: list[JobResult]) -> dict[str, float]:
    """Pool size, gadget overlap and run time of the generated code."""
    objectives = [o for r in jobs for o in r.objectives]
    pairs = sum(r.pairs for r in jobs)
    return {
        "pool_fill": sum(r.produced for r in jobs) / sum(r.job.variants for r in jobs),
        "srate_zero_pct": 100 * sum(r.zero_pairs for r in jobs) / max(pairs, 1),
        "variant_cycles_mean": float(sum(objectives) / max(len(objectives), 1)),
    }


@dataclass
class Pass:
    seed: int
    wall_s: float
    jobs: list[JobResult]
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.jobs)

    @property
    def scaled_s(self) -> float:
        return sum(r.scaled_s for r in self.jobs)

    def fingerprint(self) -> dict:
        """Everything that must repeat exactly on the same seed."""
        return {
            "manifests": {r.job.key: r.manifest_sha for r in self.jobs},
            "reasons": {r.job.key: r.reason for r in self.jobs},
            "quality": quality(self.jobs),
            "counters": {k: self.layers[k] for k in spans.COUNTERS} if self.layers else {},
        }


def run_pass(cli_modules, jobs: list[Job], seed: int, out: Path, trace: bool) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install(cli_modules)
    try:
        start = time.perf_counter()
        refs, results = [reference()], []
        for job in jobs:
            results.append(run_job(cli_modules["cli"], job, seed, out, tracer))
            refs.append(reference())
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for r, before, after in zip(results, refs, refs[1:]):
        r.speed = 2 * REF_S / (before + after)
    done = Pass(seed, wall, results)
    if tracer is not None:
        done.layers = spans.layer_metrics(tracer)
        done.spans = tracer.spans
    return done


def check_repeat(cli, first: Pass, out: Path) -> None:
    """Run diversify again, untimed, on every job of ``first`` and fail the
    job if its manifest.json is not byte-identical to the first one."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for r in first.jobs:
            if not r.manifest_sha:
                continue  # diversify already failed on this job
            try:
                code = cli.main(_diversify_argv(r.job, first.seed, out))
                same = code == 0 and _manifest_sha(out / r.job.key) == r.manifest_sha
            except Exception:
                same = False
            if not same:
                r.problems.append(f"manifest.json differs between two runs on seed {first.seed}")
    shutil.rmtree(out, ignore_errors=True)


def _drift(reference: dict, current: dict, where: str) -> list[tuple[str, str, str]]:
    """(section, key, message) for entries present in both fingerprints
    that differ."""
    out = []
    for section, values in current.items():
        ref = reference.get(section, {})
        for key, value in values.items():
            if key in ref and ref[key] != value:
                out.append((section, key, f"{where}: {section} {key}: {ref[key]} != {value}"))
    return out


def check_determinism(passes: list[Pass], ledger: Path) -> list[tuple[str, str, str]]:
    """Compare each pass with earlier runs in this checkout on its seed, of
    this program and benchmark (the ledger), then record the passes whose
    jobs all passed the gate.  Traced and untraced runs share the ledger,
    so this also compares the two."""
    recorded = json.loads(ledger.read_text()) if ledger.is_file() else {}
    drift = []
    for p in passes:
        fp = p.fingerprint()
        earlier = recorded.setdefault(str(p.seed), {})
        drift += _drift(earlier, fp, f"seed {p.seed} vs an earlier run")
        if any(r.problems for r in p.jobs):
            continue
        for section, values in fp.items():
            earlier.setdefault(section, {}).update(values)
    ledger.parent.mkdir(parents=True, exist_ok=True)
    ledger.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n")
    return drift


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup_s: float, failed: int, attempted: int) -> dict:
    med = statistics.median

    def verified_per_s(p: Pass) -> float:
        return sum(r.produced for r in p.jobs if not r.problems) / p.scaled_s

    values = {
        "pass_s": med(p.scaled_s for p in passes),
        "verify_s": med(sum(r.verify_s * r.speed for r in p.jobs) for p in passes),
        # per-pass percentiles of job latency, then the median over passes,
        # so one slow pool in one pass does not set the run's p90
        "job_p50_s": med(_percentile([r.scaled_s for r in p.jobs], 50) for p in passes),
        "job_p90_s": med(_percentile([r.scaled_s for r in p.jobs], 90) for p in passes),
        "variants_per_s": med(verified_per_s(p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - failed / attempted,
        **quality([r for p in passes for r in p.jobs]),
    }
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}


def per_layer(passes: list[Pass]) -> dict:
    """The layers of the pass with the median CPU time: taken from one pass,
    the self times add up to its job time and the counts belong to one
    seed."""
    times = [p.cpu_s for p in passes]
    median = passes[times.index(statistics.median_low(times))]
    values = dict(median.layers)
    values["cli.diversify_s"] = sum(r.diversify_s for r in median.jobs)
    values["trace.pass_cpu_s"] = median.cpu_s
    values["trace.pass_wall_s"] = median.wall_s
    values["trace.pass_s"] = median.scaled_s
    return {
        name: {"value": v, "unit": "count" if name in spans.COUNTERS else "s"}
        for name, v in values.items()
    }


def export_trace(path: Path, env: dict, passes: list[Pass]) -> None:
    with path.open("w") as f:
        f.write(json.dumps({"env": env}) + "\n")
        for i, p in enumerate(passes):
            for s in p.spans:
                f.write(json.dumps({"pass": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent, "job": s.job}) + "\n")
            f.write(json.dumps({"pass": i, "counters": {k: p.layers[k] for k in spans.COUNTERS}}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")

    loadavg = _loadavg()
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        setup_s = setup(work)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from secdiv import cli, gadgets, solver, verify

    modules = {"cli": cli, "solver": solver, "verify": verify, "gadgets": gadgets}
    env = environment(args.workload, args.seed, args.seconds, loadavg)
    print("env " + json.dumps(env, sort_keys=True))

    workload: Workload = WORKLOADS[args.workload]
    jobs = workload.jobs
    passes: list[Pass] = []
    start = time.perf_counter()
    for k in range(workload.passes):
        gc.collect()
        seed = args.seed * workload.passes + k
        passes.append(run_pass(modules, jobs, seed, work / "pool", args.trace == 1))
    shutil.rmtree(work / "pool", ignore_errors=True)
    measured = time.perf_counter() - start
    check_repeat(cli, passes[0], work / "repeat")

    ledger = OUT / "ledger" / f"{env['source']}-{env['benchmark']}-{args.workload}.json"
    drift = check_determinism(passes, ledger)
    drifted_jobs = {key for section, key, _ in drift if section == "manifests"}
    attempted = sum(len(p.jobs) for p in passes)
    failed = 0
    for p in passes:
        for r in p.jobs:
            if r.job.key in drifted_jobs:
                r.problems.append("manifest.json differs from an earlier run on the same seed")
            if r.problems:
                failed += 1
                print(f"FAIL {r.job.key}: {'; '.join(r.problems)}", file=sys.stderr)
    for _, _, message in drift:
        print(f"DRIFT {message}", file=sys.stderr)

    print(f"passes {len(passes)}  jobs per pass {len(jobs)}  job samples {attempted}  "
          f"failed {failed}  median pass wall time "
          f"{statistics.median(p.wall_s for p in passes):.3f} s  "
          f"passes took {measured:.1f} s (--seconds {args.seconds:g})")
    if args.trace:
        metrics = per_layer(passes)
        export_trace(work / "trace.jsonl", env, passes)
        closure = statistics.median(
            p.layers["trace.job_s"]
            - sum(p.layers[f"{layer}.self_s"] for layer in spans.LAYERS)
            for p in passes
        )
        print(f"trace written to {work / 'trace.jsonl'}; "
              f"job time minus summed self times: {closure:.6f} s")
    else:
        metrics = end_to_end(passes, setup_s, failed, attempted)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
