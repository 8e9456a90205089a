"""Write every output of the benchmark's jobs, for a byte-for-byte diff.

    python tests/pool_outputs.py TREE DEST

Runs every job of `perfbench.workloads.WORKLOADS` (of the checkout that
holds this script), the `EXTRA` jobs under the name `extra`, under the
name `cbb` the tsc jobs of `corpus_sweep` and the sweep of `conftest.CBB_ARM`
(written to DEST/cbb_arm.mir) at `--balance cbb`, and under the name
`copy_arm` a tsc sweep of 20 variants of `conftest.COPY_ARM` (written to
DEST/tc.mir), whose secret arm ends in a copy, on diversify seeds 0
and 1 through TREE's `secdiv.cli.main`, in-process: `diversify`,
`verify`, then `gadgets`, each whatever the one before returned.  Pools
land under DEST/<workload>/s<seed>/<job key>/.  Then `compile
--emit-model --emit-analysis` runs once on every (function, mode) pair of
`corpus_sweep` but naive, into DEST/compile/, on every function of
`cbb` at `--balance cbb`, into DEST/compile-cbb/, and on COPY_ARM in
tsc, into DEST/compile-copy_arm/.  Every file
but `timing.log` (which holds wall times) is kept.  DEST/log.txt gives,
per command, its arguments, exit code, stdout and stderr, with DEST and
TREE masked.  Two trees that behave alike give two DEST directories that
`diff -r` finds equal.

A script, not a test module: pytest collects only `test_*.py`.  It
reads `perfbench/` and writes nothing there.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

SEEDS = (0, 1)

# (function, mode, gap, variants) of pools that no benchmark job makes:
# spill_pair at a 100% gap puts values in memory slots, and its naive
# pool renames around them
EXTRA = (("spill_pair", "none", 100, 40), ("spill_pair", "naive", 0, 40))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, dest = (Path(a).resolve() for a in argv)
    if dest.exists():
        print(f"{dest} exists; give a new directory", file=sys.stderr)
        return 2
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path[:0] = [str(tree / "src"), str(perfbench)]
    from secdiv import cli
    from workloads import SWEEP_GAPS, WORKLOADS, Job
    from conftest import CBB_ARM, COPY_ARM

    corpus = tree / "src" / "secdiv" / "corpus"
    sources = {path.stem: path for path in corpus.glob("*.mir")}
    # a job's key names its pool, so COPY_ARM goes by its function's name
    sources["cbb_arm"], sources["tc"] = dest / "cbb_arm.mir", dest / "tc.mir"
    dest.mkdir(parents=True)
    sources["cbb_arm"].write_text(CBB_ARM)
    sources["tc"].write_text(COPY_ARM)
    log = []

    def run(*args: str) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(args))
        entry = f"{' '.join(args)}\nexit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
        log.append(entry.replace(str(dest), "DEST").replace(str(tree), "TREE"))

    jobs = {workload: spec.jobs for workload, spec in WORKLOADS.items()}
    jobs["extra"] = [Job(*job) for job in EXTRA]
    # under cbb a pad is a dead-def copy of the arm instead of NOPs, so
    # the balance rows differ from ebb's; every corpus function falls back
    # to ebb, and cbb_arm does not
    jobs["cbb"] = [job for job in jobs["corpus_sweep"] if job.mode == "tsc"]
    jobs["cbb"] += [Job("cbb_arm", "tsc", gap, 4) for gap in SWEEP_GAPS]
    jobs["copy_arm"] = [Job("tc", "tsc", gap, 20) for gap in SWEEP_GAPS]
    for workload, workload_jobs in jobs.items():
        balance = ["--balance", "cbb"] if workload == "cbb" else []
        for seed in SEEDS:
            out = dest / workload / f"s{seed}"
            for job in workload_jobs:
                mir, pool = str(sources[job.function]), str(out / job.key)
                run("diversify", mir, "--mode", job.mode, "--gap", str(job.gap),
                    "--variants", str(job.variants), "--seed", str(seed), "--out", str(out),
                    *balance)
                run("verify", mir, "--pool", pool)
                run("gadgets", "--pool", pool)
    pairs = {(job.function, job.mode) for job in jobs["corpus_sweep"] if job.mode != "naive"}
    for function, mode in sorted(pairs):
        run("compile", str(sources[function]), "--mode", mode,
            "--emit-model", "--emit-analysis", "--out", str(dest / "compile"))
    for function in sorted({job.function for job in jobs["cbb"]}):
        run("compile", str(sources[function]), "--mode", "tsc", "--balance", "cbb",
            "--emit-model", "--emit-analysis", "--out", str(dest / "compile-cbb"))
    run("compile", str(sources["tc"]), "--mode", "tsc",
        "--emit-model", "--emit-analysis", "--out", str(dest / "compile-copy_arm"))
    for timing in dest.rglob("timing.log"):
        timing.unlink()
    (dest / "log.txt").write_text("\n".join(log))
    print(f"{len(log)} runs, {sum(1 for p in dest.rglob('*') if p.is_file())} files in {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
