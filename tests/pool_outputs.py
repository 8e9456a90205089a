"""Write every output of the benchmark's jobs, for a byte-for-byte diff.

    python tests/pool_outputs.py TREE DEST

Runs every job of `perfbench.workloads.WORKLOADS` (of the checkout that
holds this script) on diversify seeds 0 and 1 through TREE's
`secdiv.cli.main`, in-process: `diversify`, `verify`, then `gadgets`,
each whatever the one before returned.  Pools land under
DEST/<workload>/s<seed>/<job key>/, every file but `timing.log` (which
holds wall times).  DEST/log.txt gives, per command, its arguments, exit
code, stdout and stderr, with DEST and TREE masked.  Two trees that
behave alike give two DEST directories that `diff -r` finds equal.

A script, not a test module: pytest collects only `test_*.py`.  It
reads `perfbench/` and writes nothing there.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

SEEDS = (0, 1)


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
    from workloads import WORKLOADS

    corpus = tree / "src" / "secdiv" / "corpus"
    log = []
    for workload, spec in WORKLOADS.items():
        for seed in SEEDS:
            out = dest / workload / f"s{seed}"
            for job in spec.jobs:
                mir, pool = str(corpus / f"{job.function}.mir"), str(out / job.key)
                for args in (
                    ["diversify", mir, "--mode", job.mode, "--gap", str(job.gap),
                     "--variants", str(job.variants), "--seed", str(seed), "--out", str(out)],
                    ["verify", mir, "--pool", pool],
                    ["gadgets", "--pool", pool],
                ):
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(args)
                    entry = f"{' '.join(args)}\nexit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
                    log.append(entry.replace(str(dest), "DEST").replace(str(tree), "TREE"))
    for timing in dest.rglob("timing.log"):
        timing.unlink()
    (dest / "log.txt").write_text("\n".join(log))
    print(f"{len(log)} runs, {sum(1 for p in dest.rglob('*') if p.is_file())} files in {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
