"""Tier-1 smoke test of the benchmark harness in perfbench/."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_smoke(trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "5", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_smoke_workload_runs_correct():
    _run_smoke("0")


def test_smoke_workload_traced_runs_correct():
    # tracing wraps every function that perfbench/spans.py names, so this
    # fails when one of them is renamed or takes its arguments otherwise
    _run_smoke("1")
