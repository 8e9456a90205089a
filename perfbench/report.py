"""Run the benchmark's workloads and print every metric by name and unit.

From the root of a source checkout:

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --smoke              # harness self-check, seconds
    python3 perfbench/report.py --seeds 0-9 --no-trace

Each run is a fresh ``run.py`` process, so peak memory is per workload.
Repeats are interleaved across workloads (A B C A B C, not A A B B C C),
because the noise on a shared machine drifts over minutes.  For every
end-to-end metric the table gives the median over runs, the quartiles,
their distance as a share of the median next to the bound in
BENCHMARK.json, and every run's value.  The traced run adds the per-layer
metrics, the tracing overhead (traced minus untraced pass time) and
the predicted splits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# (workload, layer metric, share of the traced pass time it should reach)
SPLITS = [("tsc_pool", "solver.diversify_s", 0.85), ("psc_oracle", "verify.psc_s", 0.90)]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-1]), lines[0]


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,4,7")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="smoke workload only")
    args = parser.parse_args(argv)
    workloads = ["smoke"] if args.smoke else [w["name"] for w in bench["workloads"]]
    traces = (0,) if args.no_trace else (0, 1)

    runs: dict[tuple[str, int], list[dict]] = {}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            for trace in traces:
                result, env = run(workload, seed, bench["run_seconds"], trace)
                runs.setdefault((workload, trace), []).append(result)
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"{env}", file=sys.stderr)
    ok = all(r["correct"] for results in runs.values() for r in results)

    for workload in workloads:
        plain = runs[(workload, 0)]
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        print(f"\n## {workload}: {len(plain)} runs, {attempted} jobs, "
              f"failed_share {failed / attempted:.4f} (= 1 - ok_share)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}  unit")
        for name in plain[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in plain]
            med, q1, q3, spread = _spread(values)
            bound = bounds.get(name)
            print(f"  {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '-':>6}  {plain[0]['metrics'][name]['unit']}"
                  f"  [{' '.join(f'{v:.4g}' for v in values)}]")
        if (workload, 1) not in runs:
            continue
        traced = runs[(workload, 1)]
        layers = {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                  for name in traced[0]["metrics"]}
        print(f"  -- traced ({len(traced)} runs, medians)")
        for name, value in layers.items():
            print(f"  {name:34s} {value:12.6g} {traced[0]['metrics'][name]['unit']}")
        untraced = statistics.median(r["metrics"]["pass_s"]["value"] for r in plain)
        selfs = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"  tracing overhead (traced trace.pass_s minus untraced pass_s): "
              f"{layers['trace.pass_s'] - untraced:.4f} s")
        print(f"  job time {layers['trace.job_s']:.4f} s, summed layer self times "
              f"{selfs:.4f} s")
        for split_workload, name, share in SPLITS:
            if split_workload == workload:
                got = layers[name] / layers["trace.pass_cpu_s"]
                print(f"  {name} / traced pass_cpu_s = {got:.3f} (predicted >= {share})")
    if not ok:
        print("\nsome runs were not correct: see FAIL and DRIFT lines above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
