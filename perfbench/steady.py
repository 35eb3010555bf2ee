"""Steadiness report: re-prove the benchmark steady on the host it runs on.

    python3 perfbench/steady.py [--workloads offline_suite,online] [--runs 10] [--first-seed 1]

Runs each workload ``--runs`` times in fresh processes, one after another,
each with another seed, exactly as ``BENCHMARK.json`` prescribes (its
command and run length).  For every end-to-end metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (third minus first quartile, as a share of the median) and the worst
deviation of one run from the median, next to the metric's bound.  A
metric is steady when its spread stays within a third of its bound;
``setup_s`` is reported but exempt.  Also checks that every run was correct
and that the share of failed operations is the same in every run.  Exits
non-zero when anything is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: Dict, workload: str, seed: int, seconds: int) -> Dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    result["detail"] = detail
    return result


def report(spec: Dict, workload: str, results: List[Dict]) -> bool:
    steady = True
    shares = {r["failed"] / r["attempted"] for r in results}
    if not all(r["correct"] for r in results):
        print(f"  {workload}: a run reported correct=false")
        steady = False
    if len(shares) != 1:
        print(f"  {workload}: failed share differs between runs: {sorted(shares)}")
        steady = False
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'worst':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        worst = max(abs(v - med) for v in values) / med
        ok = name == "setup_s" or spread <= bound / 3
        steady &= ok
        print(
            f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.1%} {worst:>8.1%} "
            f"{bound:>6.0%}{'' if ok else '  NOT STEADY'}"
        )
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    steady = True
    for workload in names:
        results = []
        for i in range(args.runs):
            results.append(run_once(spec, workload, args.first_seed + i, seconds))
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{seconds} s each, attempted {results[0]['attempted']} failed {results[0]['failed']} in the first")
        steady &= report(spec, workload, results)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", f"steady-{workload}.json"), "w") as fh:
            json.dump(results, fh)
        sys.stdout.flush()
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
