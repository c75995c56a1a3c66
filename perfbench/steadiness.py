"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20
    python3 perfbench/steadiness.py --workloads plan-shapes --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to a third of the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            diag = [line for line in proc.stdout.splitlines() if "steal" in line]
            values = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct "
                  f"{result['correct']}, {result['attempted']} ops, {result['failed']} failed; "
                  f"{diag[0].split(': ', 1)[1] if diag else ''}; {values}", flush=True)
            ok = ok and proc.returncode == 0 and result["correct"]
            runs.setdefault(workload, []).append({"seed": seed, **result})
    print()
    print(f"{'workload':<15} {'metric':<20} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-- too wide"
            print(f"{workload:<15} {name:<20} {q2:12.4f} {spread:8.2%} {bound / 3:8.2%}{flag}")
        fails = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:<15} {'failed share':<20} {sorted(fails)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
