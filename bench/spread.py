"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload value-fine --seeds 1-10 [--seconds 25] [--trace 0]

Runs ``bench/run.py`` sequentially, one process at a time, from the root of
the checkout. For every metric of the final JSON lines it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{key:40s} median {med:.6g} {units[key]}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
