"""Run the benchmark untraced, once per seed, and report each metric's spread.

    python3 perfbench/spread.py --workload verify-l2 --seeds 0-9

Each run lasts run_seconds from BENCHMARK.json.  For every metric this
prints the median and the quartiles of its values over the runs, and
(third quartile - first quartile) / median, which is the spread the
bounds in BENCHMARK.json are compared against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    values, failed = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed.append((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    print(f"failed/attempted/correct per run: {failed}")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'(q3-q1)/median':>15}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:15.4f}")


if __name__ == "__main__":
    main()
