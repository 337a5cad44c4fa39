"""Steadiness check: the evidence the benchmark's bounds rest on.

Runs one workload several times, each with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread
(quartile distance over median) against the metric's bound from
``BENCHMARK.json``, normalised and raw side by side.  Also prints the
failed share of operations, which must be identical in every run.

    python3 e2ebench/steady.py --workload bound_queries --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    lines, details = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        out = done.stdout.strip().splitlines()
        details.append(json.loads(out[-2])["detail"])
        lines.append(json.loads(out[-1]))
        print(f"seed {seed}: correct={lines[-1]['correct']} "
              f"attempted={lines[-1]['attempted']} "
              f"failed={lines[-1]['failed']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'/bound':>7s}   "
          f"{'raw median':>11s} {'raw spread':>10s}")
    ok = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [line["metrics"][name]["value"] for line in lines]
        median, q1, q3, share = spread(values)
        raw = [d["raw"][name] for d in details if name in d["raw"]]
        raw_text = ""
        if len(raw) == len(values):
            raw_median, _, _, raw_share = spread(raw)
            raw_text = f"{raw_median:11.4f} {raw_share:10.3f}"
        ratio = share / metric["bound"]
        if ratio > 1:
            ok = False
        print(f"{name:14s} {median:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{share:7.3f} {metric['bound']:6.2f} {ratio:7.2f}   "
              f"{raw_text}")
    shares = {line["failed"] / line["attempted"] for line in lines}
    print(f"failed share per run: {sorted(shares)}")
    if len(shares) != 1:
        ok = False
    kernel = [statistics.median(d["kernel_ms"]) for d in details]
    print(f"reference kernel median ms per run: "
          f"{', '.join(f'{k:.3f}' for k in kernel)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
