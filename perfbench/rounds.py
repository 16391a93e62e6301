"""Run the benchmark over several seeds, workloads interleaved, and report the spread.

Usage (from the root of a checkout):

    python3 perfbench/rounds.py --seeds 1-10 [--seconds 30]

Each seed runs every workload once, untraced, in turn (A, B, C, A, B, C,
...), so a slow spell of the machine falls on all workloads instead of on
one block.
For every workload and metric it prints the median, the quartiles and the
spread (quartile distance / median) next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers
from run import OUTPUT_METRICS, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    bench = layers.benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in parse_seeds(args.seeds):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                return 1
            result = json.loads(lines[-1])
            for line in lines:
                name, _, rest = line.partition(" ")
                if name in OUTPUT_METRICS:
                    value, unit = rest.split()
                    result["metrics"][name] = {"value": float(value), "unit": unit}
            results[workload].append(result)
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                              if bounds.get(k) is not None)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, {shown}", flush=True)

    print(f"\n{'workload':<10} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} runs")
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:<10} {'failed_ratio':<40} {failed / attempted:>12.4g} "
              f"{'':>12} {'':>12} {'':>7} {'':>6} {len(runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            print(f"{workload:<10} {name + ' [' + runs[0]['metrics'][name]['unit'] + ']':<40} "
                  f"{median:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>7.3f} "
                  f"{'' if bound is None else bound:>6} {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
