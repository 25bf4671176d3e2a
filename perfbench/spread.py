"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 0] [--out FILE]

Runs run.py once per seed, one run at a time, from the checkout root, with
BENCHMARK.json's run_seconds. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median, next to the metric's
bound. A benchmark is steady when every spread but setup_s's stays below
a third of its bound. For comparison it also prints the spread of the raw
wall times the normalized metrics come from (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Raw wall-time figures of the record line, beside the normalized metric of each.
RAW_WALL = {
    "norm_s": "ops_wall_s",
    "datasets_per_norm_s": "datasets_per_s",
    "dataset_p50_norm_ms": "dataset_p50_ms",
    "dataset_tail_norm_ms": "dataset_tail_ms",
}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())

    results = []
    records = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ],
            capture_output=True, text=True, check=True,
        )
        *_, record_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        results.append(result)
        records.append(json.loads(record_line))
        print(f"seed {seed}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()
        ) + f"; failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "metrics": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = summarize([r["metrics"][name]["value"] for r in results])
        stats["bound"] = metric["bound"]
        summary["metrics"][name] = stats
        print(
            f"{name:20s} median {stats['median']:.4g} {metric['unit']:5s} "
            f"q1 {stats['q1']:.4g} q3 {stats['q3']:.4g} "
            f"spread {stats['spread']:.3f} (bound {metric['bound']}, "
            f"{'below' if stats['spread'] < metric['bound'] / 3 else 'NOT below'} a third)"
        )
    summary["raw_wall"] = {}
    for name, raw in RAW_WALL.items():
        stats = summarize([r[raw] for r in records])
        summary["raw_wall"][raw] = stats
        label = f"(raw) {raw}"
        print(f"{label:20s} median {stats['median']:.4g} spread {stats['spread']:.3f}")
    summary["failed"] = sum(r["failed"] for r in results)
    summary["attempted"] = sum(r["attempted"] for r in results)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
