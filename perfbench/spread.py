#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload flows --seeds 0-9 [--seconds 35]
        [--out spread-flows.json]

Runs the benchmark once per seed, one run after another, each in a fresh
process, and prints for every end-to-end metric the median over the runs,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        run = {"seed": seed, "correct": result["correct"],
               "attempted": result["attempted"], "failed": result["failed"],
               **{k: v["value"] for k, v in result["metrics"].items()}}
        runs.append(run)
        print(json.dumps(run), flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        summary[name] = summarize([r[name] for r in runs])
        s = summary[name]
        print(f"{name:12s} median {s['median']:.4f} q1 {s['q1']:.4f} "
              f"q3 {s['q3']:.4f} spread {s['spread']:.3f} "
              f"(bound {metric['bound']})")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
