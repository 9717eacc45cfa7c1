"""Steadiness check: run the benchmark once per seed and report the spread.

    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
one after another. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread below a
third of the bound is steady; the summary JSON goes to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int):
    """(result line, run description) of one untraced run."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", default=".bench_out/prove.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs, infos = [], []
        for seed in args.seeds:
            res, info = run_once(workload, seed, spec["run_seconds"])
            runs.append(res)
            infos.append(info)
            print(workload, seed, res["attempted"], res["failed"], res["correct"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        rows = {}
        for name, bound in bounds.items():
            row = spread([r["metrics"][name]["value"] for r in runs])
            row["bound"] = bound
            row["steady"] = row["spread"] <= bound / 3.0
            rows[name] = row
            print(f"  {name:12s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                  f"  bound {bound}  {'steady' if row['steady'] else 'NOT STEADY'}",
                  flush=True)
        report[workload] = {"seeds": args.seeds,
                            "environment": infos[0]["environment"],
                            "all_correct": all(r["correct"] for r in runs),
                            "ops": [r["attempted"] for r in runs],
                            "failures": [i["failures"] for i in infos],
                            "repeat_share": [i["repeat_share"] for i in infos],
                            "tail_percentile": infos[0]["tail_percentile"],
                            "metrics": rows,
                            "values": {name: [r["metrics"][name]["value"] for r in runs]
                                       for name in bounds}}
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
