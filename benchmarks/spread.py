#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/spread.py [--workloads a,b] [--runs 10] [--seconds S]
                                 [--first-seed 1] [--out FILE]

Runs are `--trace 0` runs, made one at a time, from the root of the
checkout: the mode whose metrics have bounds. For every
workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, next to the bound in BENCHMARK.json. --out writes the same
summary, with every run's values and the machine context, as JSON.
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


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            summary.setdefault("context", next(
                (line[len("context "):] for line in lines if line.startswith("context ")), ""))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:  # unscaled figures printed beside the metrics
                name, _, rest = line.partition(" ")
                if name.startswith("raw.") or name == "gauge_ms":
                    values.setdefault(name, []).append(float(rest.split()[0]))
        rows = {}
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound}" + (" OVER/3" if spread > bound / 3 else "")
            print(f"{name:40s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:.4f}{flag}")
        summary["workloads"][workload] = rows
    summary["all_correct"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
