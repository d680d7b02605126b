#!/usr/bin/env python3
"""Run every benchmark workload and print all of its metrics.

    python3 perfbench/report.py                      # seed 1, untraced + traced
    python3 perfbench/report.py --seeds 1-10 --no-trace
    python3 perfbench/report.py --seeds 1-10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process, as the benchmark is defined. For
every workload the report prints each end-to-end metric's median over the
seeds and its spread (first-to-third quartile distance over the median)
against the bound in BENCHMARK.json. The first seed also gets a traced run:
its per-layer metrics are printed, with the tracing overhead (traced minus
untraced ``train_examples_per_s`` and ``serve_p50_ms``) and a check that
``train_loss`` and ``serve_f1`` are bit-identical with and without tracing.
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


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, body = line.partition(" ")
        if key in ("machine", "detail"):
            doc[key] = json.loads(body)
    return doc


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    report: dict = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            doc = run_once(workload, seed, args.seconds, trace=False)
            print(f"{workload} seed {seed}: correct {doc['correct']} attempted "
                  f"{doc['attempted']} failed {doc['failed']}", flush=True)
            runs.append(doc)
        report["machine"] = runs[0]["machine"]
        entry: dict = {"runs": runs, "summary": {}}
        print(f"\n== {workload} ({len(seeds)} seeds, untraced)")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "unit": m["unit"],
                   "better": m["better"], "bound": m["bound"]}
            if len(values) >= 2:
                row["spread"] = spread(values)
            entry["summary"][name] = row
            extra = (f"  spread {row['spread']:.4f} (bound {m['bound']})"
                     if "spread" in row else "")
            print(f"  {name:24s} {row['median']:12.4f} {m['unit']:6s}{extra}")
        if not args.no_trace:
            traced = run_once(workload, seeds[0], args.seconds, trace=True)
            untraced = runs[0]["metrics"]
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced"] = traced
            entry["tracing_overhead"] = {
                "train_examples_per_s": (layer["trace.train_examples_per_s"]
                                         - untraced["train_examples_per_s"]["value"]),
                "serve_p50_ms": layer["trace.serve_p50_ms"] - untraced["serve_p50_ms"]["value"],
            }
            detail = traced["detail"]
            quality_same = {k: runs[0]["detail"][k] == detail[k]
                            for k in ("train_loss", "serve_f1", "train_log")}
            entry["traced_quality_identical"] = quality_same
            print(f"-- {workload} traced, seed {seeds[0]}")
            for name, value in sorted(layer.items()):
                print(f"  {name:34s} {value:14.6g} {traced['metrics'][name]['unit']}")
            for name, delta in entry["tracing_overhead"].items():
                print(f"  tracing overhead {name}: {delta:+.4f}")
            print("  bit-identical with tracing: " + ", ".join(
                f"{k} {same}" for k, same in quality_same.items()))
        report["workloads"][workload] = entry
    print("\nmachine " + json.dumps(report.get("machine"), sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
