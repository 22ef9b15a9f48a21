#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize it.

    python3 bench/baseline.py --seeds 0-9 [--workloads corpus,dense,grounding]
        [--traced-seed 0] [--out bench/baseline.json] [--compare OLD.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, with
``run_seconds`` from BENCHMARK.json. Reports each metric's median and
quartiles over the runs, and for every end-to-end metric its spread (the
interquartile range as a share of the median) against the bound in
BENCHMARK.json. With ``--traced-seed`` it adds one traced run per workload
for the per-layer breakdown. ``--out`` writes the summary as JSON;
``--compare`` checks each end-to-end median against an earlier summary and
flags a metric whose median got worse by more than its bound.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^(\w+)\s+(-?[\d.]+) (\S+)")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    # every "name value unit" line, which includes the per-stage times
    result["printed"] = {m[1]: float(m[2]) for m in map(LINE.match, lines[:-1]) if m}
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "n": len(values)}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    old = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    summary = {"run_seconds": seconds, "seeds": seeds, "cpu_model": cpu_model(), "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"end_to_end": {}, "stages": {}}
        for name in runs[0]["metrics"]:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = runs[0]["metrics"][name]["unit"]
        for name in runs[0]["printed"]:
            if name not in entry["end_to_end"]:
                entry["stages"][name] = summarize([r["printed"][name] for r in runs])
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = ""
            if name != "setup_s" and s["spread"] is not None:
                worst = max(worst, s["spread"] / bounds[name])
                flag = "  OVER BOUND" if s["spread"] > bounds[name] else ""
            if name in old.get(workload, {}).get("end_to_end", {}):
                change = s["median"] / old[workload]["end_to_end"][name]["median"] - 1
                flag += f"  {change:+.3f} vs earlier median" + ("  WORSE THAN BOUND" if change > bounds[name] else "")
            print(f"  {name:<14} median {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        for name, s in entry["stages"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:<14} median {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] spread {spread}",
                  flush=True)
    print(f"largest spread as a share of its bound: {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
