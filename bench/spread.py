"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs BENCHMARK.json's command once per (workload, seed), one process at a
time, and prints for every end-to-end metric the median, the quartiles and
the spread (Q3 - Q1) / median next to the metric's bound.  A spread at or
above a third of the bound is flagged.  The raw results go to
.sepbench/spread-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(lines[-2])["stamp"]
    result["elapsed_s"] = elapsed
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results: dict = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(spec, workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"elapsed={res['elapsed_s']:.1f}s", file=sys.stderr, flush=True)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {m['name']:<32} median {med:12.6g} {m['unit']:<6}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                line += f" q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}"
                if "bound" in m:
                    flag = "" if spread < m["bound"] / 3 else "  <-- >= bound/3"
                    line += f" bound {m['bound']}{flag}"
            print(line, flush=True)
    out = ROOT / ".sepbench" / f"spread-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
