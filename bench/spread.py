"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/spread.py --seeds 0-9 --trace-seeds 0 --out bench/BENCH_0.json

For every workload in BENCHMARK.json and every seed it runs bench/run.py
once with tracing off (one process at a time, each for run_seconds),
then once per trace seed with tracing on. For each end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, next to the bound in BENCHMARK.json.
A spread at or above a third of its bound is flagged. With fewer than two
seeds there are no quartiles, and the spread is reported as null. The
summary, including the traced per-layer metrics and the machine facts,
is written to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": None, "q3": None, "spread": None, "bound": bound, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="untraced seeds, e.g. 0-9 or 1,3,5")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs (default none)")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {"seeds": parse_seeds(args.seeds), "correct": all(r["result"]["correct"] for r in runs),
                 "attempted": [r["result"]["attempted"] for r in runs],
                 "failed": [r["result"]["failed"] for r in runs],
                 "tail_percentile": [r["record"]["latency"]["tail_percentile"] for r in runs],
                 "input": runs[0]["record"]["input"], "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs], bound)
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            flagged = stats["spread"] is not None and stats["spread"] >= bound / 3
            steady &= not flagged
            entry["end_to_end"][name] = stats
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"{workload:24s} {name:16s} median {stats['median']:12.6g} {stats['unit']:6s}"
                  f" spread {spread:>7s} bound {bound:5.3f}{'  WIDE' if flagged else ''}")
        traced = [run(workload, s, seconds, 1) for s in parse_seeds(args.trace_seeds)] if args.trace_seeds else []
        if traced:
            entry["per_layer"] = {
                "seeds": parse_seeds(args.trace_seeds),
                "correct": all(r["result"]["correct"] for r in traced),
                "metrics": {name: statistics.median(r["result"]["metrics"][name]["value"] for r in traced)
                            for name in traced[0]["result"]["metrics"]},
                "units": {n: m["unit"] for n, m in traced[0]["result"]["metrics"].items()},
                "derived": traced[0]["record"]["derived"],
                "computed": traced[0]["record"]["computed"],
                "measured_from": traced[0]["record"]["measured_from"],
            }
            for name, value in entry["per_layer"]["metrics"].items():
                print(f"{workload:24s} {name:34s} {value:14.6g} {entry['per_layer']['units'][name]}")
        summary["workloads"][workload] = entry
        summary["machine"] = runs[0]["record"]["machine"]
        summary["source"] = runs[0]["record"]["source"]
    print("steady" if steady else "not steady: some spread is at or above a third of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
