"""Run every workload several times and summarise each metric.

    python3 perfbench/sweep.py --runs 10                 # all workloads, untraced
    python3 perfbench/sweep.py --runs 2 --trace 1        # per-layer metrics
    python3 perfbench/sweep.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/sweep.py --runs 3 --trace 1 --out perfbench/baseline.json

Run k of a workload uses seed SEED_BASE + k. For each metric it prints the
median, the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) /
median and, for end-to-end metrics, the bound from BENCHMARK.json; a
spread above a third of its bound is flagged. Every run's outputs are
checked by run.py; a run that is not correct is reported and fails the sweep.
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
DETAIL_UNITS = {"wall_call_ms_p25": "ms", "wall_call_ms_p50": "ms", "wall_call_ms_p90": "ms",
                "wall_setup_s": "s", "ops_per_s": "1/s", "reference_ms_p25": "ms"}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.seed_base + k
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: NOT CORRECT {detail['errors']}")
            # wall-clock figures from the details line, summarised alongside
            for name, unit in DETAIL_UNITS.items():
                if detail.get(name) is not None:
                    result["metrics"][name] = {"value": detail[name], "unit": unit}
            runs.append(result)
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()
                 if all(k in r["metrics"] for r in runs)}
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]), unit=unit)
            for name, unit in units.items()
        }
        summary[workload] = {
            "seeds": [args.seed_base + k for k in range(args.runs)],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, "
              f"ops per run {[r['attempted'] for r in runs]}")
        print(f"  {'metric':44s} {'unit':>10s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, m in metrics.items():
            bound = bounds.get(name) if not args.trace else None
            flag = " !" if bound and name != "setup_s" and m["spread"] > bound / 3 else ""
            print(f"  {name:44s} {m['unit']:>10s} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['spread']:7.3f} {bound if bound else '':>6}{flag}")
    if args.out:  # untraced and traced sweeps share one file; workloads merge in
        saved = json.loads(args.out.read_text()) if args.out.exists() else {}
        saved.setdefault(f"trace{args.trace}", {}).update(summary)
        args.out.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
