"""Minor page faults, CPU time and peak RSS per warm new-seed build_report.

Runs build_report in this process, first 3 warm-up reports, then
--reports more, each on a seed not used before, and prints one JSON line
with the per-report minor faults (resource.getrusage ru_minflt), system
and user CPU time, the process's peak resident set size (ru_maxrss, in MB
of 1e6 bytes, as the benchmark reports it) and the wall-time quartiles.
Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/report_faults.py --reports 40
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from cavitycharge.reports import build_report, bundled_scenario

WARMUP = 3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reports", type=int, default=40)
    args = ap.parse_args()
    scn = bundled_scenario()
    for seed in range(WARMUP):
        build_report(scn, seed=seed)
    walls = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for seed in range(WARMUP, WARMUP + args.reports):
        t0 = time.perf_counter()
        build_report(scn, seed=seed)
        walls.append(1e3 * (time.perf_counter() - t0))
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(walls)
    q1, q2, q3 = statistics.quantiles(walls, n=4)
    print(json.dumps({
        "reports": n,
        "minor_faults_per_report": (after.ru_minflt - before.ru_minflt) / n,
        "peak_rss_mb": after.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "system_ms_per_report": 1e3 * (after.ru_stime - before.ru_stime) / n,
        "user_ms_per_report": 1e3 * (after.ru_utime - before.ru_utime) / n,
        "wall_ms": {"p25": q1, "p50": q2, "p75": q3},
    }))


if __name__ == "__main__":
    main()
