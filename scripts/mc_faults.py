"""Minor page faults, CPU time and peak RSS per warm new-seed Monte Carlo.

Runs propagate_monte_carlo of the finesse F = FSR/linewidth over the
bundled scenario's linewidth and FSR, mc_samples draws, in this process:
first 3 warm-up calls, then --calls more, each on a seed not used before.
It prints one JSON line with the per-call minor faults (resource.getrusage
ru_minflt), system and user CPU time, the process's peak resident set size
(ru_maxrss, in MB of 1e6 bytes, as the benchmark reports it) and the
wall-time quartiles. propagate_monte_carlo keeps its full-length arrays
between calls, so a warm new-seed call should fault in no fresh pages.
Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/mc_faults.py --calls 40
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from cavitycharge.quantities import UncertainQuantity, propagate_monte_carlo
from cavitycharge.reports import bundled_scenario

WARMUP = 3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=40)
    args = ap.parse_args()
    scn = bundled_scenario()
    c = scn.cavity
    inputs = [UncertainQuantity(c.linewidth_hz, c.linewidth_sigma_hz),
              UncertainQuantity(c.fsr_hz, c.fsr_sigma_hz)]

    def run(seed: int) -> None:
        propagate_monte_carlo(lambda d, f: f / d, inputs, scn.mc_samples, seed)

    for seed in range(WARMUP):
        run(seed)
    walls = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for seed in range(WARMUP, WARMUP + args.calls):
        t0 = time.perf_counter()
        run(seed)
        walls.append(1e3 * (time.perf_counter() - t0))
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(walls)
    q1, q2, q3 = statistics.quantiles(walls, n=4)
    print(json.dumps({
        "calls": n,
        "minor_faults_per_call": (after.ru_minflt - before.ru_minflt) / n,
        "peak_rss_mb": after.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "system_ms_per_call": 1e3 * (after.ru_stime - before.ru_stime) / n,
        "user_ms_per_call": 1e3 * (after.ru_utime - before.ru_utime) / n,
        "wall_ms": {"p25": q1, "p50": q2, "p75": q3},
    }))


if __name__ == "__main__":
    main()
