"""Workload definitions, seeded input generation and output checks.

Every input a workload feeds the program is derived from the benchmark
seed and written under the run's work directory; the program only sees
those files and text. Each workload records why it exists and how large
its inputs are, next to its definition.

CLI workloads run one ``toolkit`` command per op as a subprocess
(``python -m cavitycharge.cli`` with the checkout's ``src`` on the path),
so an op includes interpreter start and import. Library workloads run one
warm call per op inside a worker process.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BUDGET_TARGETS = (
    "cooling",
    "coupling",
    "lamb-dicke",
    "gate",
    "rydberg-coherence",
    "rydberg-gate",
    "charging",
)
EXPECTED_DOCUMENTED = {"kappa_zno_128d", "gate_ratio_rabi", "photocurrent_rate"}
EXPECTED_MATCH = 37
REPORT_ROWS = 41
SWEEP_POINTS = 200

# cli-ringdown trace shape: bundled linewidth, about 8 decay times, 1% noise
TRACE_SAMPLES = 200_000
TRACE_POOL = 4
TRACES_PER_OP = 2
LINEWIDTH_HZ = 523e3
FSR_HZ = 7.41e9
NOISE_SHARE = 0.01
LINEWIDTH_SIGMAS = 5.0
# one probe trace with an absolute 1 ms time offset (ordinary scope
# timestamps); it is fitted once in traced runs, outside the timed ops
OFFSET_S = 1e-3
OFFSET_PROBE_SAMPLES = 20_000

# lib-budgets: scenario keys scaled by U(0.8, 1.25) per variant
VARIANT_KEYS = ("xq_m", "secular_hz", "alpha")
VARIANT_CHARGE_KEYS = ("q1_e", "q2_e")  # scaled together, so q1 = q2 stays
VARIANT_POOL = 64
BISECTION_RTOL = 1e-6  # ion_impact._bisect_increasing default


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "cli": subprocess per op; "lib": warm in-process call
    ops_per_cycle: int  # a run ends only on a cycle boundary
    setup_import: str   # what a fresh interpreter imports before the first op
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-paper", "cli", 1 + len(BUDGET_TARGETS), "cavitycharge.cli",
            "Everyday user path: reproduce-paper plus budget for all 7 targets. "
            "Import is most of each call, so fixed-cost changes show here; the "
            "ringdown layer never runs.",
        ),
        Workload(
            "cli-ringdown", "cli", 1, "cavitycharge.cli",
            "fit-ringdown on two 200k-sample traces: trace CSV load and the fit "
            "dominate; no scenario, Monte-Carlo or budget code runs.",
        ),
        Workload(
            "lib-report", "lib", 1, "cavitycharge.reports",
            "Warm build_report: the Monte-Carlo layer (5 extinction MCs at 1e5 "
            "draws plus one propagate_monte_carlo) dominates; no import cost.",
        ),
        Workload(
            "lib-budgets", "lib", 1, "cavitycharge.reports",
            "Warm parse of a seeded scenario variant plus budget_report for all "
            "7 targets: bisection and 200-point scalar sweeps, no MC, no ringdown.",
        ),
    )
}


# reference_ms() on this kernel's uncontended host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4); end-to-end times are scaled to it
REFERENCE_MS = 10.0


def reference_ms() -> float:
    """Wall time of a fixed pure-Python and numpy kernel (about 10 ms) that no
    change to the package can touch: a gauge of the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    np.random.default_rng(0).normal(size=100_000).sort()
    return (perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# input generation


def _write_trace(path: Path, rng, samples: int, offset_s: float) -> dict:
    linewidth = LINEWIDTH_HZ * rng.uniform(0.9, 1.1)
    v0 = rng.uniform(0.8, 1.2)
    duration = 8.0 / (2.0 * math.pi * linewidth)
    t = np.arange(samples) * (duration / samples)
    v = v0 * np.exp(-2.0 * math.pi * linewidth * t)
    v += rng.normal(0.0, NOISE_SHARE * v0, samples)
    lines = ["t_seconds,v_volts"]
    lines += [f"{a:.10e},{b:.10e}" for a, b in zip((t + offset_s).tolist(), v.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "path": str(path),
        "linewidth_hz": linewidth,
        "samples": samples,
        "bytes": path.stat().st_size,
    }


def _scenario_variant(text: str, rng) -> str:
    def scale(text: str, key: str, factor: float) -> str:
        pattern = re.compile(rf"^({key}\s*=\s*)(\S+)$", re.MULTILINE)
        match = pattern.search(text)
        if match is None:
            raise ValueError(f"bundled scenario has no key {key!r}")
        return pattern.sub(lambda m: m.group(1) + repr(float(m.group(2)) * factor), text)

    for key in VARIANT_KEYS:
        text = scale(text, key, rng.uniform(0.8, 1.25))
    factor = rng.uniform(0.8, 1.25)
    for key in VARIANT_CHARGE_KEYS:
        text = scale(text, key, factor)
    return text


def make_inputs(name: str, seed: int, root: Path, workdir: Path) -> dict:
    """Generate the workload's inputs from the seed; returns a JSON-able spec."""
    rng = np.random.default_rng(seed)
    spec = {"workload": name, "seed": seed, "workdir": str(workdir)}
    if name == "cli-paper":
        spec["toolkit_seed_base"] = int(rng.integers(1, 2**30))  # warm-up uses base - 1
    elif name == "cli-ringdown":
        spec["traces"] = [
            _write_trace(workdir / f"trace_{k}.csv", rng, TRACE_SAMPLES, 0.0)
            for k in range(TRACE_POOL)
        ]
        spec["pair_order"] = rng.permutation(TRACE_POOL).tolist()
        spec["offset_probe"] = _write_trace(
            workdir / "trace_offset.csv", rng, OFFSET_PROBE_SAMPLES, OFFSET_S
        )
    elif name == "lib-report":
        spec["report_seed_base"] = int(rng.integers(1, 2**30))
    elif name == "lib-budgets":
        bundled = (root / "src/cavitycharge/data/paper_yb.scenario").read_text(
            encoding="utf-8"
        )
        spec["variants"] = [_scenario_variant(bundled, rng) for _ in range(VARIANT_POOL)]
    else:
        raise KeyError(name)
    return spec


def input_sizes(spec: dict) -> dict:
    """Sizes of what one op consumes, for the result's detail block."""
    name = spec["workload"]
    if name == "cli-ringdown":
        traces = spec["traces"]
        return {
            "traces_per_op": TRACES_PER_OP,
            "samples_per_trace": traces[0]["samples"],
            "bytes_per_trace": int(np.mean([t["bytes"] for t in traces])),
        }
    if name == "lib-budgets":
        return {
            "variants": len(spec["variants"]),
            "scenario_bytes": len(spec["variants"][0].encode()),
            "targets_per_op": len(BUDGET_TARGETS),
            "sweep_points": SWEEP_POINTS,
        }
    if name == "cli-paper":
        return {"commands_per_cycle": 1 + len(BUDGET_TARGETS), "report_rows": REPORT_ROWS}
    return {"report_rows": REPORT_ROWS}


# ---------------------------------------------------------------------------
# CLI ops: (argv tail, extra env, out file) and their output checks


def cli_op(spec: dict, index: int) -> tuple[list[str], dict, Path | None]:
    """The index-th op of a CLI workload."""
    workdir = Path(spec["workdir"])
    if spec["workload"] == "cli-paper":
        cycle, slot = divmod(index, 1 + len(BUDGET_TARGETS))
        env = {"TOOLKIT_SEED": str(spec["toolkit_seed_base"] + cycle)}
        if slot == 0:
            out = workdir / "report.csv"
            return ["reproduce-paper", "--out", str(out)], env, out
        target = BUDGET_TARGETS[slot - 1]
        out = workdir / "sweep.csv"
        argv = ["budget", "--scenario", "paper_yb.scenario", "--target", target,
                "--out", str(out)]
        return argv, env, out
    order = spec["pair_order"]
    traces = [
        spec["traces"][order[(index + k) % len(order)]]["path"]
        for k in range(TRACES_PER_OP)
    ]
    return ["fit-ringdown", "--fsr-hz", repr(FSR_HZ), *traces], {}, None


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_report_csv(text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != REPORT_ROWS:
        return f"report has {len(rows)} rows, expected {REPORT_ROWS}"
    statuses = [r["status"] for r in rows]
    documented = {r["row_id"] for r in rows if r["status"] == "MISMATCH-DOCUMENTED"}
    if statuses.count("MATCH") != EXPECTED_MATCH or documented != EXPECTED_DOCUMENTED:
        return f"report statuses: {statuses.count('MATCH')} MATCH, documented {sorted(documented)}"
    if not all(_finite(r["computed"]) for r in rows):
        return "report has a non-finite computed value"
    return None


def check_sweep_lines(lines: list[str]) -> str | None:
    body = lines[1:]
    if len(body) != SWEEP_POINTS:
        return f"sweep has {len(body)} rows, expected {SWEEP_POINTS}"
    for line in body:
        cells = line.split(",")
        if len(cells) != 2 or not all(_finite(c) for c in cells):
            return f"sweep row not finite: {line!r}"
    return None


def check_cli_op(spec: dict, argv: list[str], code: int, stdout: str,
                 out: Path | None) -> str | None:
    """None if the op's output is correct, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    if command == "reproduce-paper":
        return check_report_csv(out.read_text(encoding="utf-8"))
    if command == "budget":
        rows = [line.split(",") for line in stdout.splitlines()
                if line and not line.startswith("#") and line != "quantity,value,unit"]
        if not rows or not all(len(r) == 3 and _finite(r[1]) for r in rows):
            return "budget rows are not all finite"
        return check_sweep_lines(out.read_text(encoding="utf-8").splitlines())
    return check_fit_output(spec, argv, stdout)


def check_fit_output(spec: dict, argv: list[str], stdout: str) -> str | None:
    truth = {t["path"]: t["linewidth_hz"] for t in spec["traces"]}
    truth[spec["offset_probe"]["path"]] = spec["offset_probe"]["linewidth_hz"]
    paths = argv[3:]
    fitted = {}
    finesse = None
    for line in stdout.splitlines():
        if line.startswith("# finesse = "):
            finesse = float(line.split("=")[1].split("+/-")[0])
        elif not line.startswith(("#", "trace,")):
            path, lw, sigma, _v0 = line.rsplit(",", 3)
            fitted[path] = (float(lw), float(sigma))
    if set(fitted) != set(paths):
        return f"fitted {len(fitted)} of {len(paths)} traces"
    for path, (lw, sigma) in fitted.items():
        if not (sigma > 0 and abs(lw - truth[path]) <= LINEWIDTH_SIGMAS * sigma):
            return f"{path}: linewidth {lw} +/- {sigma} vs truth {truth[path]}"
    if finesse is None or not (math.isfinite(finesse) and finesse > 0):
        return f"finesse {finesse} is not finite and positive"
    return None


# ---------------------------------------------------------------------------
# library ops (run inside the worker, where cavitycharge is imported)


def check_report_rows(reports, rows) -> str | None:
    if reports.report_exit_code(rows) != 0:
        return "report_exit_code != 0"
    return check_report_csv(reports.render_csv(rows))


def check_budgets(cc, scn, results: dict) -> str | None:
    """Each inverted budget, pushed through its forward model, brackets its
    threshold within the bisection tolerance; every sweep has 200 finite rows."""
    ion, ryd, es = cc.ion_impact, cc.rydberg_impact, cc.electrostatics
    trap = scn.trap_config()
    x_q = scn.charge_scenario().x_q_m
    rydberg = scn.rydberg_config()
    gate = scn.gate_params()
    k_gate = 2.0 * math.pi / trap.gate_wavelength_m
    forward = {
        # target: (row, forward model of q, threshold, increasing?)
        "cooling": ("q1_max", lambda q: ion.carrier_intensity_factor(
            ion.micromotion_of_single_charge(trap, x_q, q), trap.cooling_wavelength_m),
            0.5, False),
        "coupling": ("q1_max", lambda q: ion.equilibrium_position(
            trap, es.ChargeScenario(q, 0.0, x_q)), trap.cavity_wavelength_m / 8.0, True),
        "lamb-dicke": ("q1_max", lambda q: k_gate * ion.micromotion_of_single_charge(
            trap, x_q, q), 0.2, True),
        "gate": ("equal_charge_bound", lambda q: ion.gate_detuning_verdict(
            trap, es.ChargeScenario(q, q, x_q), gate).ratio_rabi,
            gate.threshold_ratio, True),
        "rydberg-coherence": ("q1_max", lambda q: ryd.decoherence_time(
            rydberg, es.single_charge_field(q, x_q)), 5e-6, False),
        "rydberg-gate": ("q1_max", lambda q: ryd.blockade_infidelity(
            rydberg, ryd.stark_shift(rydberg, es.single_charge_field(q, x_q))),
            0.01, True),
    }
    for target, (rows, _header, sweep) in results.items():
        values = {name: float(value) for name, value, _unit in rows}
        if not all(math.isfinite(v) for v in values.values()):
            return f"{target}: non-finite budget row"
        if len(sweep) != SWEEP_POINTS or not np.all(np.isfinite(np.asarray(sweep, float))):
            return f"{target}: sweep is not {SWEEP_POINTS} finite rows"
        if target not in forward:
            continue
        row, f, threshold, increasing = forward[target]
        q = values[row]
        below = f(q * (1.0 - 2.0 * BISECTION_RTOL))
        above = f(q * (1.0 + 2.0 * BISECTION_RTOL))
        lo, hi = (below, above) if increasing else (above, below)
        if not lo <= threshold <= hi:
            return f"{target}: {row} = {q} does not meet {threshold} ({lo}, {hi})"
    return None
