"""cavitycharge benchmark: what a user waits for, per workload.

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 22 --trace 0

Run from a checkout's root. The package is not installed: every program
process runs the checkout's ``src`` tree (``python -m cavitycharge.cli``
for CLI ops). One client runs ops in a closed loop, one at a time, with
BLAS/OpenMP threads pinned to 1. The last line of stdout is the result
JSON; the line before it holds the environment block and run details.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced cycles of ops and reports the per-layer metrics, the import
profile and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import (
    BUDGET_TARGETS, WORKLOADS, check_cli_op, check_fit_output, cli_op, input_sizes,
    REFERENCE_MS, make_inputs, reference_ms,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"   # temporary inputs and kept spans; git-ignored
WORKER = HERE / "worker.py"
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_STARTS = 6     # fresh interpreters per run; setup_s is their median
PROFILE_STARTS = 5   # fresh interpreters per run for the import profile
CHILD_TIMEOUT_S = 90
REFERENCES_PER_CLI_OP = 3  # host-speed samples before each CLI op
P90_MIN_OPS = 100    # so that at least 10 ops lie beyond the 90th percentile
LAYERS = ("import", "cli", "scenario", "ringdown", "cavity_optics", "quantities",
          "reports", "ion_impact", "rydberg_impact", "charging", "electrostatics")


def child_env(extra=None) -> dict:
    env = dict(os.environ, **PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(extra or {})
    return env


def run_child(argv, env, cwd, stdout_path, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Run one process to its end; returns (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def time_to_ready(argv, env, cwd) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, line.split(" ", 1)[1].strip()


# ---------------------------------------------------------------------------
# environment block


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src/cavitycharge"
    for path in sorted(p for p in package.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": _blas(),
        "thread_pins": PINS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "client": "one process, closed loop, one op at a time",
    }


# ---------------------------------------------------------------------------
# op loops


def cli_loop(spec, seconds, trace, workdir):
    """Closed loop of toolkit subprocesses, whole cycles only; with tracing,
    every second cycle runs through the traced entry point."""
    workload = WORKLOADS[spec["workload"]]
    records, errors, summaries = [], [], []
    stdout_path, stderr_path = workdir / "op.out", workdir / "op.err"

    def run(i, traced):
        argv, extra, out = cli_op(spec, i)
        if out is not None and out.exists():
            out.unlink()
        if traced:
            summary = workdir / "summary.json"
            summary.unlink(missing_ok=True)
            command = [sys.executable, str(WORKER), "cli", str(summary), str(i), "--", *argv]
        else:
            command = [sys.executable, "-m", "cavitycharge.cli", *argv]
        code, wall, rss = run_child(command, child_env(extra), workdir, stdout_path,
                                    stderr_path)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        try:
            error = check_cli_op(spec, argv, code, stdout, out)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {exc}"
        if error and len(errors) < 5:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            errors.append(f"op {i} {' '.join(argv[:1])}: {error} {tail}")
        if traced and summary.exists():
            written = len(stdout.encode()) + (out.stat().st_size if out and out.exists() else 0)
            summaries.append((json.loads(summary.read_text()), written))
        return [wall * 1e3, error is None, traced, rss]

    # one untimed op: every command imports the same modules and reads the same files
    warmup = run(-1, False)[1]
    loop_start = perf_counter()
    deadline = loop_start + seconds
    i = 0
    refs = []
    while i < 2 * workload.ops_per_cycle or i % workload.ops_per_cycle or perf_counter() < deadline:
        refs.extend(reference_ms() for _ in range(REFERENCES_PER_CLI_OP))
        records.append(run(i, trace and (i // workload.ops_per_cycle) % 2 == 1))
        i += 1
    return {
        "warmup_ok": warmup,
        "ops": records,
        "refs": refs,
        "wall_s": perf_counter() - loop_start,
        "errors": errors,
        "summaries": summaries,
    }


def lib_loop(spec, seconds, trace, workdir):
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out, err = workdir / "worker.out", workdir / "worker.err"
    command = [sys.executable, str(WORKER), "lib", str(spec_path), repr(seconds),
               "1" if trace else "0"]
    code, _wall, rss = run_child(command, child_env(), workdir, out, err,
                                 timeout=seconds + CHILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"library worker exited {code}: {err.read_text()[-2000:]}")
    result = json.loads(out.read_text().splitlines()[-1])
    for record in result["ops"]:
        record.append(rss)
    summary = result.pop("trace")
    result["summaries"] = [(summary, 0)] if summary else []
    return result


# ---------------------------------------------------------------------------
# metrics


def _p50(values):
    return statistics.median(values) if values else 0.0


def _p25(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else _p50(values)


def end_to_end(result, setup_times) -> dict:
    """Times are scaled to a host whose reference kernel takes REFERENCE_MS.

    The host's speed changes by up to half for minutes at a time, with
    contended spells of seconds inside a run. Lower quartiles keep clear of
    the spells: of the op times, and of `reference_ms`, measured between
    ops in the same run. Their ratio removes the slow drift. Unscaled wall
    times are in the details line.
    """
    ops = result["ops"]
    ok_ms = [r[0] for r in ops if r[1]] or [r[0] for r in ops]
    speed = REFERENCE_MS / _p25(result["refs"])
    return {
        "call_ms_p25": (_p25(ok_ms) * speed, "ms"),
        "setup_s": (statistics.median(setup_times) * speed, "s"),
        "peak_rss_mb": (max(r[3] for r in ops), "MB"),
        "ops_ok_ratio": (sum(r[1] for r in ops) / len(ops), "ratio"),
    }


def _parse_importtime(stderr: str) -> dict:
    """Import profile of the lines after the marker of `python -X importtime`."""
    lines = stderr.split("@@profile\n", 1)[1].splitlines()
    entries = []  # (name, level, self us, cumulative us), children before parents
    for line in lines:
        if not line.startswith("import time:"):
            continue
        head, cumulative_us, name = line.split("|")
        self_us = head.split(":", 1)[1]
        if not cumulative_us.strip().isdigit():
            continue  # the column header
        level = len(name) - len(name.lstrip())
        entries.append((name.strip(), level, int(self_us), int(cumulative_us)))
    top = min(e[1] for e in entries)

    def ancestors(i):
        level = entries[i][1]
        for e in entries[i + 1:]:
            if e[1] < level:
                level = e[1]
                yield e[0].split(".")[0]

    def subtree_ms(package):
        """Cumulative time of the package's outermost imports; numpy modules that
        scipy pulls in count towards scipy."""
        return sum(
            e[3] for i, e in enumerate(entries)
            if e[0].split(".")[0] == package
            and not any(a in ("numpy", "scipy") for a in ancestors(i))
        ) / 1e3

    return {
        "total_ms": sum(e[3] for e in entries if e[1] == top) / 1e3,
        "numpy_ms": subtree_ms("numpy"),
        "scipy_ms": subtree_ms("scipy"),
        "cavitycharge_self_ms": sum(e[2] for e in entries if e[0].startswith("cavitycharge")) / 1e3,
        "modules_loaded": len(entries),
    }


def import_profile(workload, workdir) -> dict:
    statement = f"import sys; sys.stderr.write('@@profile\\n'); import {workload.setup_import}"
    profiles, interpreter = [], []
    out, err = workdir / "probe.out", workdir / "probe.err"
    for _ in range(PROFILE_STARTS):
        code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", statement],
                               child_env(), workdir, out, err)
        if code != 0:
            raise RuntimeError(f"import profile failed: {err.read_text()[-2000:]}")
        profiles.append(_parse_importtime(err.read_text()))
        _, wall, _ = run_child([sys.executable, "-c", "pass"], child_env(), workdir, out, err)
        interpreter.append(wall * 1e3)
    merged = {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
    merged["interpreter_ms"] = statistics.median(interpreter)
    return {f"import.{key}": value for key, value in merged.items()}


def offset_probe(spec, workdir) -> int:
    """1 if fitting a trace with absolute timestamps fails, else 0."""
    trace = spec["offset_probe"]["path"]
    argv = ["fit-ringdown", "--fsr-hz", "7.41e9", trace]
    code, _, _ = run_child([sys.executable, "-m", "cavitycharge.cli", *argv], child_env(),
                           workdir, workdir / "probe.out", workdir / "probe.err")
    stdout = (workdir / "probe.out").read_text(errors="replace")
    return int(code != 0 or check_fit_output(spec, argv, stdout) is not None)


def per_layer(result, profile, offset_failures) -> dict:
    traced = [r for r in result["ops"] if r[2]]
    untraced = [r for r in result["ops"] if not r[2]]
    n = len(traced)
    count, total, self_time, failures, counters = ({} for _ in range(5))
    for summary, _written in result["summaries"]:
        for name, stat in summary["stats"].items():
            for acc, value in zip((count, total, self_time, failures), stat):
                acc[name] = acc.get(name, 0) + value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    bytes_written = sum(written for _s, written in result["summaries"])
    traced_wall_s = sum(r[0] for r in traced) / 1e3

    def ms(name):
        return 1e3 * self_time.get(name, 0.0) / n

    def per_op(acc, name):
        return acc.get(name, 0) / n

    def layer_s(layer):
        return sum(v for k, v in self_time.items() if k.split(".")[0] == layer)

    fit_calls = count.get("ringdown.fit_ringdown", 0)
    load_s = total.get("ringdown.load_trace_csv", 0.0)
    fit_s = total.get("ringdown.fit_ringdown", 0.0)
    fit_samples = counters.get("ringdown.fit_samples", 0)
    traced_p50 = _p50([r[0] for r in traced])
    untraced_p50 = _p50([r[0] for r in untraced])
    metrics = dict(profile)
    metrics.update({
        "scenario.parse_ms": 1e3 * layer_s("scenario") / n,
        "scenario.parse_calls": per_op(count, "scenario.parse_scenario"),
        "ringdown.load_trace_csv_ms": ms("ringdown.load_trace_csv"),
        "ringdown.samples_loaded": per_op(counters, "ringdown.samples_loaded"),
        "ringdown.load_mb_per_s": counters.get("ringdown.bytes_loaded", 0) / 1e6 / load_s
        if load_s else 0.0,
        "ringdown.fit_ms": ms("ringdown.fit_ringdown"),
        "ringdown.fit_calls": fit_calls / n,
        "ringdown.fit_iterations": counters.get("ringdown.fit_iterations", 0) / fit_calls
        if fit_calls else 0.0,
        "ringdown.fit_ms_per_msample": 1e3 * fit_s / (fit_samples / 1e6) if fit_samples else 0.0,
        "ringdown.fit_failures": per_op(failures, "ringdown.fit_ringdown"),
        "ringdown.offset_probe_failures": offset_failures,
        "cavity_optics.extinction_ms": ms("cavity_optics.extinction_from_finesse"),
        "cavity_optics.extinction_calls": per_op(count, "cavity_optics.extinction_from_finesse"),
        "cavity_optics.mc_draws": per_op(counters, "cavity_optics.mc_draws"),
        "quantities.propagate_mc_ms": ms("quantities.propagate_monte_carlo"),
        "quantities.propagate_mc_draws": per_op(counters, "quantities.propagate_mc_draws"),
        "quantities.propagate_linear_ms": ms("quantities.propagate_linear"),
        "quantities.propagate_linear_calls": per_op(count, "quantities.propagate_linear"),
        "reports.build_report_self_ms": ms("reports.build_report"),
        "reports.load_manifest_ms": ms("reports.load_manifest"),
        "reports.render_ms": ms("reports.render"),
        **{f"reports.budget_self_ms.{t}": ms(f"reports.budget_report.{t}")
           for t in BUDGET_TARGETS},
        "ion_impact.budget_ms": 1e3 * layer_s("ion_impact") / n,
        "ion_impact.forward_evals": per_op(count, "ion_impact.micromotion_of_single_charge"),
        "rydberg_impact.budget_ms": 1e3 * layer_s("rydberg_impact") / n,
        "charging.ms": 1e3 * layer_s("charging") / n,
        "electrostatics.expansion_calls": per_op(counters, "electrostatics.expansion_calls"),
        "cli.main_self_ms": ms("cli.main"),
        "cli.bytes_written": bytes_written / n,
        "trace.ops": n,
        "trace.traced_p50_ms": traced_p50,
        "trace.untraced_p50_ms": untraced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "host.reference_ms": _p25(result["refs"]),
    })
    shares = {layer: 100.0 * layer_s(layer) / traced_wall_s for layer in LAYERS}
    shares["other"] = 100.0 - sum(shares.values())
    metrics.update({f"share.{layer}": value for layer, value in shares.items()})
    return metrics


def _unit(name: str) -> str:
    """Units of the per-layer metrics, by naming convention."""
    if name.startswith("share."):
        return "%"
    if name.endswith(("_ms", ".ms")) or ".budget_self_ms." in name:
        return "ms"
    special = {"ringdown.load_mb_per_s": "MB/s", "ringdown.fit_ms_per_msample": "ms/Msample",
               "cli.bytes_written": "bytes"}
    return special.get(name, "count")


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src/cavitycharge/__init__.py").is_file():
        print(f"no cavitycharge source tree under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        spec = make_inputs(args.workload, args.seed, ROOT, workdir)
        detail = {"workload": workload.name, "why": workload.why,
                  "input_sizes": input_sizes(spec), "environment": environment(args.seed)}
        probe = [sys.executable, str(WORKER), "setup", workload.name, workload.setup_import]
        if args.trace:
            profile = import_profile(workload, workdir)
            offset = offset_probe(spec, workdir) if workload.name == "cli-ringdown" else 0
            _, detail["cavitycharge_file"] = time_to_ready(probe, child_env(), workdir)
        else:
            setup = [time_to_ready(probe, child_env(), workdir) for _ in range(SETUP_STARTS // 2)]
            detail["cavitycharge_file"] = setup[0][1]
        loop = cli_loop if workload.kind == "cli" else lib_loop
        result = loop(spec, args.seconds, bool(args.trace), workdir)
        if not args.trace:  # the other half after the loop, to sample the host twice
            setup += [time_to_ready(probe, child_env(), workdir)
                      for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = sum(not r[1] for r in ops)
    ok_ms = sorted(r[0] for r in ops if r[1] and not r[2])
    detail.update({
        "ops": len(ops),
        "run_wall_s": result["wall_s"],
        "errors": result["errors"],
        "ops_per_s": sum(r[1] for r in ops) / result["wall_s"],
        "reference_ms_p25": _p25(result["refs"]),
        "wall_call_ms_p25": _p25(ok_ms),
        "wall_call_ms_p50": _p50(ok_ms),
        "wall_call_ms_p90": float(np.percentile(ok_ms, 90)) if len(ok_ms) >= P90_MIN_OPS else None,
        "wall_call_ms_p90_note": None if len(ok_ms) >= P90_MIN_OPS else
        f"{len(ok_ms)} ops < {P90_MIN_OPS}: fewer than 10 ops beyond the 90th percentile",
        "wall_setup_s": statistics.median(t for t, _f in setup) if not args.trace else None,
    })
    if args.trace:
        detail["untraced_attributes"] = sorted(
            {m for s, _b in result["summaries"] for m in s["missing"]})
        metrics = per_layer(result, profile, offset)
        metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
        spans_dir = RUN_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        kept = [s["spans"] for s, _b in result["summaries"][:2]]
        (spans_dir / f"{workload.name}-seed{args.seed}.json").write_text(json.dumps(kept))
    else:
        metrics = end_to_end(result, [t for t, _f in setup])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and bool(result["warmup_ok"]),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
