"""Benchmark child process: set-up probe, library op loop, traced CLI op.

    worker.py setup WORKLOAD MODULE      import and load data, print "ready"
    worker.py lib SPEC SECONDS TRACE     run a library workload, print JSON
    worker.py cli SUMMARY OP -- ARGV...  run cavitycharge.cli.main(ARGV) traced

The parent puts the checkout's ``src`` on PYTHONPATH, so ``cavitycharge``
is the tree under test.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from importlib import resources
from time import perf_counter

from tracer import Tracer  # stdlib only: a traced op imports nothing else first

REFERENCE_EVERY_S = 0.25  # host-speed reference between library ops


def setup(name: str, module_name: str) -> None:
    """Ready for the first op: import, then load the workload's bundled data."""
    import cavitycharge

    module = importlib.import_module(module_name)
    from cavitycharge import reports

    if name == "cli-ringdown":
        traces = resources.files("cavitycharge").joinpath("data/traces")
        for entry in sorted(traces.iterdir(), key=lambda p: p.name):
            module.load_trace_csv(entry)
    else:
        reports.bundled_scenario()
        reports.load_manifest()
    print("ready", cavitycharge.__file__, flush=True)


def _library_op(spec: dict):
    """Returns op(index) -> check thunk, timed by the caller."""
    import cavitycharge as cc
    from cavitycharge import reports, scenario
    from workloads import BUDGET_TARGETS, check_budgets, check_report_rows

    if spec["workload"] == "lib-report":
        scn = reports.bundled_scenario()
        base = spec["report_seed_base"]

        def op(i):
            rows = reports.build_report(scn, seed=base + i)
            return lambda: check_report_rows(reports, rows)

        return op

    variants = spec["variants"]

    def op(i):
        scn = scenario.parse_scenario(variants[i % len(variants)])
        results = {t: reports.budget_report(scn, t) for t in BUDGET_TARGETS}
        return lambda: check_budgets(cc, scn, results)

    return op


def lib(spec_path: str, seconds: float, trace: bool) -> None:
    """Closed loop of warm ops for `seconds`; with tracing, odd ops are traced."""
    from workloads import reference_ms

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    op = _library_op(spec)
    tracer = Tracer()
    errors = []
    records = []  # [ms, ok, traced]

    def run(i, traced):
        if traced:
            tracer.install()
            tracer.begin_op(i)
        start = perf_counter()
        try:
            if traced:
                with tracer.region("op"):
                    check = op(i)
            else:
                check = op(i)
            ms = (perf_counter() - start) * 1e3
        except Exception as exc:  # a failed op is counted, not fatal
            ms = (perf_counter() - start) * 1e3
            check = lambda exc=exc: f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        error = check()
        if error and len(errors) < 5:
            errors.append(f"op {i}: {error}")
        return [ms, error is None, traced]

    warmup = run(-1, False)
    loop_start = perf_counter()
    deadline = loop_start + seconds
    refs, next_ref = [], loop_start
    i = 0
    while i < 2 or perf_counter() < deadline:
        if perf_counter() >= next_ref:
            refs.append(reference_ms())
            next_ref = perf_counter() + REFERENCE_EVERY_S
        records.append(run(i, trace and i % 2 == 1))
        i += 1
    wall = perf_counter() - loop_start
    print(json.dumps({
        "warmup_ok": warmup[1],
        "ops": records,
        "refs": refs,
        "wall_s": wall,
        "errors": errors,
        "trace": tracer.summary() if trace else None,
    }))


def cli(summary_path: str, op_id: int, argv: list[str]) -> int:
    """One traced `toolkit` command; import is spanned too."""
    tracer = Tracer()
    tracer.begin_op(op_id)
    code = 1
    try:
        with tracer.region("import.cavitycharge_cli"):
            from cavitycharge import cli as toolkit
        tracer.install()
        with tracer.region("cli.main"):
            code = toolkit.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()  # what an uncaught error prints, with its exit code 1
    finally:
        tracer.end_op()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "lib":
        lib(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], int(sys.argv[3]), sys.argv[5:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
