"""Command-line front end.

Subcommands::

    toolkit fit-ringdown --fsr-hz 7.410e9 traces/*.csv
    toolkit reproduce-paper [--out report.csv]
    toolkit budget --scenario paper_yb.scenario --target cooling

Exit codes: 0 success, 1 acceptance failure, 2 input error. The
environment variable TOOLKIT_SEED, an integer >= 0, overrides the
scenario seed.

Each subcommand imports only what it runs. This module loads `errors` and
`quantities`, neither of which imports NumPy; fit-ringdown imports
`ringdown`, reproduce-paper `reports`, and budget `budgets` and
`scenario`, when they run. No budget target loads NumPy.

The `toolkit` console script calls `run`, which ends the process without
the interpreter's exit-time garbage collection; `main` is what tests and
other in-process callers use.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import resources
from pathlib import Path

from . import BUDGET_DEFAULTS, BUDGET_TARGETS
from .errors import SchemaError, ToolkitError
from .quantities import UncertainQuantity, finite_evaluation

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_INPUT = 2

# fit-ringdown's `ringdown` functions, bound in this namespace on first use
# so that no other subcommand imports ringdown (and NumPy); cli.<name> still
# resolves, as the benchmark's set-up probe and tracer use it
_RINGDOWN = ("finesse", "fit_ringdown", "fsr_from_length", "load_trace_csv", "pool_linewidths")


def _bind_ringdown() -> None:
    from . import ringdown

    for name in _RINGDOWN:
        globals().setdefault(name, getattr(ringdown, name))  # keeps a rebound name


def __getattr__(name: str):
    if name not in _RINGDOWN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_ringdown()
    return globals()[name]


def _seed_override() -> int | None:
    raw = os.environ.get("TOOLKIT_SEED")
    if not raw:
        return None
    try:
        seed = int(raw, 10)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise SchemaError(f"TOOLKIT_SEED must be an integer >= 0, got {raw!r}")
    return seed


def _cmd_fit_ringdown(args) -> int:
    if (args.fsr_hz is None) == (args.length_m is None):
        print("fit-ringdown: provide exactly one of --fsr-hz or --length-m", file=sys.stderr)
        return EXIT_INPUT
    _bind_ringdown()
    fsr_value = args.fsr_hz if args.fsr_hz is not None else fsr_from_length(args.length_m)
    fsr = UncertainQuantity(fsr_value, args.fsr_sigma_hz)

    fits = []
    csv_lines = ["trace,linewidth_hz,sigma_hz,v0"]
    for path in args.traces:
        try:
            trace = load_trace_csv(path)
        except (ToolkitError, OSError) as exc:  # both name the file
            print(f"fit-ringdown: {exc}", file=sys.stderr)
            continue
        try:
            fit = fit_ringdown(trace)
        except ToolkitError as exc:
            print(f"fit-ringdown: {path}: {exc}", file=sys.stderr)
            continue
        fits.append(fit)
        csv_lines.append(
            f"{path},{fit.linewidth.value!r},{fit.linewidth.sigma!r},{fit.v0.value!r}"
        )
    if not fits:
        print("fit-ringdown: no trace could be fitted", file=sys.stderr)
        return EXIT_INPUT

    pooled = pool_linewidths(fits)
    with finite_evaluation("finesse"):  # an FSR near the float range overflows its sigma
        cavity_finesse = finesse(pooled, fsr)
    print("\n".join(csv_lines))
    print(f"# pooled_linewidth_hz = {pooled.value!r} +/- {pooled.sigma!r}")
    print(f"# fsr_hz = {fsr.value!r} +/- {fsr.sigma!r}")
    print(f"# finesse = {cavity_finesse.value!r} +/- {cavity_finesse.sigma!r}")
    if args.out:
        Path(args.out).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from . import reports

    scn = reports.bundled_scenario()
    rows = reports.build_report(scn, seed=_seed_override())
    sys.stdout.write(reports.render_text(rows))
    if args.out:
        Path(args.out).write_text(reports.render_csv(rows), encoding="utf-8")
    return EXIT_ACCEPTANCE if reports.report_exit_code(rows) else EXIT_OK


def _load_scenario_arg(spec: str):
    from . import scenario

    path = Path(spec)
    if path.exists():
        return scenario.load_scenario(path)
    # fall back to the bundled scenarios, so the stock file works by name
    bundled = resources.files("cavitycharge").joinpath(f"data/{spec}")
    if "/" not in spec and bundled.is_file():
        return scenario.parse_scenario(bundled.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"scenario file not found: {spec}")


def _cmd_budget(args) -> int:
    from . import budgets

    scn = _load_scenario_arg(args.scenario)
    rows, sweep_header, sweep = budgets.budget_report(
        scn, args.target, **{option: getattr(args, option) for option in BUDGET_DEFAULTS}
    )
    print(f"# budget target: {args.target} (scenario {scn.name!r})")
    print("quantity,value,unit")
    for name, value, unit in rows:
        print(f"{name},{float(value)!r},{unit}")
    out = args.out or f"budget_{args.target}.csv"
    lines = [sweep_header] + [f"{float(x)!r},{float(y)!r}" for x, y in sweep]
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"# sweep written to {out} ({len(sweep)} points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toolkit",
        description="Cavity loss metrology and stray-charge budget toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit-ringdown", help="fit decay traces and report finesse")
    p_fit.add_argument("traces", nargs="+", help="two-column CSV traces (t_seconds,v_volts)")
    p_fit.add_argument("--fsr-hz", type=float, default=None, help="measured free spectral range")
    p_fit.add_argument("--fsr-sigma-hz", type=float, default=0.0, help="FSR one-sigma uncertainty")
    p_fit.add_argument("--length-m", type=float, default=None, help="cavity length (FSR = c/2d)")
    p_fit.add_argument("--out", default=None, help="write the per-trace CSV here")
    p_fit.set_defaults(func=_cmd_fit_ringdown)

    p_rep = sub.add_parser(
        "reproduce-paper",
        help="recompute all bundled reference values and report MATCH status",
    )
    p_rep.add_argument("--out", default=None, help="write the report CSV here")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_bud = sub.add_parser("budget", help="stray-charge budget for one target")
    p_bud.add_argument("--scenario", required=True,
                       help="scenario file path (bare names fall back to the "
                            "bundled scenarios, e.g. paper_yb.scenario)")
    p_bud.add_argument("--target", required=True, choices=BUDGET_TARGETS)
    for flag, option, text in (
        ("--intensity-floor", "intensity_floor",
         "carrier-intensity floor for the cooling target"),
        ("--modulation-limit", "modulation_limit", "k*x_um cap for the lamb-dicke target"),
        ("--displacement-m", "displacement_m",
         "displacement goal for the coupling target (default: cavity wavelength / 8)"),
        ("--tau-pi-s", "tau_pi_s", "decoherence-time goal for rydberg-coherence"),
        ("--infidelity", "target_infidelity", "infidelity goal for rydberg-gate"),
    ):
        p_bud.add_argument(flag, dest=option, type=float, default=BUDGET_DEFAULTS[option],
                           help=text)
    p_bud.add_argument("--out", default=None, help="sweep CSV path")
    p_bud.set_defaults(func=_cmd_budget)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"toolkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Console entry point: exit with main()'s code.

    Freezing the collector first leaves every object alive at exit out of
    the interpreter's final collections, which would otherwise walk and
    free every tracked container just before the process ends. atexit
    handlers still run and stdout/stderr are still flushed.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
