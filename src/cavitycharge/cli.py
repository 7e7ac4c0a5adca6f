"""Command-line front end.

Subcommands::

    toolkit fit-ringdown --fsr-hz 7.410e9 traces/*.csv
    toolkit reproduce-paper [--out report.csv]
    toolkit budget --scenario paper_yb.scenario --target cooling

Exit codes: 0 success, 1 acceptance failure, 2 input error, 3 internal
error (a fault in the toolkit, reported in one line; `toolkit --debug`
shows its traceback).

Each subcommand imports only what it runs. This module loads `errors` and
`quantities`, neither of which imports NumPy; fit-ringdown imports
`ringdown`, reproduce-paper `reports`, and budget `budgets` and
`scenario`, when they run. Only fit-ringdown loads NumPy: the report's
cubature runs on floats, and no budget target loads it.

argparse loads only for help and usage errors. One table, _COMMANDS,
declares the subcommands and their flags; `_parse` reads a command line
in its canonical spelling (an optional leading --debug, the subcommand,
exact long flags each followed by its value, fit-ringdown's traces as one
run) into the namespace argparse would give it. Any other command line
(-h, an abbreviation, --flag=value, "--", a usage error) goes to
`build_parser()`, the argparse parser of the same table, which alone
prints help and usage text and exits 0 or 2 as argparse does.

Files are read and written with the builtin `open` (bundled files at the
path `cavitycharge._data_path` gives), so no subcommand loads the standard
library's resource readers or path objects. reproduce-paper reads the bundled
data/paper_yb.scenario and data/report_manifest.json; budget reads its
--scenario file through `scenario.load_scenario`: a path that exists, else
a bare name (no `/`) of a bundled scenario, else it exits 2 with
"scenario file not found"; fit-ringdown reads its trace files, once its
FSR flags are checked (a refused one is named before NumPy is loaded). An
empty --out exits 2 before any output.

fit-ringdown may fit its traces in forked worker processes. It forks only
when the process runs one OS thread (counted in /proc/self/task; where that
cannot be read, it does not fork), two or more CPUs are usable
(os.sched_getaffinity), and each worker's share holds at least
_FORK_MIN_SHARE_BYTES of trace bytes (by os.stat). The output, its order
and its bytes are the same either way, and no worker returns from the
command. `taskset -c 0` gives the serial path. So does an unpinned BLAS
pool: NumPy's OpenBLAS starts threads when it is imported, unless
OPENBLAS_NUM_THREADS=1.

The `toolkit` console script calls `run`, which ends the process without
the interpreter's exit-time garbage collection; `main` is what tests and
other in-process callers use.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import BUDGET_DEFAULTS, BUDGET_TARGETS, _data_path
from .errors import ParameterError, ToolkitError
from .quantities import UncertainQuantity, finite_evaluation, fsr_from_length, nonnegative, positive

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# fit-ringdown's `ringdown` functions, bound in this namespace on first use
# so that no other subcommand imports ringdown (and NumPy); cli.<name> still
# resolves, as the benchmark's set-up probe and tracer use it
_RINGDOWN = ("finesse", "fit_ringdown", "load_trace_csv", "pool_linewidths")


def _bind_ringdown() -> None:
    from . import ringdown

    for name in _RINGDOWN:
        globals().setdefault(name, getattr(ringdown, name))  # keeps a rebound name


def __getattr__(name: str):
    if name not in _RINGDOWN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_ringdown()
    return globals()[name]


# A forked worker costs about 10-13 ms whatever it fits, mostly page faults
# after the fork, while loading and fitting a 200k-sample trace (6.8 MB) costs
# about 46 ms (2-vCPU Xeon VM, Python 3.11, numpy 2.4): a share of fewer trace
# bytes than this is fitted sooner by the parent than by a fork.
_FORK_MIN_SHARE_BYTES = 2_000_000


def _single_threaded() -> bool:
    """Whether this process runs one OS thread, so that os.fork is safe;
    False where the count cannot be read (no /proc/self/task)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # load_trace_csv reports it
        return 0


def _shares(paths) -> list[list[int]]:
    """The argument indices that each worker fits, the parent's share first.

    A single-threaded process with two or more traces takes a worker per
    usable CPU and per trace at most, each share holding at least
    _FORK_MIN_SHARE_BYTES of trace bytes (os.stat sizes, read before any
    trace is); the traces are dealt largest first to the lightest share.
    Otherwise the parent fits every trace.
    """
    everything = [list(range(len(paths)))]
    if len(paths) < 2 or not _single_threaded():
        return everything
    sizes = [_size(path) for path in paths]
    most = min(_usable_cpus(), len(paths), sum(sizes) // _FORK_MIN_SHARE_BYTES)
    for workers in range(most, 1, -1):
        shares, loads = [[] for _ in range(workers)], [0] * workers
        for k in sorted(range(len(paths)), key=lambda k: -sizes[k]):
            lightest = loads.index(min(loads))
            shares[lightest].append(k)
            loads[lightest] += sizes[k]
        if min(loads) >= _FORK_MIN_SHARE_BYTES:
            return [sorted(share) for share in shares]
    return everything


def _fit_trace(path):
    """(fit, None) for a trace that loads and fits, else (None, its error line)."""
    try:
        trace = load_trace_csv(path)
    except (ToolkitError, OSError) as exc:  # both name the file
        return None, f"fit-ringdown: {exc}"
    try:
        return fit_ringdown(trace), None
    except ToolkitError as exc:
        return None, f"fit-ringdown: {path}: {exc}"


def _fit_share(paths, share) -> dict:
    """{index: _fit_trace outcome} over the share's indices, in order; any
    other exception takes its trace's place and ends the share, to be raised
    when the outcomes are reported in argument order."""
    outcomes = {}
    for k in share:
        try:
            outcomes[k] = _fit_trace(paths[k])
        except Exception as exc:
            outcomes[k] = exc
            break
    return outcomes


def _fork_share(paths, share):
    """(pid, read end of its pipe, share) of a forked worker that pickles
    _fit_share's outcomes into the pipe. The worker ends in os._exit, so it
    never returns into its caller's stack."""
    import pickle  # loaded with numpy already

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            payload = pickle.dumps(_fit_share(paths, share))
            with open(write, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read, share


def _collect(pid, read, share) -> dict:
    """The outcomes a forked worker reported, once it has ended; a worker that
    reported nothing leaves an internal error in its share's first place."""
    import pickle

    with open(read, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if payload:
        return pickle.loads(payload)
    code = os.waitstatus_to_exitcode(status)
    return {share[0]: RuntimeError(f"fit-ringdown worker {pid} exited ({code}) before reporting")}


def _cmd_fit_ringdown(args) -> int:
    if (args.fsr_hz is None) == (args.length_m is None):
        print("fit-ringdown: provide exactly one of --fsr-hz or --length-m", file=sys.stderr)
        return EXIT_INPUT
    # the FSR flags are checked, each by its name, before any trace is read
    if args.fsr_hz is not None:
        fsr_value = positive("--fsr-hz", args.fsr_hz)
    else:
        fsr_value = positive("the FSR c/2d of --length-m", fsr_from_length(args.length_m))
    fsr = UncertainQuantity(fsr_value, nonnegative("--fsr-sigma-hz", args.fsr_sigma_hz))
    _bind_ringdown()

    own, *others = _shares(args.traces)
    workers = []
    try:
        for share in others:
            try:
                workers.append(_fork_share(args.traces, share))
            except OSError:  # no process to spare: the parent fits the share
                own = sorted(own + share)
        outcomes = _fit_share(args.traces, own)
    finally:
        reported = [_collect(*worker) for worker in workers]  # reaps every worker
    for shipped in reported:
        outcomes.update(shipped)

    fits = []
    csv_lines = ["trace,linewidth_hz,sigma_hz,v0"]
    for k, path in enumerate(args.traces):
        if isinstance(outcomes[k], Exception):
            raise outcomes[k]
        fit, error = outcomes[k]
        if error is not None:
            print(error, file=sys.stderr)
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
        _write(args.out, "\n".join(csv_lines) + "\n")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from . import reports

    rows = reports.build_report()  # of the bundled scenario
    sys.stdout.write(reports.render_text(rows))
    if args.out:
        _write(args.out, reports.render_csv(rows))
    return EXIT_ACCEPTANCE if reports.report_exit_code(rows) else EXIT_OK


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_scenario_arg(spec: str):
    from . import scenario

    if os.path.exists(spec):
        return scenario.load_scenario(spec)
    # fall back to the bundled scenarios, so the stock file works by name
    if "/" not in spec and os.path.isfile(_data_path(spec)):
        return scenario.load_scenario(_data_path(spec))
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
        print(f"{name},{value!r},{unit}")
    out = args.out or f"budget_{args.target}.csv"
    lines = [sweep_header] + [f"{x!r},{y!r}" for x, y in sweep]
    _write(out, "\n".join(lines) + "\n")
    print(f"# sweep written to {out} ({len(sweep)} points)")
    return EXIT_OK


# subcommand -> (its help, its handler, {its positional or flag: the
# add_argument keywords dest, type, default, required, choices, nargs and help,
# each left out being argparse's default}), in --help order: what build_parser
# declares and what _parse accepts
_COMMANDS = {
    "fit-ringdown": ("fit decay traces and report finesse", _cmd_fit_ringdown, {
        "traces": dict(nargs="+", help="two-column CSV traces (t_seconds,v_volts)"),
        "--fsr-hz": dict(dest="fsr_hz", type=float, help="measured free spectral range"),
        "--fsr-sigma-hz": dict(dest="fsr_sigma_hz", type=float, default=0.0,
                               help="FSR one-sigma uncertainty"),
        "--length-m": dict(dest="length_m", type=float, help="cavity length (FSR = c/2d)"),
        "--out": dict(dest="out", help="write the per-trace CSV here"),
    }),
    "reproduce-paper": ("recompute all bundled reference values and report MATCH status",
                        _cmd_reproduce, {
        "--out": dict(dest="out", help="write the report CSV here"),
    }),
    "budget": ("stray-charge budget for one target", _cmd_budget, {
        "--scenario": dict(dest="scenario", required=True, help="scenario file path (bare names "
                           "fall back to the bundled scenarios, e.g. paper_yb.scenario)"),
        "--target": dict(dest="target", required=True, choices=BUDGET_TARGETS),
        **{flag: dict(dest=option, type=float, default=BUDGET_DEFAULTS[option], help=text)
           for flag, option, text in (
            ("--intensity-floor", "intensity_floor",
             "carrier-intensity floor for the cooling target"),
            ("--modulation-limit", "modulation_limit", "k*x_um cap for the lamb-dicke target"),
            ("--displacement-m", "displacement_m",
             "displacement goal for the coupling target (default: cavity wavelength / 8)"),
            ("--tau-pi-s", "tau_pi_s", "decoherence-time goal for rydberg-coherence"),
            ("--infidelity", "target_infidelity", "infidelity goal for rydberg-gate"),
        )},
        "--out": dict(dest="out", help="sweep CSV path"),
    }),
}


def build_parser():
    """The argparse parser that _COMMANDS declares: it prints the help and
    the usage errors, and parses every argv that _parse leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="toolkit", description="Cavity loss metrology and stray-charge budget toolkit")
    parser.add_argument("--debug", action="store_true",
                        help="show the traceback of an internal error (exit 3)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, table) in _COMMANDS.items():
        p_sub = sub.add_parser(command, help=text)
        for name, keywords in table.items():
            p_sub.add_argument(name, **keywords)
        p_sub.set_defaults(func=handler)
    return parser


def _parse(argv):
    """The namespace argparse gives argv when argv has the canonical
    spelling: an optional leading --debug, the subcommand, then its exact
    long flags, each followed by a value that does not start with "-", and
    fit-ringdown's traces as one run; every value of its type and choices,
    every required flag given. None for any other argv, which only argparse
    parses: -h, an abbreviation, --flag=value, "--", a usage error."""
    debug, run = argv[:1] == ["--debug"], []
    try:  # no subcommand, an unknown one or flag, a flag without a value, not a float
        command, *rest = argv[debug:]
        _, handler, table = _COMMANDS[command]
        found = {spec.get("dest", name): spec.get("default") for name, spec in table.items()}
        for k, token in (tokens := iter(enumerate(rest))):
            if not token.startswith("-"):
                run.append(k)  # a value that no flag takes
                continue
            spec, (_, value) = table[token], next(tokens)
            found[spec["dest"]] = kept = spec.get("type", str)(value)  # str(a str) is that str
            if value.startswith("-") or kept not in spec.get("choices", (kept,)):
                return None
    except (ValueError, KeyError, StopIteration):
        return None
    positional = [name for name in table if not name.startswith("-")]
    if bool(positional) != bool(run) or run and run[-1] - run[0] >= len(run):
        return None  # values that no argument takes, no traces, or traces not in one run
    found.update((name, [rest[k] for k in run]) for name in positional)
    missing = {name for name, spec in table.items() if spec.get("required")} - set(rest)
    return None if missing else SimpleNamespace(debug=debug, command=command, func=handler, **found)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    try:
        if args.out == "":  # checked before any output, as a bad flag value is
            raise ParameterError("--out must name a file, got ''")
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"toolkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault in the toolkit, never an acceptance failure
        if args.debug:
            raise
        print(f"toolkit {args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


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
