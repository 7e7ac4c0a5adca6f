import json
import math
import os
import re
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest

import cavitycharge
from cavitycharge import cli
from cavitycharge.cli import main
from cavitycharge.reports import bundled_scenario_text
from cavitycharge.ringdown import (
    finesse,
    fit_ringdown,
    load_trace_csv,
    pool_linewidths,
    synthesize_trace,
)
from cavitycharge.quantities import UncertainQuantity


def bundled_trace_paths():
    base = resources.files("cavitycharge").joinpath("data/traces")
    return [str(base.joinpath(f"ringdown_{k:02d}.csv")) for k in range(1, 6)]


def test_fit_ringdown_matches_library_oracle(tmp_path, capsys):
    paths = bundled_trace_paths()
    out = tmp_path / "fits.csv"
    code = main(
        ["fit-ringdown", "--fsr-hz", "7.410e9", "--fsr-sigma-hz", "0.013e9",
         "--out", str(out), *paths]
    )
    assert code == 0
    stdout = capsys.readouterr().out

    # oracle: run the fitting chain directly on the same files
    fits = [fit_ringdown(load_trace_csv(p)) for p in paths]
    pooled = pool_linewidths(fits)
    expected = finesse(pooled, UncertainQuantity(7.410e9, 0.013e9))
    assert f"# finesse = {expected.value!r}" in stdout
    assert 13600.0 < expected.value < 14700.0  # reproduces ~14168 +/- 245
    assert 200.0 < expected.sigma < 300.0

    lines = out.read_text().splitlines()
    assert lines[0] == "trace,linewidth_hz,sigma_hz,v0"
    assert len(lines) == 6
    for line, fit in zip(lines[1:], fits):
        cols = line.split(",")
        assert float(cols[1]) == fit.linewidth.value
        assert float(cols[3]) == fit.v0.value


def _labelled_numbers(stdout):
    """(label, numbers) per line of fit-ringdown stdout; a row is labelled by
    its trace's file name, a '# name = value +/- sigma' line by its name."""
    rows = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            name, _, values = line[2:].partition(" = ")
            rows.append((name, [float(x) for x in values.split(" +/- ")]))
        elif line.startswith("trace,"):
            rows.append((line, []))
        else:
            path, *values = line.split(",")
            rows.append((Path(path).name, [float(x) for x in values]))
    return rows


def test_fit_ringdown_reproduces_the_recorded_bundled_fits(capsys):
    # Recorded before the fit's sums became dot products, which round
    # differently: each value moved by at most ~1.4e-9 relative.
    argv = ["fit-ringdown", "--fsr-hz", "7.410e9", "--fsr-sigma-hz", "0.013e9"]
    assert main([*argv, *bundled_trace_paths()]) == 0
    got = _labelled_numbers(capsys.readouterr().out)
    recorded = Path(__file__).parent / "data" / "fit_ringdown_bundled.txt"
    want = _labelled_numbers(recorded.read_text(encoding="utf-8"))
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, values), (_, expected) in zip(got, want):
        assert values == pytest.approx(expected, rel=1e-8, abs=0.0), label


def test_fit_ringdown_single_noiseless_trace(tmp_path, capsys):
    tr = synthesize_trace(1.0, 523e3, 1.6e-6, 2.5e9, 0.0, 0)
    path = tmp_path / "clean.csv"
    rows = ["t_seconds,v_volts"] + [
        f"{float(t)!r},{float(v)!r}" for t, v in zip(tr.times, tr.voltages)
    ]
    path.write_text("\n".join(rows))
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(path)]) == 0
    stdout = capsys.readouterr().out
    pooled_line = next(l for l in stdout.splitlines() if "pooled" in l)
    value = float(pooled_line.split("=")[1].split("+/-")[0])
    sigma = float(pooled_line.split("+/-")[1])
    assert value == pytest.approx(523e3, rel=1e-6)
    assert sigma == pytest.approx(0.0, abs=1e-3)


def test_fit_ringdown_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(empty)]) == 2
    assert "empty.csv" in capsys.readouterr().err


def test_fit_ringdown_skips_bad_files_but_continues(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v\n0,nonsense\n")
    good = bundled_trace_paths()[0]
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(bad), good]) == 0
    captured = capsys.readouterr()
    assert "bad.csv" in captured.err
    assert "# finesse" in captured.out


def test_fit_ringdown_skips_trace_with_nan_sample(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    rows = [f"{k * 1e-9},{'nan' if k == 9 else 0.9**k}" for k in range(40)]
    bad.write_text("t,v\n" + "\n".join(rows) + "\n")
    good = bundled_trace_paths()[0]
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(bad), good]) == 0
    captured = capsys.readouterr()
    assert "nan.csv: 1 non-finite samples, the first at index 9" in captured.err
    assert "nan.csv" not in captured.out


def test_fit_ringdown_skips_trace_starting_1ms_after_zero(tmp_path, capsys):
    tau = 1.0 / (2.0 * math.pi * 523e3)
    tr = synthesize_trace(1.0, 523e3, 8 * tau, 20_000 / (8 * tau), 0.01, 3)
    offset = tmp_path / "offset.csv"
    rows = zip((tr.times + 1e-3).tolist(), tr.voltages.tolist())
    offset.write_text("\n".join(f"{t!r},{v!r}" for t, v in rows))
    good = bundled_trace_paths()[0]
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(offset), good]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "offset.csv: V0 at t = 0 overflows" in err[0]
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(offset)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "no trace could be fitted" in err


def test_fit_ringdown_skips_trace_with_1e_300_s_sample_spacing(tmp_path, capsys):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("".join(f"{k * 1e-300!r},{math.exp(-k / 40.0)!r}\n" for k in range(256)))
    good = bundled_trace_paths()[0]
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(tiny), good]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "tiny.csv: the sample times above the noise floor" in err[0]
    assert "# finesse" in captured.out and "tiny.csv" not in captured.out
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(tiny)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "no trace could be fitted" in err


# case -> (trace CSV or None for a missing file, what the error says)
_FAILING_TRACES = {
    "short": ("t,v\n0,1\n1,0.5\n", "2 samples, need at least 16"),
    "missing": (None, "No such file or directory"),
    "repeated-times": ("".join(f"{k // 2},{0.9**k!r}\n" for k in range(32)),
                       "timestamps must be strictly increasing"),
    "unfittable": ("".join(f"{k},1.0\n" for k in range(32)),
                   "peak/noise = 1.00 is below the minimum of 5.0"),
    "all-zero": ("".join(f"{k},0.0\n" for k in range(32)), "the trace peak 0.0 is not positive"),
    "all-negative": ("".join(f"{k},{-math.exp(-k / 8.0)!r}\n" for k in range(32)),
                     "is not positive"),
}


@pytest.mark.parametrize("case", sorted(_FAILING_TRACES))
def test_fit_ringdown_names_a_failing_trace_once(tmp_path, capsys, case):
    text, message = _FAILING_TRACES[case]
    path = tmp_path / f"{case}-trace.csv"
    if text is not None:
        path.write_text(text)
    assert main(["fit-ringdown", "--fsr-hz", "7.410e9", str(path)]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("fit-ringdown: ") and first.count(str(path)) == 1, first
    assert message in first, first


def test_fit_ringdown_requires_exactly_one_fsr_source(tmp_path, capsys):
    trace = bundled_trace_paths()[0]
    assert main(["fit-ringdown", trace]) == 2
    assert main(["fit-ringdown", "--fsr-hz", "1e9", "--length-m", "0.02", trace]) == 2


def test_fit_ringdown_accepts_length(capsys):
    assert main(["fit-ringdown", "--length-m", "20.2e-3", *bundled_trace_paths()]) == 0
    out = capsys.readouterr().out
    fsr_line = next(l for l in out.splitlines() if l.startswith("# fsr_hz"))
    assert float(fsr_line.split("=")[1].split("+/-")[0]) == pytest.approx(
        7.4206e9, rel=1e-4
    )


@pytest.mark.parametrize("fsr_args", [
    ["--fsr-hz", "1e200", "--fsr-sigma-hz", "1e200"],
    ["--fsr-hz", "1e308"],
    ["--fsr-hz", "7e9", "--fsr-sigma-hz", "1e160"],
], ids=["fsr-and-sigma-1e200", "fsr-1e308", "sigma-1e160"])
def test_fit_ringdown_finesse_overflow_exits_2_with_one_line(fsr_args, capsys):
    # the finesse sigma squares (d finesse / d fsr) * sigma, which overflows
    assert main(["fit-ringdown", *fsr_args, bundled_trace_paths()[0]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("toolkit fit-ringdown: finesse: OverflowError: ")


@pytest.mark.parametrize("fsr_args, refusal", [
    (["--fsr-hz", "-5"], "--fsr-hz must be positive, got -5.0"),
    (["--fsr-hz", "0"], "--fsr-hz must be positive, got 0.0"),
    (["--fsr-hz", "nan"], "--fsr-hz must be positive, got nan"),
    (["--fsr-hz", "inf"], "--fsr-hz must be positive, got inf"),
    (["--fsr-hz", "7e9", "--fsr-sigma-hz", "-1"], "--fsr-sigma-hz must be finite and >= 0, got -1.0"),
    (["--fsr-hz", "7e9", "--fsr-sigma-hz", "nan"], "--fsr-sigma-hz must be finite and >= 0, got nan"),
    (["--length-m", "1e-320"], "the FSR c/2d of --length-m must be positive, got inf"),
], ids=["fsr-negative", "fsr-zero", "fsr-nan", "fsr-inf", "sigma-negative", "sigma-nan",
        "length-too-short"])
def test_fit_ringdown_refuses_a_bad_fsr_flag_by_name_before_reading_a_trace(
        fsr_args, refusal, tmp_path, capsys, monkeypatch):
    def read(path):
        raise AssertionError(f"a trace was read: {path}")

    monkeypatch.setattr(cli, "_fit_trace", read)
    missing = str(tmp_path / "no_such_trace.csv")
    assert main(["fit-ringdown", *fsr_args, missing, bundled_trace_paths()[0]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"toolkit fit-ringdown: {refusal}"]


def test_reproduce_paper_exit_and_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["reproduce-paper", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("MISMATCH-DOCUMENTED") == 3 + 1  # 3 rows + summary line
    assert "0 MISMATCH" in stdout
    csv_text = out.read_text()
    assert csv_text.splitlines()[0].startswith("row_id,")
    assert "kappa_zno_128d" in csv_text


def test_reproduce_paper_byte_identical_runs(capsys, monkeypatch):
    monkeypatch.setenv("TOOLKIT_SEED", "0")
    assert main(["reproduce-paper"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce-paper"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_reproduce_paper_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("TOOLKIT_SEED", "31")
    assert main(["reproduce-paper"]) == 0
    monkeypatch.delenv("TOOLKIT_SEED")


@pytest.mark.parametrize("seed", ["-1", "not-a-seed"])
def test_reproduce_paper_ignores_toolkit_seed(seed, capsys, monkeypatch):
    # values the retired TOOLKIT_SEED check refused with exit 2
    assert main(["reproduce-paper"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv("TOOLKIT_SEED", seed)
    assert main(["reproduce-paper"]) == 0
    assert capsys.readouterr() == expected


def _fault(*args, **kwargs):
    raise KeyError("injected")


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    # no real input is known to reach it, so the fault is injected
    monkeypatch.setattr("cavitycharge.reports.build_report", _fault)
    assert main(["reproduce-paper"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "toolkit reproduce-paper: internal error: KeyError: 'injected'\n"


def test_internal_error_with_debug_raises(monkeypatch):
    monkeypatch.setattr("cavitycharge.budgets.budget_report", _fault)
    with pytest.raises(KeyError, match="injected"):
        main(["--debug", "budget", "--scenario", "paper_yb.scenario", "--target", "gate"])


def test_budget_cooling(tmp_path, capsys):
    scenario = tmp_path / "run.scenario"
    scenario.write_text(bundled_scenario_text())
    sweep = tmp_path / "sweep.csv"
    code = main(
        ["budget", "--scenario", str(scenario), "--target", "cooling",
         "--out", str(sweep)]
    )
    assert code == 0
    out = capsys.readouterr().out
    q1_line = next(l for l in out.splitlines() if l.startswith("q1_max"))
    q1 = float(q1_line.split(",")[1])
    assert q1 == pytest.approx(1400.0, rel=0.05)
    lines = sweep.read_text().splitlines()
    assert lines[0] == "q1_e,carrier_intensity_factor"
    assert len(lines) == 201


def test_budget_rydberg_coherence(tmp_path, capsys):
    scenario = tmp_path / "run.scenario"
    scenario.write_text(bundled_scenario_text())
    code = main(
        ["budget", "--scenario", str(scenario), "--target", "rydberg-coherence",
         "--tau-pi-s", "5e-6", "--out", str(tmp_path / "s.csv")]
    )
    assert code == 0
    out = capsys.readouterr().out
    q1 = float(next(l for l in out.splitlines() if l.startswith("q1_max")).split(",")[1])
    assert q1 == pytest.approx(54.0, rel=0.05)


def test_budget_charging(tmp_path, capsys):
    scenario = tmp_path / "run.scenario"
    scenario.write_text(bundled_scenario_text())
    code = main(
        ["budget", "--scenario", str(scenario), "--target", "charging",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 0
    out = capsys.readouterr().out
    q = float(
        next(l for l in out.splitlines() if l.startswith("equilibrium_charge,")).split(",")[1]
    )
    assert 100.0 <= q <= 160.0


def test_budget_missing_section_exits_2(tmp_path, capsys):
    text = "\n".join(
        line
        for line in bundled_scenario_text().splitlines()
        if line not in ("[rydberg]", "alpha = 53400.0", "rabi_hz = 5000000.0")
    )
    scenario = tmp_path / "partial.scenario"
    scenario.write_text(text)
    code = main(
        ["budget", "--scenario", str(scenario), "--target", "rydberg-gate",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "[rydberg]" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["film_thickness_m", "film_thickness_sigma_m"])
def test_a_scenario_with_the_old_cavity_film_thickness_exits_2(key, tmp_path, capsys):
    # the film thickness lives in [film] alone
    scenario = tmp_path / "old.scenario"
    scenario.write_text(bundled_scenario_text().replace("[cavity]\n", f"[cavity]\n{key} = 3e-08\n"))
    code = main(["budget", "--scenario", str(scenario), "--target", "charging",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert f"unknown key '{key}' in [cavity]" in capsys.readouterr().err


def _rejected_scenario(spec, capsys) -> None:
    """budget with scenario spec exits 2, prints one stderr line that names
    spec, and writes nothing to the current directory."""
    assert main(["budget", "--scenario", spec, "--target", "cooling"]) == 2
    assert capsys.readouterr() == ("", f"toolkit budget: scenario file not found: {spec}\n")
    assert os.listdir() == []


def test_budget_rejects_bad_scenario_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _rejected_scenario("/nonexistent/x.scenario", capsys)
    _rejected_scenario("no_such.scenario", capsys)  # neither local nor bundled
    _rejected_scenario("", capsys)  # names no file; it is not the current directory


@pytest.mark.parametrize("spec", [
    "./paper_yb.scenario", "data/paper_yb.scenario", "paper_yb.scenario/",
])
def test_a_scenario_name_with_a_slash_never_falls_back(spec, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no local file of that name
    _rejected_scenario(spec, capsys)


def test_budget_resolves_bundled_scenario_by_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no local file of that name
    code = main(
        ["budget", "--scenario", "paper_yb.scenario", "--target", "gate",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == 0
    assert "delta_x_over_rabi" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["paper_yb.scenario", "./paper_yb.scenario"])
def test_a_local_scenario_shadows_the_bundled_one(spec, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paper_yb.scenario").write_text(
        bundled_scenario_text().replace("name = paper_yb\n", "name = local_copy\n"))
    assert main(["budget", "--scenario", spec, "--target", "gate", "--out", "s.csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# budget target: gate (scenario 'local_copy')\n")
    assert "delta_x_over_rabi" in out


# -- help and usage errors, which argparse alone prints ----------------------

DATA = Path(__file__).resolve().parent / "data"
# the help of the toolkit and of each subcommand, and four usage errors, as
# tests/data/cli_help.txt and cli_usage_errors.txt hold what they print at
# COLUMNS=80 (stdout and stderr)
HELP = [["--help"], *([command, "--help"] for command in
                      ("fit-ringdown", "reproduce-paper", "budget"))]
USAGE_ERRORS = [
    ["fit-ringdown", "--fsr-hz", "-inf", "a.csv"],
    ["fit-ringdown", "--fsr", "1", "a.csv"],
    ["fit-ringdown", "a.csv", "--fsr-hz", "1", "b.csv"],
    ["budget", "--scenario", "paper_yb.scenario", "--target", "gate", "--debug"],
]


def _printed(argvs, code, capsys, monkeypatch):
    """What main prints for each argv in turn, each ending in SystemExit(code)."""
    monkeypatch.setenv("COLUMNS", "80")
    for argv in argvs:
        with pytest.raises(SystemExit) as ended:
            main(argv)
        assert ended.value.code == code
    return capsys.readouterr()


def test_help_is_argparse_text_as_pinned(capsys, monkeypatch):
    printed = _printed(HELP, 0, capsys, monkeypatch)
    assert (printed.out, printed.err) == ((DATA / "cli_help.txt").read_text(), "")


def test_usage_errors_are_argparse_text_as_pinned(capsys, monkeypatch):
    printed = _printed(USAGE_ERRORS, 2, capsys, monkeypatch)
    assert (printed.out, printed.err) == ("", (DATA / "cli_usage_errors.txt").read_text())


# -- the console entry point --------------------------------------------------


def _toolkit(argv, cwd, seed, patch, call):
    """(exit code, stdout, stderr, files written) of one fresh `toolkit`
    process: `python -m cavitycharge.cli` when call is None, else `call`
    after `patch`."""
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "TOOLKIT_SEED"}
    env.update(PYTHONPATH=path, **({"TOOLKIT_SEED": seed} if seed else {}))
    if call is None:
        command = ["-m", "cavitycharge.cli"]
    else:
        command = ["-c", f"import sys\nfrom cavitycharge import cli, reports\n{patch}\n{call}"]
    cwd.mkdir()
    done = subprocess.run(
        [sys.executable, *command, *argv],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
    return done.returncode, done.stdout, done.stderr, files


# case -> (argv, TOOLKIT_SEED, patch run first, exit code)
_RUN_CASES = {
    "fit-ringdown": (["fit-ringdown", "--fsr-hz", "7.41e9", "--out", "fits.csv", "{trace}"],
                     None, "", 0),
    "fit-ringdown-no-fsr": (["fit-ringdown", "{trace}"], None, "", 2),
    "fit-ringdown-no-trace-fits": (["fit-ringdown", "--fsr-hz", "1e9", "nope.csv"], None, "", 2),
    "reproduce-paper": (["reproduce-paper", "--out", "report.csv"], "12345", "", 0),
    "reproduce-paper-acceptance-failure": (
        ["reproduce-paper", "--out", "report.csv"], "7",
        "reports.report_exit_code = lambda rows: 1", 1,
    ),
    "reproduce-paper-ignored-seed": (["reproduce-paper", "--out", "report.csv"], "-1", "", 0),
    "budget": (["budget", "--scenario", "paper_yb.scenario", "--target", "charging",
                "--out", "sweep.csv"], None, "", 0),
    "budget-non-finite": (["budget", "--scenario", "{overflow}", "--target", "cooling",
                           "--out", "sweep.csv"], None, "", 2),
    "budget-missing-scenario": (["budget", "--scenario", "missing.scenario",
                                 "--target", "gate"], None, "", 2),
    "budget-non-utf8-scenario": (["budget", "--scenario", "{non_utf8}", "--target", "gate"],
                                 None, "", 2),
    "budget-bad-target": (["budget", "--scenario", "paper_yb.scenario",
                           "--target", "warp-drive"], None, "", 2),
    "help": (["--help"], None, "", 0),
}


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_run_matches_main_in_output_files_and_exit_code(case, tmp_path):
    argv, seed, patch, code = _RUN_CASES[case]
    overflow = tmp_path / "overflow.scenario"
    overflow.write_text(bundled_scenario_text().replace("xq_m = 0.0002", "xq_m = 1e300"))
    non_utf8 = tmp_path / "non_utf8.scenario"
    non_utf8.write_bytes(b"\xff\xfe[meta]\n")
    argv = [a.format(trace=bundled_trace_paths()[0], overflow=overflow, non_utf8=non_utf8)
            for a in argv]
    old = _toolkit(argv, tmp_path / "main", seed, patch, "sys.exit(cli.main())")
    assert old[0] == code
    assert _toolkit(argv, tmp_path / "run", seed, patch, "cli.run()") == old
    if not patch:
        assert _toolkit(argv, tmp_path / "module", seed, patch, None) == old


@pytest.mark.parametrize("line", ["seed = 0", "mc_samples = 100000"])
def test_budget_on_a_scenario_with_a_retired_meta_key_exits_2_naming_it(line, tmp_path):
    scenario = tmp_path / "retired.scenario"
    scenario.write_text(bundled_scenario_text().replace("[meta]\n", f"[meta]\n{line}\n"))
    argv = ["budget", "--scenario", str(scenario), "--target", "gate"]
    code, out, err, _ = _toolkit(argv, tmp_path / "run", None, "", None)
    key = line.split()[0]
    assert (code, out) == (2, b"")
    assert err.decode().splitlines() == [
        f"toolkit budget: line 2: unknown key '{key}' in [meta]"]


# -- fit-ringdown across forked workers ----------------------------------------

_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
needs_two_cpus = pytest.mark.skipif(
    len(_CPUS) < 2, reason="one usable CPU: fit-ringdown never forks a worker"
)

# cli.main(argv) in a fresh interpreter, counting its forks; after main, one
# JSON line per process that gets there goes to the record file
_FORK_PROBE = """\
import json, os, sys
from cavitycharge import cli
record, argv = sys.argv[1], sys.argv[2:]
forks, fork = [], os.fork
def counted_fork():
    forks.append(fork())
    return forks[-1]
os.fork = counted_fork
{patch}
try:
    code = cli.main(argv)
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    with open(record, "a") as fh:
        fh.write(json.dumps({{"pid": os.getpid(), "forks": len(forks), "left": left}}) + "\\n")
sys.exit(code)
"""

# a load that fails inside whichever process fits `fault`, and says which one
_FAULT = """\
real_load = cli.load_trace_csv
def load_trace_csv(path):
    if path == {fault!r}:
        with open(record + ".fault", "w") as fh:
            fh.write(str(os.getpid()))
        raise KeyError("injected")
    return real_load(path)
cli.load_trace_csv = load_trace_csv
"""


def _fit_ringdown_forking(argv, record, serial, patch="", options=()):
    """(exit code, stdout, stderr, the probe's records) of one fit-ringdown
    command, its CPU affinity one CPU when serial; BLAS pinned to one thread,
    so that the process is single-threaded."""
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    one_cpu = {min(_CPUS)}
    done = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE.format(patch=patch), str(record),
         *options, "fit-ringdown", "--fsr-hz", "7.41e9", *argv],
        env=env, capture_output=True, timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if serial else None,
    )
    records = [json.loads(line) for line in record.read_text().splitlines()]
    return done.returncode, done.stdout, done.stderr, records


def _forked_and_serial(argv, tmp_path, patch="", options=()):
    """Both runs of one command, each checked to have forked as it should
    and to have left no child and no second return from main()."""
    runs = []
    for serial in (False, True):
        record = tmp_path / ("serial.json" if serial else "forked.json")
        code, out, err, records = _fit_ringdown_forking(argv, record, serial, patch, options)
        assert len(records) == 1, records  # no worker returned into the caller
        assert records[0]["forks"] == (0 if serial else 1)
        assert not records[0]["left"]
        runs.append((code, out, err, records[0]["pid"]))
    return runs


@needs_two_cpus
@pytest.mark.parametrize("mix", ["all-good", "bad-among-good", "all-bad"])
def test_forked_fit_ringdown_matches_the_serial_path_byte_for_byte(mix, large_traces, tmp_path):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("t,v\n0,nonsense\n")
    missing = tmp_path / "missing.csv"
    nan = tmp_path / "nan.csv"
    nan.write_text("t,v\n" + "".join(f"{k * 1e-9},{'nan' if k == 9 else 0.9**k}\n"
                                     for k in range(40)))
    if mix == "all-good":
        argv = large_traces
    elif mix == "bad-among-good":
        argv = [str(malformed), large_traces[0], str(missing), str(nan), large_traces[1]]
    else:  # the large traces, one with a malformed last row, one with a NaN there
        argv = [str(tmp_path / "malformed_large.csv"), str(tmp_path / "nan_large.csv")]
        for path, source, row in zip(argv, large_traces, ("1.0,nonsense\n", "1.0,nan\n")):
            Path(path).write_text(Path(source).read_text() + row)
    forked, serial = _forked_and_serial(argv, tmp_path)
    assert forked[:3] == serial[:3]
    code, out, err = forked[:3]
    lines = err.decode().splitlines()
    if mix == "all-good":
        assert code == 0 and err == b"" and len(out.splitlines()) == 6
    elif mix == "bad-among-good":
        assert code == 0 and len(lines) == 3
        assert all(str(path) in line for path, line in zip((malformed, missing, nan), lines))
        assert [line.split(b",")[0] for line in out.splitlines()[1:3]] == [
            large_traces[0].encode(), large_traces[1].encode()]
    else:
        assert code == 2 and out == b"" and len(lines) == 3
        assert [line.split(": ")[1] for line in lines] == [*argv, "no trace could be fitted"]


@needs_two_cpus
def test_small_traces_are_fitted_without_a_fork(tmp_path):
    # the bundled traces hold 9 KB each: a fork would cost more than it saves
    code, out, err, records = _fit_ringdown_forking(bundled_trace_paths(), tmp_path / "r.json", False)
    assert (code, err, len(out.splitlines())) == (0, b"", 9)
    assert records == [{"pid": records[0]["pid"], "forks": 0, "left": False}]


@needs_two_cpus
def test_an_internal_error_in_a_forked_worker_exits_3_with_one_line(large_traces, tmp_path):
    # the parent fits the larger trace, a worker the smaller, where the fault is
    fault = min(large_traces, key=lambda path: os.stat(path).st_size)
    patch = _FAULT.format(fault=fault)
    forked, serial = _forked_and_serial(large_traces, tmp_path, patch)
    assert int((tmp_path / "forked.json.fault").read_text()) != forked[3]
    assert forked[:3] == serial[:3]
    assert forked[:3] == (3, b"", b"toolkit fit-ringdown: internal error: KeyError: 'injected'\n")

    debug = tmp_path / "debug"
    debug.mkdir()
    forked, serial = _forked_and_serial(large_traces, debug, patch, ["--debug"])
    for code, out, err, _ in (forked, serial):
        assert code == 1 and out == b""
        assert err.startswith(b"Traceback") and err.endswith(b"KeyError: 'injected'\n")


@needs_two_cpus
def test_a_worker_that_ends_unreported_is_an_internal_error(large_traces, tmp_path):
    # the worker's load ends its process before it reports (as a kill would)
    fault = min(large_traces, key=lambda path: os.stat(path).st_size)
    patch = _FAULT.format(fault=fault).replace('raise KeyError("injected")', "os._exit(9)")
    record = tmp_path / "record.json"
    code, out, err, records = _fit_ringdown_forking(large_traces, record, False, patch)
    assert records[0]["forks"] == 1 and not records[0]["left"]
    assert (code, out) == (3, b"")
    assert re.fullmatch(rb"toolkit fit-ringdown: internal error: RuntimeError: fit-ringdown "
                        rb"worker \d+ exited \(9\) before reporting\n", err), err


def test_a_share_that_cannot_be_forked_is_fitted_by_the_parent(large_traces, monkeypatch, capsys):
    argv = ["fit-ringdown", "--fsr-hz", "7.41e9", *large_traces]
    monkeypatch.setattr(cli, "_single_threaded", lambda: False)
    assert main(argv) == 0
    serial = capsys.readouterr()

    def no_process_to_spare():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_single_threaded", lambda: True)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_process_to_spare)
    assert len(cli._shares(large_traces)) == 2
    assert main(argv) == 0
    assert capsys.readouterr() == serial


# -- a trace read from a pipe or a FIFO ------------------------------------------


def _fit_ringdown_process(argv, timeout=60, patch="", **kwargs):
    """(exit code, stdout, stderr) of fit-ringdown in a fresh process; a run
    past timeout is killed and reaped by subprocess.run, and fails."""
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys\nfrom cavitycharge import cli, ringdown\n{patch}\nsys.exit(cli.main())"
    done = subprocess.run([sys.executable, "-c", code, "fit-ringdown", "--fsr-hz", "7.41e9", *argv],
                          env=env, capture_output=True, timeout=timeout, **kwargs)
    return done.returncode, done.stdout, done.stderr


def _numbers(stdout):
    """fit-ringdown stdout without its trace names: each row's numeric fields
    (cut -d, -f2-) and the '#' lines."""
    return [line if line.startswith(b"#") else line.split(b",", 1)[1]
            for line in stdout.splitlines()]


@pytest.mark.parametrize("trace", ["bundled", "large"])
def test_fit_ringdown_reads_a_pipe_like_the_file(trace, large_traces):
    # the bundled trace is 9 KB, more than one buffered read
    path = bundled_trace_paths()[0] if trace == "bundled" else large_traces[0]
    from_file = _fit_ringdown_process([path])
    with open(path, "rb") as fh:
        piped = _fit_ringdown_process(["/dev/stdin"], input=fh.read())
    assert from_file[0] == 0 and from_file[2] == b""
    assert piped[0] == 0 and piped[2] == b""
    assert _numbers(piped[1]) == _numbers(from_file[1])


def test_fit_ringdown_reads_a_fifo_once(tmp_path):
    path = bundled_trace_paths()[1]
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:  # waits for the reader
                fh.write(Path(path).read_bytes())
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        code, out, err = _fit_ringdown_process([str(fifo)], timeout=60)
    finally:
        # a writer still waiting for a reader gets one that is closed at once
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert (code, err) == (0, b"")
    assert _numbers(out) == _numbers(_fit_ringdown_process([path])[1])


def test_a_stream_over_the_size_cap_exits_2_naming_the_cap():
    path = bundled_trace_paths()[0]
    with open(path, "rb") as fh:
        code, out, err = _fit_ringdown_process(
            ["/dev/stdin"], patch="ringdown.TRACE_MAX_BYTES = 1000", input=fh.read())
    assert (code, out) == (2, b"")
    assert err.decode().splitlines() == [
        "fit-ringdown: /dev/stdin: 1001 bytes, more than the 1000-byte cap on a trace file",
        "fit-ringdown: no trace could be fitted",
    ]
