"""The command line's two parsers: `cli._parse`, which reads the canonical
spelling without argparse, against `cli.build_parser()`, which parses every
other argv and alone prints help and usage errors (their text is pinned in
test_cli.py)."""

import contextlib
import io
import math
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from cavitycharge import BUDGET_DEFAULTS, BUDGET_TARGETS, _data_path, cli

PARSER = cli.build_parser()
COMMANDS = tuple(cli._COMMANDS)
FLAGS = sorted({name for *_, table in cli._COMMANDS.values() for name in table
                if name.startswith("-")})
TRACE = _data_path("traces/ringdown_01.csv")


def _fields(namespace):
    """vars() of a namespace, each value as its repr: NaN equals NaN, and
    -0.0 differs from 0.0."""
    return {name: repr(value) for name, value in vars(namespace).items()}


def _argparse_fields(argv):
    """_fields of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _fields(PARSER.parse_args(argv))
        except SystemExit:
            return None


# argv pieces: the flags of every subcommand, argparse's other spellings, and
# values that are floats, not floats, targets, commands or start with "-"
SPELLINGS = FLAGS + ["--debug", "-h", "--help", "--", "--fsr", "--scen", "--tau", "--fsr-hz=1e9"]
VALUES = ["1", "-1", "-inf", "inf", "nan", "1e9", "7.41e9", " 1", "1_0", "0x10", "x", "", "-",
          "a.csv", "b.csv", "-x.csv", "paper_yb.scenario", "warp-drive", *BUDGET_TARGETS,
          *COMMANDS]
FLOATS = ["0", "1", "7.41e9", "1e-300", "inf", "nan", " 1 ", "1_0"]


@st.composite
def argvs(draw):
    """An argv that is mostly its subcommand's flags, each with a value,
    and runs of trace names, among junk pieces."""
    command = draw(st.sampled_from(COMMANDS * 3 + ("x",)))
    flags = [name for name in cli._COMMANDS.get(command, [{}])[-1] if name.startswith("-")]
    pair = st.tuples(st.sampled_from(flags or FLAGS), st.sampled_from(VALUES + FLOATS))
    traces = st.lists(st.sampled_from(["a.csv", "b.csv"]), min_size=1, max_size=2).map(tuple)
    junk = st.tuples(st.sampled_from(SPELLINGS + VALUES))
    pieces = draw(st.lists(st.one_of(pair, pair, pair, pair, traces, junk), max_size=5))
    if command == "budget" and draw(st.sampled_from([True, True, False])):
        target = draw(st.sampled_from(BUDGET_TARGETS))
        pieces = draw(st.permutations([*pieces, ("--scenario", "s"), ("--target", target)]))
    debug = draw(st.sampled_from([(), (), ("--debug",), ("--debug", "--debug")]))
    return [*debug, command, *chain.from_iterable(pieces)]


@settings(max_examples=300)
@given(argv=argvs())
def test_parse_gives_argparse_namespace_or_none(argv):
    parsed = cli._parse(argv)
    assert parsed is None or _fields(parsed) == _argparse_fields(argv)


@pytest.mark.parametrize("argv", [
    ["reproduce-paper"],
    ["reproduce-paper", "--out", "report.csv"],
    ["--debug", "budget", "--scenario", "paper_yb.scenario", "--target", "gate"],
    ["budget", "--target", "cooling", "--out", "s.csv", "--scenario", "paper_yb.scenario",
     "--intensity-floor", "1e-300", "--modulation-limit", "0.3", "--displacement-m", "1e-7",
     "--tau-pi-s", "nan", "--infidelity", "inf"],
    ["fit-ringdown", "--fsr-hz", "7.41e9", "a.csv", "b.csv"],
    ["fit-ringdown", "a.csv", "b.csv", "--length-m", "0.02", "--fsr-sigma-hz", "1e7"],
    ["fit-ringdown", "--out", "fits.csv", "a.csv", "--fsr-hz", "1"],
], ids=lambda argv: " ".join(argv))
def test_canonical_argv_is_parsed_without_argparse(argv):
    parsed = cli._parse(argv)
    assert parsed is not None
    assert _fields(parsed) == _argparse_fields(argv)


@pytest.mark.parametrize("argv, parsed", [
    (["fit-ringdown", "--fsr-hz", "-1", "a.csv"], {"fsr_hz": -1.0}),
    (["fit-ringdown", "--fsr-hz", "-inf", "a.csv"], "argument --fsr-hz: expected one argument"),
    (["fit-ringdown", "--fsr", "1", "a.csv"],
     "ambiguous option: --fsr could match --fsr-hz, --fsr-sigma-hz"),
    (["budget", "--scen", "x", "--target", "gate"], {"scenario": "x"}),
    (["fit-ringdown", "a.csv", "--fsr-hz", "1", "b.csv"], "unrecognized arguments: b.csv"),
    (["fit-ringdown", "--fsr-hz=1e9", "a.csv"], {"fsr_hz": 1e9}),
    (["fit-ringdown", "--fsr-hz", "1", "--", "-x.csv"], {"traces": ["-x.csv"]}),
    (["budget", "--scenario", "x", "--target", "gate", "--debug"],
     "unrecognized arguments: --debug"),
    (["--debug", "--debug", "reproduce-paper"], {"debug": True}),
    (["budget", "--scenario", "x", "--target", "warp-drive"],
     "argument --target: invalid choice: 'warp-drive'"),
    (["fit-ringdown", "--fsr-hz", "x", "a.csv"], "argument --fsr-hz: invalid float value: 'x'"),
], ids=lambda case: " ".join(case) if isinstance(case, list) else "")
def test_other_spellings_go_to_argparse(argv, parsed, capsys):
    assert cli._parse(argv) is None
    if isinstance(parsed, dict):
        namespace = vars(PARSER.parse_args(argv))
        assert {key: namespace[key] for key in parsed} == parsed
        return
    with pytest.raises(SystemExit) as ended:
        cli.main(argv)
    assert ended.value.code == 2
    assert f"error: {parsed}" in capsys.readouterr().err.splitlines()[-1]


# a flag value log-uniform over the whole float range, of either sign, or a
# non-finite one, spelled as repr spells it
FLOAT_VALUES = st.one_of(
    st.builds(lambda sign, exponent: repr(sign * 10.0 ** exponent),
              st.sampled_from([1.0, -1.0]), st.floats(-320.0, 308.0)),
    st.sampled_from(["0.0", "-0.0", "inf", "-inf", "nan"]),
)
BUDGET_FLOATS = [flag for flag, spec in cli._COMMANDS["budget"][-1].items()
                 if spec.get("dest") in BUDGET_DEFAULTS]
FIT_FLOATS = ["--fsr-hz", "--fsr-sigma-hz", "--length-m"]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep") / "s.csv")


@settings(max_examples=100)
@given(data=st.data())
def test_float_flags_on_every_target_exit_0_or_2_without_a_traceback(data, sweep_csv):
    if data.draw(st.booleans(), label="fit-ringdown"):
        flags = data.draw(st.lists(st.sampled_from(FIT_FLOATS), unique=True))
        argv = ["fit-ringdown", TRACE]
    else:
        flags = data.draw(st.lists(st.sampled_from(BUDGET_FLOATS), unique=True))
        argv = ["budget", "--scenario", _data_path("paper_yb.scenario"), "--out", sweep_csv,
                "--target", data.draw(st.sampled_from(BUDGET_TARGETS), label="target")]
    for flag in flags:
        argv += [flag, data.draw(FLOAT_VALUES, label=flag)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error for a value it takes as a flag
            code = exc.code
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    if code == 0:
        rows = [line.split(",")[1] for line in stdout.getvalue().splitlines()
                if line.count(",") >= 2 and not line.startswith(("quantity,", "trace,"))]
        assert all(math.isfinite(float(value)) for value in rows)
