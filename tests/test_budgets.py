"""The failure contract of the budget chain and the report: every row and
sweep point they return is finite, and numerics that overflow, divide by
zero or end non-finite raise one ToolkitError (exit 2 with one line from
the CLI) instead of a traceback, a crash or NaN output."""

import re
import warnings

import numpy as np
import pytest

from cavitycharge import budgets
from cavitycharge.cli import main
from cavitycharge.errors import DomainError, EvaluationError, ParameterError, ToolkitError
from cavitycharge.reports import build_report, bundled_scenario_text
from cavitycharge.scenario import parse_scenario


def _with(key, value):
    text, count = re.subn(
        rf"^{key} = .*$", f"{key} = {value}", bundled_scenario_text(), flags=re.MULTILINE
    )
    assert count == 1
    return text


# (scenario key, value, target); each used to end in a traceback or in
# non-finite output with exit 0
OUT_OF_RANGE = [
    # ZeroDivisionError traceback, exit 1
    ("xq_m", "1e-300", "cooling"),
    ("xq_m", "1e-300", "lamb-dicke"),
    ("xq_m", "1e-300", "gate"),
    ("mass_amu", "1e-300", "cooling"),
    ("mass_amu", "1e-300", "gate"),
    # exit 0 with 200 NaN sweep points and a RuntimeWarning
    ("xq_m", "1e-300", "rydberg-coherence"),
    ("xq_m", "1e-300", "rydberg-gate"),
    # OverflowError traceback, exit 1
    *(("xq_m", "1e300", t) for t in budgets.BUDGET_TARGETS),
    ("waist_m", "1e300", "charging"),
    ("secular_hz", "1e-300", "gate"),
    # exit 0 with inf rows and a RuntimeWarning
    ("q1_e", "1e300", "gate"),
    ("power_w", "1e300", "charging"),
    ("capacitance_f", "1e300", "charging"),
]


@pytest.mark.parametrize("key, value, target", OUT_OF_RANGE)
def test_out_of_range_scenario_exits_2_with_one_line(key, value, target, tmp_path, capsys):
    scenario = tmp_path / "run.scenario"
    scenario.write_text(_with(key, value))
    sweep = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code = main(["budget", "--scenario", str(scenario), "--target", target,
                     "--out", str(sweep)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not sweep.exists()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"toolkit budget: target {target}: ")


@pytest.mark.parametrize("key, value, target", OUT_OF_RANGE)
def test_out_of_range_scenario_fails_alike_without_numpy(key, value, target):
    # the CLI calls each sweep point on a float when numpy is not loaded
    scn = parse_scenario(_with(key, value))
    raised = []
    for numpy in (np, None):
        with pytest.raises(ToolkitError) as info:
            budgets._report(scn, target, {}, numpy)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_arithmetic_error_is_evaluation_error_with_its_cause():
    scn = parse_scenario(_with("xq_m", "1e300"))
    with pytest.raises(EvaluationError, match="OverflowError") as info:
        budgets.budget_report(scn, "cooling")
    assert isinstance(info.value.__cause__, OverflowError)


def test_non_finite_sweep_is_evaluation_error_naming_the_first_point():
    scn = parse_scenario(_with("xq_m", "1e-300"))
    with pytest.raises(EvaluationError,
                       match=r"200 of 200 sweep points are not finite, the first "
                             r"\(q1_e,decoherence_time_s\) = "):
        budgets.budget_report(scn, "rydberg-coherence")
    # E * E overflows from the 160th point on; both sweep evaluations name it
    scn = parse_scenario(_with("alpha", "2e-302"))
    messages = []
    for numpy in (np, None):
        with pytest.raises(EvaluationError) as info:
            budgets._report(scn, "rydberg-gate", {}, numpy)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("target rydberg-gate: 41 of 200 sweep points are not finite")


@pytest.mark.parametrize("key, value, target", [
    # each used to blame stray charge or to exit 0 with q1_max = 0.0
    ("mass_amu", "1e-300", "lamb-dicke"),
    ("mass_amu", "1e-300", "coupling"),
    ("secular_hz", "1e-300", "cooling"),
])
def test_trap_curvature_that_underflows_exits_2_naming_mass_and_frequency(
    key, value, target, tmp_path, capsys
):
    scenario = tmp_path / "run.scenario"
    scenario.write_text(_with(key, value))
    code = main(["budget", "--scenario", str(scenario), "--target", target,
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"toolkit budget: target {target}: trap curvature k_t ")
    assert "mass" in err[0] and "secular frequency" in err[0]


# (scenario key, value, error, message start); each used to raise a bare
# ArithmeticError from build_report or to return an inf row
REPORT_OUT_OF_RANGE = [
    ("xq_m", "1e-300", EvaluationError, "target cooling: ZeroDivisionError: "),
    ("mass_amu", "1e-300", ParameterError, "target cooling: trap curvature k_t "),
    ("xq_m", "1e300", EvaluationError, "target cooling: OverflowError: "),
    ("waist_m", "1e300", EvaluationError, "target charging: OverflowError: "),
    ("power_w", "1e300", EvaluationError,
     "target charging: photoelectron_rate_first_principles = inf is not finite"),
    ("length_m", "1e-320", EvaluationError,
     "row fsr_from_length: fsr_from_length = inf is not finite"),
    # F00 = 23340 +/- 5e4 is <= 0 at its lowest cubature node: the first
    # kappa row fails, naming F00
    ("f00_sigma", "5e4", DomainError, "row kappa_zno_27d: finesse F00 = "),
    # linewidth = 523 +/- 200 kHz is <= 0 at its lowest node: the finesse
    # sigma row printed a ratio of 243, a MISMATCH past the pole of FSR/linewidth
    ("linewidth_sigma_hz", "2e5", DomainError,
     "row finesse_mc_linear_sigma: linewidth = 523000 +/- 200000 is "),
]


@pytest.mark.parametrize("key, value, error, start", REPORT_OUT_OF_RANGE,
                         ids=[f"{key}={value}" for key, value, *_ in REPORT_OUT_OF_RANGE])
def test_out_of_range_report_raises_one_toolkit_error(key, value, error, start):
    scn = parse_scenario(_with(key, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            build_report(scn)
    message = str(info.value)
    assert message.startswith(start) and "\n" not in message
    if "Error: " in start:
        assert isinstance(info.value.__cause__, ArithmeticError)


def test_linewidth_at_or_below_zero_at_its_lowest_node_exits_2(monkeypatch, capsys):
    # an input error, where the report used to exit 1 on an acceptance failure
    text = _with("linewidth_sigma_hz", "2e5")
    monkeypatch.setattr("cavitycharge.reports.bundled_scenario_text", lambda: text)
    assert main(["reproduce-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "toolkit reproduce-paper: row finesse_mc_linear_sigma: linewidth = 523000 +/- 200000 is ")
    assert captured.err.count("\n") == 1
