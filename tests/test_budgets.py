"""The budget chain's failure contract: every row and sweep point it returns
is finite, and numerics that overflow, divide by zero or end non-finite
exit 2 with one line instead of a traceback, a crash or NaN output."""

import re
import warnings

import pytest

from cavitycharge import budgets
from cavitycharge.cli import main
from cavitycharge.errors import EvaluationError
from cavitycharge.reports import bundled_scenario_text
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
