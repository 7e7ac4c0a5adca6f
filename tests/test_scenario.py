import re

import pytest

from cavitycharge.errors import SchemaError
from cavitycharge.reports import bundled_scenario_text
from cavitycharge.scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = """\
[meta]
name = minimal
seed = 7

[charges]
q1_e = 54.0
q2_e = 0.0
xq_m = 0.0002
"""


def test_bundled_scenario_round_trips_byte_identically():
    text = bundled_scenario_text()
    scn = parse_scenario(text)
    assert serialize_scenario(scn) == text
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_round_trip_identity_for_partial_scenario():
    scn = parse_scenario(MINIMAL)
    assert scn.name == "minimal"
    assert scn.seed == 7
    assert scn.mc_samples == 100_000
    assert scn.trap is None
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_serialization_is_deterministic():
    scn = parse_scenario(MINIMAL)
    assert serialize_scenario(scn) == serialize_scenario(scn)


def test_default_seed_recorded_in_output():
    text = MINIMAL.replace("seed = 7\n", "")
    scn = parse_scenario(text)
    assert scn.seed == 0
    assert "seed = 0" in serialize_scenario(scn)


def test_seed_only_difference_shows_on_seed_line():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL.replace("seed = 7", "seed = 8"))
    diff = [
        (la, lb)
        for la, lb in zip(
            serialize_scenario(a).splitlines(), serialize_scenario(b).splitlines()
        )
        if la != lb
    ]
    assert diff == [("seed = 7", "seed = 8")]


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "\n# trailing comment\n"
    assert parse_scenario(text) == parse_scenario(MINIMAL)


def test_unknown_section_rejected():
    with pytest.raises(SchemaError, match=r"unknown section"):
        parse_scenario(MINIMAL + "\n[turbo]\nboost = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(SchemaError, match=r"unknown key 'q3_e'"):
        parse_scenario(MINIMAL + "q3_e = 1.0\n")


def test_duplicate_key_rejected():
    with pytest.raises(SchemaError, match=r"duplicate key"):
        parse_scenario(MINIMAL + "q1_e = 2.0\n")


def test_negative_secular_frequency_rejected():
    text = """\
[trap]
mass_amu = 171.0
secular_hz = -1
rf_hz = 30000000.0
cooling_wavelength_m = 3.69e-07
gate_wavelength_m = 3.55e-07
cavity_wavelength_m = 1.65e-06
"""
    with pytest.raises(SchemaError, match=r"secular_hz"):
        parse_scenario(text)


def test_missing_required_key_named():
    broken = MINIMAL.replace("xq_m = 0.0002\n", "")
    with pytest.raises(SchemaError, match=r"xq_m"):
        parse_scenario(broken)


def test_integer_keys_reject_floats():
    with pytest.raises(SchemaError, match=r"seed"):
        parse_scenario(MINIMAL.replace("seed = 7", "seed = 7.5"))


@pytest.mark.parametrize(
    "section,key,token",
    [("charges", "q1_e", "nan"), ("cavity", "f00", "inf"), ("charges", "xq_m", "inf"),
     ("charges", "q2_e", "-inf")],
)
def test_non_finite_numbers_rejected(section, key, token):
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {token}", bundled_scenario_text())
    with pytest.raises(SchemaError, match=rf"'{key}' in \[{section}\] must be finite"):
        parse_scenario(text)


def test_mc_samples_bounded_at_parse_time():
    # the Monte-Carlo engine's minimum draw count, checked before any report runs
    with_mc = MINIMAL.replace("seed = 7", "seed = 7\nmc_samples = 1000")
    assert parse_scenario(with_mc).mc_samples == 1000
    with pytest.raises(SchemaError, match=r"'mc_samples' in \[meta\] must be >= 1000, got 999"):
        parse_scenario(with_mc.replace("= 1000", "= 999"))


def test_cavity_needs_fsr_or_length():
    text = """\
[cavity]
f00 = 23340.0
f00_sigma = 60.0
f01 = 14160.0
f01_sigma = 250.0
film_thickness_m = 3e-08
film_thickness_sigma_m = 2e-09
wavelength_m = 1.65e-06
"""
    with pytest.raises(SchemaError, match=r"fsr_hz.*length_m"):
        parse_scenario(text)


def test_missing_section_errors_name_the_section():
    scn = parse_scenario(MINIMAL)
    with pytest.raises(SchemaError, match=r"\[trap\]"):
        scn.trap_config()
    with pytest.raises(SchemaError, match=r"\[rydberg\]"):
        scn.rydberg_config()
    with pytest.raises(SchemaError, match=r"\[film\]"):
        scn.film_sample()


def test_missing_gate_rabi_named():
    text = bundled_scenario_text().replace("gate_rabi_hz = 10000.0\n", "")
    scn = parse_scenario(text)
    with pytest.raises(SchemaError, match=r"gate_rabi_hz"):
        scn.gate_params()


def test_typed_views_build(tmp_path):
    scn = parse_scenario(bundled_scenario_text())
    assert scn.trap_config().secular_hz == 500e3
    assert scn.charge_scenario().x_q_m == 2e-4
    assert scn.rydberg_config().rabi_hz == 5e6
    assert scn.film_sample().thickness_m == 30e-9
    assert scn.illumination_scenario().mirror_distance_m == 2e-4
    assert scn.fsr_quantity().sigma == 0.013e9
    assert scn.gate_params().rabi_hz == 10e3
    path = tmp_path / "copy.scenario"
    path.write_text(serialize_scenario(scn))
    assert load_scenario(path) == scn


def test_fsr_quantity_falls_back_to_length():
    text = bundled_scenario_text().replace("fsr_hz = 7410000000.0\n", "").replace(
        "fsr_sigma_hz = 13000000.0\n", ""
    )
    scn = parse_scenario(text)
    q = scn.fsr_quantity()
    assert q.value == pytest.approx(7.4206e9, rel=1e-4)
    assert q.sigma == 0.0


def test_scenario_defaults():
    scn = Scenario()
    assert scn.name == "unnamed"
    assert scn.seed == 0
    with pytest.raises(SchemaError):
        scn.trap_config()
