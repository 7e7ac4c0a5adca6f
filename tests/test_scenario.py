import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitycharge import budgets, charging, ion_impact, reports, rydberg_impact
from cavitycharge.electrostatics import ChargeScenario
from cavitycharge.cli import main
from cavitycharge.errors import SchemaError
from cavitycharge.reports import bundled_scenario_text
from cavitycharge.scenario import (
    _KEYS,
    _SECTIONS,
    FilmSection,
    IlluminationSection,
    RydbergSection,
    Scenario,
    TrapSection,
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
    for section, line in [("cavity", "f01 = 14160.0"), ("cavity", "f01_sigma = 250.0"),
                          ("cavity", "film_thickness_m = 3e-08"),
                          ("cavity", "film_thickness_sigma_m = 2e-09"),
                          ("trap", "gate_occupation = 50")]:
        text = bundled_scenario_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split()[0]
        with pytest.raises(SchemaError, match=rf"unknown key '{key}' in \[{section}\]"):
            parse_scenario(text)


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


def test_integer_keys_are_not_bound_by_the_float_range():
    big = "1" * 400  # no float holds it; an int key is exact
    assert parse_scenario(MINIMAL.replace("seed = 7", f"seed = {big}")).seed == int(big)


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
        budgets.budget_report(scn, "charging")
    with pytest.raises(SchemaError, match=r"^row fsr_from_length: .* no \[cavity\] section"):
        reports.build_report(scn)


def test_the_film_thickness_has_one_home():
    # [film] holds the one film thickness, its sigma the optional last key
    assert sum(map(len, _KEYS.values())) == 33
    assert list(_KEYS["film"])[-2:] == ["capacitance_f", "thickness_sigma_m"]
    assert not any("thickness" in key for key in _KEYS["cavity"])
    assert FilmSection(1e-4, 30e-9, 125e-6, 1e-13).thickness_sigma_m == 0.0
    film = parse_scenario(bundled_scenario_text()).film
    assert (film.thickness_m, film.thickness_sigma_m) == (3e-8, 2e-9)


def test_missing_gate_rabi_named():
    text = bundled_scenario_text().replace("gate_rabi_hz = 10000.0\n", "")
    scn = parse_scenario(text)
    with pytest.raises(SchemaError, match=r"gate_rabi_hz"):
        scn.gate_params()


def test_typed_views_build(tmp_path):
    scn = parse_scenario(bundled_scenario_text())
    assert scn.trap_config() is scn.trap and scn.trap.secular_hz == 500e3
    assert scn.rydberg_config() is scn.rydberg and scn.rydberg.rabi_hz == 5e6
    assert scn.charge_scenario() == (630.0, 630.0, 2e-4)
    assert scn.charge_scenario().x_q_m == 2e-4
    assert scn.gate_params() == (10e3, 0.013)
    assert reports._fsr(scn).sigma == 0.013e9
    path = tmp_path / "copy.scenario"
    path.write_text(serialize_scenario(scn))
    assert load_scenario(path) == scn


def test_fsr_quantity_falls_back_to_length():
    text = bundled_scenario_text().replace("fsr_hz = 7410000000.0\n", "").replace(
        "fsr_sigma_hz = 13000000.0\n", ""
    )
    scn = parse_scenario(text)
    q = reports._fsr(scn)
    assert q.value == pytest.approx(7.4206e9, rel=1e-4)
    assert q.sigma == 0.0


def test_scenario_defaults():
    scn = Scenario()
    assert scn.name == "unnamed"
    assert scn.seed == 0
    with pytest.raises(SchemaError):
        scn.trap_config()


def test_non_utf8_file_is_a_schema_error_naming_file_and_byte(tmp_path):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(MINIMAL.replace("minimal", "caf\xe9").encode("latin-1"))
    with pytest.raises(SchemaError, match=rf"{re.escape(str(path))}: not UTF-8 text: .* at byte offset 17$"):
        load_scenario(path)


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "bom.scenario"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8"))
    assert load_scenario(path) == parse_scenario(MINIMAL)
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.replace("minimal", "caf\xe9").encode("latin-1"))
    with pytest.raises(SchemaError, match=r"not UTF-8 text: .* at byte offset 20$"):
        load_scenario(path)


def test_file_over_one_mib_is_a_schema_error_naming_the_file(tmp_path, capsys):
    # a valid scenario padded with comment lines: at 1 MiB it loads, one
    # byte more and it is refused before it is parsed
    text = bundled_scenario_text()
    pad = (1 << 20) - len(text.encode("utf-8"))
    path = tmp_path / "padded.scenario"
    path.write_text("#" * (pad - 1) + "\n" + text, encoding="utf-8")
    assert path.stat().st_size == 1 << 20
    assert load_scenario(path) == parse_scenario(text)
    path.write_text("#" * pad + "\n" + text, encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: larger than the "):
        load_scenario(path)
    argv = ["budget", "--scenario", str(path), "--target", "gate"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err


# -- a record refuses at construction what parse_scenario refuses --------------


def _with(scn, section, **values):
    if section == "meta":
        return scn._replace(**values)
    return scn._replace(**{section: getattr(scn, section)._replace(**values)})


def test_serialize_writes_numpy_floats_as_floats():
    scn = _with(parse_scenario(bundled_scenario_text()), "charges", xq_m=np.float64(0.0002))
    assert serialize_scenario(scn) == bundled_scenario_text()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("charges", "xq_m", -1.0, r"'xq_m' in \[charges\] must be > 0, got -1.0"),
        ("cavity", "f00", math.nan, r"'f00' in \[cavity\] must be finite, got nan"),
        ("meta", "mc_samples", 10, r"'mc_samples' in \[meta\] must be >= 1000, got 10"),
        ("meta", "name", "two\nlines", r"'name' in \[meta\] must be one line"),
        ("meta", "name", " x", r"'name' in \[meta\] must be one line without outer blanks"),
        ("meta", "seed", True, r"'seed' in \[meta\] must be of type int, got True"),
        ("meta", "mc_samples", 7.0, r"'mc_samples' in \[meta\] must be of type int, got 7.0"),
        ("charges", "q1_e", 10**400, r"'q1_e' in \[charges\] must be finite, got inf"),
        ("meta", "seed", 10**5000, r"'seed' in \[meta\]: cannot write a 16610-bit int as text"),
    ],
    ids=["negative", "nan", "few-draws", "two-lines", "outer-blank", "bool", "float-for-int",
         "int-beyond-float", "int-beyond-str-digits"],
)
def test_serialize_rejects_what_parse_rejects(section, key, value, message):
    # _replace refuses every value but the int too long to write as text, which
    # only serialize_scenario refuses
    scn = parse_scenario(bundled_scenario_text())
    if "cannot write" in message:
        with pytest.raises(SchemaError, match=message):
            serialize_scenario(_with(scn, section, **{key: value}))
    else:
        with pytest.raises(SchemaError, match=message):
            _with(scn, section, **{key: value})


# Properties over the key table that parse and the records share. Every value
# a key's declaration admits must round-trip; any other must be refused by name
# when its record is built, so serialize_scenario never sees it.

_ANY_VALUE = {
    float: st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0),
        st.integers(-10**6, 10**6),
    ),
    int: st.integers(0, 2**64),
    str: st.text(),
}


def _valid_value(spec):
    values = _ANY_VALUE[spec.type]
    if spec.rule is not None:
        values = values.filter(spec.rule[0])
    if spec.type is float:  # numpy floats are floats too
        values = values | values.map(np.float64)
    return st.none() | values if spec.default is None else values


def _valid_keys(section):
    return st.fixed_dictionaries({key: _valid_value(spec) for key, spec in _KEYS[section].items()})


def _valid_section(section):
    values = _valid_keys(section)
    if section == "cavity":
        values = values.filter(lambda v: v["fsr_hz"] is not None or v["length_m"] is not None)
    return st.none() | values.map(lambda v: _SECTIONS[section](**v))


_SCENARIOS = st.builds(
    lambda meta, sections: Scenario(**meta, **sections),
    _valid_keys("meta"),
    st.fixed_dictionaries({section: _valid_section(section) for section in _SECTIONS}),
)


@settings(max_examples=200)
@given(_SCENARIOS)
def test_every_declared_value_round_trips(scn):
    text = serialize_scenario(scn)
    back = parse_scenario(text)
    assert back == scn
    assert serialize_scenario(back) == text


def _invalid_value(spec):
    bad = [math.nan, math.inf, -math.inf, True, False, "1.0", 10**400]
    if spec.type is int:
        bad = [True, False, 7.0, "7", -1]
    elif spec.type is str:
        bad = ["a\nb", "a\rb", "a\u2028b", " a", "a\t", 7]
    if spec.default is not None:
        bad.append(None)
    values = st.sampled_from(bad)
    if spec.rule is not None:
        values |= _ANY_VALUE[spec.type].filter(lambda v: not spec.rule[0](v))
    return values


_INVALID = {
    (section, key): _invalid_value(spec) for section, keys in _KEYS.items()
    for key, spec in keys.items()
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(_INVALID)), st.data())
def test_serialize_refuses_any_undeclared_value_by_key(section_key, data):
    section, key = section_key  # the bundled scenario sets every key
    bad = data.draw(_INVALID[section_key])
    scn = parse_scenario(bundled_scenario_text())
    record = scn if section == "meta" else getattr(scn, section)
    with pytest.raises(SchemaError, match=rf"'{key}' in \[{section}\]"):
        _with(scn, section, **{key: bad})
    with pytest.raises(SchemaError, match=rf"'{key}' in \[{section}\]"):
        type(record)(**{**record._asdict(), key: bad})


def _trap(**values):
    return TrapSection(171.0, 5e5, 30e6, 369e-9, 355e-9, 1650e-9)._replace(**values)


def _illumination(**values):
    return IlluminationSection(1e-3, 1e-6, 1.0, 1e-4)._replace(**values)


@pytest.mark.parametrize("call", [
    lambda: ion_impact.zero_point_spread(_trap(secular_hz=-5e5)),
    lambda: ion_impact.equilibrium_position(_trap(secular_hz=-5e5), ChargeScenario(54.0, 0.0, 2e-4)),
    lambda: rydberg_impact.charge_for_coherence_time(RydbergSection(-1.0, 1e6), 5e-6, 2e-4),
    lambda: rydberg_impact.charge_for_coherence_time(RydbergSection(0.0, 1e6), 5e-6, 2e-4),
    lambda: rydberg_impact.max_charge_for_infidelity(RydbergSection(-1.0, 1e6), 0.01, 2e-4),
    lambda: rydberg_impact.max_charge_for_infidelity(RydbergSection(0.0, 1e6), 0.01, 2e-4),
    lambda: charging.film_resistance(FilmSection(1e-4, 0.0, 1e-3, 1e-13)),
    lambda: charging.photocurrent(_illumination(quantum_efficiency=2.0)),
    lambda: charging.photocurrent(_illumination(wavelength_m=0.0)),
    lambda: charging.photocurrent(_illumination(power_w=-1e-3)),
    lambda: charging.photocurrent(_illumination(photon_rate_per_s=-4e11)),
    lambda: ion_impact.lamb_dicke_budget(_trap(gate_wavelength_m=0.0), 2e-4, 0.2),
    lambda: ion_impact.lamb_dicke_budget(_trap(gate_wavelength_m=-355e-9), 2e-4, 0.2),
    lambda: ion_impact.max_charge_for_cooling(_trap(cooling_wavelength_m=0.0), 2e-4, 0.5),
    lambda: ion_impact.max_charge_for_cooling(_trap(cooling_wavelength_m=-369e-9), 2e-4, 0.5),
    lambda: budgets.budget_rows(
        _with(parse_scenario(bundled_scenario_text()), "trap", cavity_wavelength_m=0.0), "coupling"),
], ids=["zero-point-negative-secular", "equilibrium-negative-secular",
        "coherence-negative-alpha", "coherence-zero-alpha", "infidelity-negative-alpha",
        "infidelity-zero-alpha", "zero-film-thickness", "photocurrent-efficiency-above-one",
        "photocurrent-zero-wavelength", "photocurrent-negative-power",
        "photocurrent-negative-photon-rate", "lamb-dicke-zero-gate-wavelength",
        "lamb-dicke-negative-gate-wavelength", "cooling-zero-cooling-wavelength",
        "cooling-negative-cooling-wavelength", "coupling-zero-cavity-wavelength"])
def test_a_section_built_in_python_out_of_range_raises_parameter_error(call):
    # each section is refused when it is built, by its constructor or by
    # _replace, before the physics function could see it
    with pytest.raises(SchemaError, match=r"^key '\w+' in \[\w+\] must be (> 0|>= 0|in \[0, 1\]), got "):
        call()


def _rebuilt(section, **values):
    """The bundled scenario, its section built anew by the section's constructor."""
    scn = parse_scenario(bundled_scenario_text())
    record = getattr(scn, section)
    return scn._replace(**{section: type(record)(**{**record._asdict(), **values})})


# (section, values, call, message); each used to reach the call and end in a bare TypeError
WRONG_TYPE_OR_MISSING = [
    ("illumination", {"power_w": "1e-3"}, lambda scn: budgets.budget_rows(scn, "charging"),
     r"key 'power_w' in \[illumination\] must be of type float, got '1e-3'"),
    ("charges", {"xq_m": None}, lambda scn: budgets.budget_rows(scn, "cooling"),
     r"key 'xq_m' in \[charges\] must be of type float, got None"),
    ("trap", {"rf_hz": None}, lambda scn: budgets.budget_rows(scn, "gate"),
     r"key 'rf_hz' in \[trap\] must be of type float, got None"),
    ("cavity", {"fsr_hz": None, "length_m": None}, reports.build_report,
     r"section \[cavity\] needs 'fsr_hz' or 'length_m'"),
    ("cavity", {"length_m": None}, reports.build_report,
     r"row fsr_from_length: scenario 'paper_yb' is missing key 'length_m' in \[cavity\]"),
    ("cavity", {"linewidth_hz": None}, reports.build_report,
     r"row finesse_from_linewidth: scenario 'paper_yb' "
     r"is missing key 'linewidth_hz' in \[cavity\]"),
    ("trap", {"gate_rabi_hz": None}, lambda scn: budgets.budget_rows(scn, "gate"),
     r"target gate: scenario 'paper_yb' is missing key 'gate_rabi_hz' in \[trap\]"),
]


@pytest.mark.parametrize("build", ["constructor", "_replace"])
@pytest.mark.parametrize("section, values, call, message", WRONG_TYPE_OR_MISSING,
                         ids=["charging-power-str", "cooling-xq-none", "gate-rf-none",
                              "report-no-fsr-or-length", "report-fsr-without-length",
                              "report-no-linewidth", "gate-no-rabi"])
def test_a_section_built_in_python_with_a_refused_value_is_a_schema_error(
    build, section, values, call, message
):
    with pytest.raises(SchemaError, match=rf"^{message}$"):
        if build == "constructor":
            call(_rebuilt(section, **values))
        else:
            call(_with(parse_scenario(bundled_scenario_text()), section, **values))


@pytest.mark.parametrize("section, value", [
    ("trap", "the [film] section"),
    ("charges", (1.0, 2.0, 3e-4)),
], ids=["trap-holds-film", "charges-holds-tuple"])
def test_a_scenario_section_holds_its_section_record_or_none(section, value):
    # each used to reach the budget and end in a bare AttributeError
    scn = parse_scenario(bundled_scenario_text())
    value = scn.film if value == "the [film] section" else value
    message = rf"^section \[{section}\] is a {type(value).__name__}, not \w+Section$"
    with pytest.raises(SchemaError, match=message):
        budgets.budget_rows(scn._replace(**{section: value}), "cooling")
    with pytest.raises(SchemaError, match=message):
        Scenario(**{**scn._asdict(), section: value})
