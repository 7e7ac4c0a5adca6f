"""Each budget sweep, one array call or one call per grid point, equals the
scalar forward chain bit for bit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitycharge import budgets, charging
from cavitycharge import electrostatics as es
from cavitycharge import ion_impact as ion
from cavitycharge import rydberg_impact as ryd
from cavitycharge.errors import StabilityError, ToolkitError
from cavitycharge.quantities import CODATA
from cavitycharge.reports import (
    BUDGET_ROWS,
    BUDGET_TARGETS,
    SWEEP_POINTS,
    budget_report,
    build_report,
    bundled_scenario_text,
    load_manifest,
)
from cavitycharge.scenario import parse_scenario


def _scaled(text, factors):
    """The scenario text with each key's value multiplied by its factor."""
    for key, factor in factors.items():
        pattern = re.compile(rf"^({key}\s*=\s*)(\S+)$", re.MULTILINE)
        text = pattern.sub(lambda m: m.group(1) + repr(float(m.group(2)) * factor), text)
    return text


def _scalar_reference(scn, target, rows):
    """(sweep upper end, figure of merit of one float) from the scalar API."""
    trap = scn.trap
    x_q = scn.charges.xq_m
    rydberg = scn.rydberg
    values = {name: value for name, value, _unit in rows}
    if target == "cooling":
        return 2.0 * values["q1_max"], lambda q: ion.carrier_intensity_factor(
            ion.micromotion_of_single_charge(trap, x_q, q), trap.cooling_wavelength_m
        )
    if target == "coupling":
        return 2.0 * max(values["q1_max"], 1.0), lambda q: ion.equilibrium_position(
            trap, es.ChargeScenario(q, 0.0, x_q)
        )
    if target == "lamb-dicke":
        k = 2.0 * math.pi / trap.gate_wavelength_m
        return 2.0 * max(values["q1_max"], 1.0), lambda q: k * (
            ion.micromotion_of_single_charge(trap, x_q, q)
        )
    if target == "gate":
        gate = scn.gate_params()
        upper = 2.0 * max(abs(scn.charges.q1_e), values["equal_charge_bound"], 1.0)
        return upper, lambda q: ion.gate_detuning_verdict(
            trap, es.ChargeScenario(q, q, x_q), gate
        ).ratio_rabi
    if target == "rydberg-coherence":
        return 2.0 * values["q1_max"], lambda q: ryd.decoherence_time(
            rydberg, es.single_charge_field(q, x_q)
        )
    if target == "rydberg-gate":
        return 2.0 * values["q1_max"], lambda q: ryd.blockade_infidelity(
            rydberg, ryd.stark_shift(rydberg, es.single_charge_field(q, x_q))
        )
    film, illum = scn.film, scn.illumination
    resistance = charging.film_resistance(film)

    def charge(p):
        rate = illum.quantum_efficiency * p * illum.wavelength_m / (CODATA.h * CODATA.c)
        return charging.equilibrium_charge(
            resistance, film.capacitance_f, CODATA.e * rate
        ).charge_e

    return 2.0 * max(illum.power_w, 1e-12), charge


def _assert_sweep_matches_scalar_chain(text):
    """Both sweep evaluations equal scalar calls of the forward chain, bit for bit."""
    scn = parse_scenario(text)
    for target in BUDGET_TARGETS:
        for numpy in (np, None):
            rows, _header, sweep = budgets._report(scn, target, {}, numpy)
            upper, figure = _scalar_reference(scn, target, rows)
            grid = np.linspace(upper / SWEEP_POINTS, upper, SWEEP_POINTS)
            x, y = np.asarray(sweep, float).T
            assert len(sweep) == SWEEP_POINTS
            assert x.tobytes() == grid.tobytes(), target
            expected = np.array([figure(q) for q in grid])
            assert y.tobytes() == expected.tobytes(), target


def _assert_report_rows_are_budget_rows(text):
    """Each budget-backed report row is its budget_report row, bit for bit."""
    scn = parse_scenario(text)
    computed = {row.row_id: row.computed for row in build_report(scn)}
    inputs = {spec["id"]: spec.get("inputs", {}) for spec in load_manifest()}
    for row_id, (target, name) in BUDGET_ROWS.items():
        rows, _header, _sweep = budget_report(scn, target, **inputs[row_id])
        value = {n: v for n, v, _unit in rows}[name]
        assert computed[row_id].hex() == float(value).hex(), row_id


def test_bundled_sweeps_match_scalar_chain():
    _assert_sweep_matches_scalar_chain(bundled_scenario_text())
    _assert_report_rows_are_budget_rows(bundled_scenario_text())


_factor = st.floats(0.8, 1.25)


@settings(max_examples=40)
@given(xq=_factor, secular=_factor, alpha=_factor, charges=_factor, power=_factor)
def test_variant_sweeps_match_scalar_chain(xq, secular, alpha, charges, power):
    text = _scaled(
        bundled_scenario_text(),
        {"xq_m": xq, "secular_hz": secular, "alpha": alpha,
         "q1_e": charges, "q2_e": charges, "power_w": power},
    )
    _assert_sweep_matches_scalar_chain(text)
    _assert_report_rows_are_budget_rows(text)


_decades = st.floats(-12.0, 12.0)


@settings(max_examples=200)
@given(xq=_decades, secular=_decades, alpha=_decades, q1=_decades, q2=_decades,
       power=_decades)
def test_log_uniform_variants_sweep_alike_or_fail_alike(xq, secular, alpha, q1, q2, power):
    # each key at its bundled value times 10**u, u uniform in [-12, 12]
    text = _scaled(
        bundled_scenario_text(),
        {"xq_m": 10.0**xq, "secular_hz": 10.0**secular, "alpha": 10.0**alpha,
         "q1_e": 10.0**q1, "q2_e": 10.0**q2, "power_w": 10.0**power},
    )
    scn = parse_scenario(text)
    for target in BUDGET_TARGETS:
        results = []
        for numpy in (np, None):
            try:  # any other exception, a math ValueError too, fails the test
                rows, _header, sweep = budgets._report(scn, target, {}, numpy)
            except ToolkitError:
                results.append(None)
            else:
                results.append((rows, np.asarray(sweep, float).tobytes()))
        assert results[0] == results[1], target


def test_array_micromotion_raises_when_any_charge_opens_the_well():
    trap = parse_scenario(bundled_scenario_text()).trap
    with pytest.raises(StabilityError):
        ion.micromotion_of_single_charge(trap, 200e-6, np.array([10.0, -1e9]))


def test_zero_charge_gives_positive_zero_micromotion():
    trap = parse_scenario(bundled_scenario_text()).trap
    scalar = ion.micromotion_of_single_charge(trap, 200e-6, 0.0)
    array = ion.micromotion_of_single_charge(trap, 200e-6, np.array([0.0, 10.0]))
    assert scalar == 0.0 and math.copysign(1.0, scalar) == 1.0
    assert math.copysign(1.0, array[0]) == 1.0
    assert array[1] == ion.micromotion_of_single_charge(trap, 200e-6, 10.0)


def test_bessel_j0_array_equals_scalar_calls_bit_for_bit():
    x = np.linspace(0.0, 20.0, 401)  # both branches: series below 8, Hankel from 8
    scalar = np.array([ion.bessel_j0(float(v)) for v in x])
    assert ion.bessel_j0(x).tobytes() == scalar.tobytes()
    assert ion.bessel_j0(-x).tobytes() == scalar.tobytes()


def test_decoherence_time_is_inf_at_zero_field_for_floats_and_arrays():
    cfg = parse_scenario(bundled_scenario_text()).rydberg
    assert ryd.decoherence_time(cfg, 0.0) == math.inf
    times = ryd.decoherence_time(cfg, np.array([0.0, 2.0]))
    assert times[0] == math.inf
    assert times[1] == ryd.decoherence_time(cfg, 2.0)
