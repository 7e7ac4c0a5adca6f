"""Each budget sweep, one array call or one call per grid point, equals the
scalar forward chain bit for bit, and both return the same list of float
tuples."""

import hashlib
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
from cavitycharge.errors import ParameterError, StabilityError, ToolkitError
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
    """Both sweep evaluations equal scalar calls of the forward chain, bit for
    bit, and return the same list of (x, y) float tuples."""
    scn = parse_scenario(text)
    for target in BUDGET_TARGETS:
        results = []
        for numpy in (np, None):
            rows, _header, sweep = budgets._report(scn, target, {}, numpy)
            upper, figure = _scalar_reference(scn, target, rows)
            grid = np.linspace(upper / SWEEP_POINTS, upper, SWEEP_POINTS)
            x, y = np.asarray(sweep, float).T
            assert len(sweep) == SWEEP_POINTS
            assert x.tobytes() == grid.tobytes(), target
            expected = np.array([figure(q) for q in grid])
            assert y.tobytes() == expected.tobytes(), target
            assert type(sweep) is list, target
            assert all(type(row) is tuple and list(map(type, row)) == [float, float]
                       for row in sweep), target
            results.append((rows, [(x.hex(), y.hex()) for x, y in sweep]))
        assert results[0] == results[1], target


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


# every key of the bundled [trap] and [charges] sections
_TRAP_AND_CHARGES = ("mass_amu", "secular_hz", "rf_hz", "cooling_wavelength_m",
                     "gate_wavelength_m", "cavity_wavelength_m", "gate_rabi_hz",
                     "q1_e", "q2_e", "xq_m")
# floors in (0, 1), the smallest float and the largest below 1 among them
_floor = st.one_of(st.sampled_from([5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0)]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=200)
@given(decades=st.lists(st.floats(-6.0, 6.0), min_size=len(_TRAP_AND_CHARGES),
                        max_size=len(_TRAP_AND_CHARGES)), floor=_floor)
def test_the_cooling_target_calls_j0_only_below_twice_its_first_zero(decades, floor):
    # each key at its bundled value times 10**u, u uniform in [-6, 6]: the
    # Newton root lies below j0,1, and beta(2 q) <= 2 beta(q), so neither the
    # budget nor its sweep reaches bessel_j0's bound of 8
    text = _scaled(bundled_scenario_text(),
                   {key: 10.0**u for key, u in zip(_TRAP_AND_CHARGES, decades)})
    scn = parse_scenario(text)
    results = []
    for path in (lambda: budget_report(scn, "cooling", intensity_floor=floor),
                 lambda: budgets._report(scn, "cooling", {"intensity_floor": floor}, None)):
        try:  # another toolkit error (the trap's checks, SearchError) is no J0 refusal
            rows, _header, sweep = path()
        except ToolkitError as exc:
            assert "J0" not in str(exc)
            results.append(None)
        else:
            results.append((rows, np.asarray(sweep, float).tobytes()))
    assert results[0] == results[1]
    if results[0] is None:
        return
    trap, x_q = scn.trap, scn.charges.xq_m
    q1 = {name: value for name, value, _unit in rows}["q1_max"]
    charges = np.array([q1, *np.asarray(sweep, float)[:, 0]])
    # the sweep's own unchecked chain, on the array of charges
    beta = 2.0 * math.pi * budgets._micromotion_of_charge(trap, x_q)(charges)
    beta /= trap.cooling_wavelength_m
    # the root is below j0,1; going to q1_max and back through the chain may
    # add an ulp, which doubles with the charge where b q << k_t
    rounding = 1.0 + 1e-12
    assert beta[0] <= ion.BESSEL_J0_FIRST_ZERO * rounding
    assert beta.max() < 2.0 * ion.BESSEL_J0_FIRST_ZERO * rounding


def test_the_unchecked_well_is_the_checked_one_element_by_element():
    # only the checked _well refuses a charge that opens the well; the sweep's
    # charges are positive, and never open it
    trap = parse_scenario(bundled_scenario_text()).trap
    mass_kg, _, _, k_t = ion._trap(trap)
    charges = np.array([0.0, 10.0, 1e6, 3.5e8])
    wells = ion._unchecked_well(mass_kg, k_t, es._expansion(charges, 0.0, 200e-6))
    for k, q in enumerate(charges.tolist()):
        checked = ion._well(mass_kg, k_t, es.expansion_coefficients(es.ChargeScenario(q, 0.0, 200e-6)))
        assert [float(array[k]).hex() for array in wells] == [v.hex() for v in checked]
    with pytest.raises(StabilityError):
        ion.micromotion_of_single_charge(trap, 200e-6, -1e9)


def test_zero_charge_gives_positive_zero_micromotion():
    trap = parse_scenario(bundled_scenario_text()).trap
    scalar = ion.micromotion_of_single_charge(trap, 200e-6, 0.0)
    array = budgets._micromotion_of_charge(trap, 200e-6)(np.array([0.0, 10.0]))
    assert scalar == 0.0 and math.copysign(1.0, scalar) == 1.0
    assert math.copysign(1.0, array[0]) == 1.0
    assert array[1] == ion.micromotion_of_single_charge(trap, 200e-6, 10.0)
    assert budgets._micromotion_of_charge(trap, 200e-6)(10.0) == array[1]


def _floats_around(x, n):
    """The 2n + 1 floats nearest x, x among them."""
    floats = [x]
    for _ in range(n):
        floats = [np.nextafter(floats[0], -np.inf), *floats, np.nextafter(floats[-1], np.inf)]
    return floats


# the first two zeros of J0, where the series sums to almost nothing
_J0_ZEROS = [*_floats_around(2.404825557695773, 3), *_floats_around(5.520078110286311, 3)]


@pytest.mark.parametrize("x", [
    np.linspace(0.0, 8.0, 401)[:-1],
    np.array([3.0]),
    np.linspace(0.01, 7.99, 200),
    np.array([0.5, np.nextafter(8.0, 0.0), 0.0, 7.0]),
    # each zero next to a larger element, whose series stops sooner
    np.array([_J0_ZEROS[3], 3.0]),
    np.array([*_J0_ZEROS, 7.9]),
], ids=["grid-below-8", "one", "all-below-8", "largest-below-8",
        "first-zero-next-to-3", "zeros-next-to-7.9"])
def test_the_array_j0_equals_scalar_calls_bit_for_bit(x):
    # the cooling sweep's J0 on NumPy's grid (_j0, which calls _j0_series_array)
    scalar = np.array([ion.bessel_j0(float(v)) for v in x])
    assert ion._j0(x).tobytes() == scalar.tobytes()
    assert ion._j0(-x).tobytes() == scalar.tobytes()


def test_j0_keeps_its_bits_on_a_dense_grid_below_8():
    # 8,000 points on [0, 8), both zeros' neighbours and the float below 8,
    # pinned by the sha256 of their bits: a change to the series shows here
    grid = np.array([*np.linspace(0.0, 8.0, 8001)[:-1], *_J0_ZEROS, np.nextafter(8.0, 0.0)])
    pinned = "03487da970b0e5d171119c06737292a4592119ba68888daaed8f5fc23bd301d5"
    scalar = np.array([ion.bessel_j0(float(v)) for v in grid])
    assert hashlib.sha256(scalar.tobytes()).hexdigest() == pinned
    assert ion._j0(grid).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("x, message", [
    (8.0, r"must have \|x\| < 8"),
    (-8.0, r"must have \|x\| < 8"),
    (12.0, r"must have \|x\| < 8"),
    (np.array([8.0]), "must be a real number"),
    (np.array([0.5]), "must be a real number"),
    (np.linspace(0.0, 20.0, 401), "must be a real number"),
], ids=["float-8", "float-minus-8", "float-12", "array-8", "array-below-8", "0-to-20"])
def test_bessel_j0_refuses_8_and_beyond_and_arrays_before_any_series_work(x, message,
                                                                          monkeypatch):
    def series(*args, **kwargs):
        raise AssertionError("the series ran on a refused argument")

    monkeypatch.setattr(ion, "_j0_series", series)
    monkeypatch.setattr(ion, "_j0_series_array", series)
    with pytest.raises(ParameterError, match=rf"^J0 argument {message}, got "):
        ion.bessel_j0(x)


def test_decoherence_time_is_inf_at_zero_field_for_floats_and_arrays():
    # the public function on a float, the sweep's unchecked formula on an array
    cfg = parse_scenario(bundled_scenario_text()).rydberg
    assert ryd.decoherence_time(cfg, 0.0) == math.inf
    with np.errstate(divide="ignore"):  # as budgets' array sweep runs it
        times = ryd._decoherence_time(cfg, np.array([0.0, 2.0]))
    assert times[0] == math.inf
    assert times[1] == ryd.decoherence_time(cfg, 2.0)
