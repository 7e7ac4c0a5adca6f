"""Every plain-number argument the library requires positive is checked by
one rule (quantities.positive): a real number, not a bool, finite and > 0,
else ParameterError "<name> must be positive, got <value!r>". Its siblings
nonnegative and finite check the arguments that may be zero or of either
sign, and each interval option refuses what is not a real number."""

import math
import re

import numpy as np
import pytest

from cavitycharge import cavity_optics, charging, electrostatics, film_optics, ion_impact
from cavitycharge import ringdown, rydberg_impact
from cavitycharge.errors import DomainError, ParameterError
from cavitycharge.quantities import UncertainQuantity, finite, nonnegative, positive
from cavitycharge.scenario import RydbergSection, TrapSection

TRAP = TrapSection(
    mass_amu=171.0,
    secular_hz=500e3,
    rf_hz=30e6,
    cooling_wavelength_m=369e-9,
    gate_wavelength_m=355e-9,
    cavity_wavelength_m=1650e-9,
)
RYDBERG = RydbergSection(alpha=53.4e3, rabi_hz=5e6)
R0 = cavity_optics.r0_from_symmetric_finesse(15000.0).value
LINEWIDTH = UncertainQuantity(523e3, 9e3)

# (function, valid arguments, {index of a checked argument: its name in the message})
CHECKED = [
    (cavity_optics.r0_from_symmetric_finesse, (15000.0,), {0: "finesse F00"}),
    (cavity_optics.r1_from_asymmetric_finesse, (14160.0, R0), {0: "finesse F01"}),
    (cavity_optics.extinction_from_reflectivities, (R0, 0.9997, 30e-9, 1650e-9),
     {2: "film thickness", 3: "wavelength"}),
    (cavity_optics.extinction_from_finesse, (15000.0, 14160.0, 30e-9, 1650e-9),
     {0: "finesse F00", 1: "finesse F01", 2: "film thickness", 3: "wavelength"}),
    (cavity_optics.excess_reflection_loss, (15000.0, 14160.0),
     {0: "finesse F00", 1: "finesse F01"}),
    (charging.equilibrium_charge, (1e5, 1e-12, 1e-6), {0: "resistance", 1: "capacitance"}),
    (charging.gaussian_clipping_factor, (1e-4, 2e-4), {0: "beam waist", 1: "x_Q"}),
    (charging.capacitance_breakdown, (125e-6, 2e-4), {0: "mirror radius", 1: "x_Q"}),
    (charging.transport_consistency, (1e-4, 1e26, 1e-3),
     {0: "resistivity", 1: "carrier density", 2: "mobility"}),
    (electrostatics.ChargeScenario, (1.0, 0.0, 2e-4), {2: "x_Q"}),
    (electrostatics.disc_point_ratios, (125e-6, 2e-4), {0: "radius", 1: "distance"}),
    (electrostatics.single_charge_field, (10.0, 2e-4), {1: "x_Q"}),
    (electrostatics.charge_for_field, (1.0, 2e-4), {1: "x_Q"}),
    (film_optics.drude_index, (2e25, 37e-4, 1650e-9),
     {0: "carrier density", 1: "mobility", 2: "wavelength"}),
    (ion_impact.GateParams, (1e4, 0.013), {0: "Rabi rate", 1: "threshold ratio"}),
    (ion_impact.carrier_intensity_factor, (1e-8, 369e-9), {1: "cooling wavelength"}),
    (ion_impact.lamb_dicke_budget, (TRAP, 2e-4, 0.2), {1: "x_Q", 2: "modulation limit"}),
    (ion_impact.max_charge_for_cooling, (TRAP, 2e-4, 0.5), {1: "x_Q"}),
    (ion_impact.charge_for_displacement, (TRAP, 2e-4, 1e-7), {1: "x_Q"}),
    (ion_impact.max_equal_charge_for_gate, (TRAP, 2e-4, ion_impact.GateParams(1e4)), {1: "x_Q"}),
    (ringdown.synthesize_trace, (1.0, 5e3, 4e-4, 1e7),
     {1: "linewidth", 2: "duration", 3: "sample rate"}),
    (ringdown.finesse, (LINEWIDTH, 7.41e9), {0: "linewidth", 1: "FSR"}),
    (ringdown.fsr_from_length, (20.2e-3,), {0: "cavity length"}),
    (ringdown.RingdownFit, (UncertainQuantity(1.0), LINEWIDTH, 0.01), {1: "fitted linewidth"}),
    (rydberg_impact.charge_for_coherence_time, (RYDBERG, 5e-6, 2e-4), {1: "tau_pi", 2: "x_Q"}),
    (rydberg_impact.max_charge_for_infidelity, (RYDBERG, 1e-3, 2e-4), {2: "x_Q"}),
]

# 10**400 is past the float range: float() of it raises OverflowError
BAD = [math.nan, math.inf, 0.0, -1.0, "1", True, 10**400]

CASES = [
    pytest.param(f, args, index, name, bad, id=f"{f.__name__}-{name}-{bad!r:.12}")
    for f, args, names in CHECKED
    for index, name in names.items()
    for bad in BAD
]


@pytest.mark.parametrize("f, args, index, name, bad", CASES)
def test_a_positive_argument_refuses_nan_inf_nonpositive_str_and_bool(f, args, index, name, bad):
    args = list(args)
    args[index] = bad
    message = f"{name} must be positive, got {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        f(*args)


def test_positive_returns_its_value_and_reads_a_quantity_by_its_value():
    q = UncertainQuantity(2.0, 5.0)
    assert positive("x", q) is q
    assert positive("x", 3) == 3
    with pytest.raises(ParameterError, match=r"^x must be positive, got -2\.0$"):
        positive("x", UncertainQuantity(-2.0, 0.1))


@pytest.mark.parametrize("args, message", [
    ((10**400,), "value must be a finite real number"),
    ((-10**400,), "value must be a finite real number"),
    ((1.0, 10**400), "sigma must be finite and >= 0"),
], ids=["value", "negative-value", "sigma"])
def test_a_quantity_refuses_an_int_past_the_float_range(args, message):
    with pytest.raises(ParameterError, match=f"^{message}, got {args[-1]!r}$"):
        UncertainQuantity(*args)


@pytest.mark.parametrize("sigma", [math.nan, -1.0, -math.inf, math.inf, 10**400, "0.1", True],
                         ids=lambda bad: f"{bad!r:.12}")
def test_noise_sigma_is_finite_and_nonnegative(sigma):
    message = f"noise_sigma must be finite and >= 0, got {sigma!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ringdown.synthesize_trace(1.0, 5e3, 4e-4, 1e7, noise_sigma=sigma)


@pytest.mark.parametrize("tau", [math.nan, -1e-6, math.inf, 10**400, "1e-6", True],
                         ids=lambda bad: f"{bad!r:.12}")
def test_dephasing_duration_is_finite_and_nonnegative(tau):
    message = f"duration must be finite and >= 0, got {tau!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        rydberg_impact.dephasing(RYDBERG, 1.0, tau)
    assert rydberg_impact.dephasing(RYDBERG, 1.0, 0.0) == 0.0


@pytest.mark.parametrize("check, bad, message", [
    (nonnegative, bad, "x must be finite and >= 0")
    for bad in (math.nan, math.inf, -1e-300, "1", True, 10**400)
] + [
    (finite, bad, "x must be a finite real number")
    for bad in (math.nan, math.inf, -math.inf, "1", True, 10**400, -10**400)
], ids=lambda v: v.__name__ if callable(v) else None)
def test_nonnegative_and_finite_refuse_what_is_outside_their_range(check, bad, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{message}, got {bad!r}')}$"):
        check("x", bad)


def test_nonnegative_and_finite_return_their_value():
    assert nonnegative("x", 0) == 0 and nonnegative("x", 2.5) == 2.5
    assert finite("x", -3) == -3 and finite("x", 2.5) == 2.5


# (call with one interval option replaced by bad, the start of its message)
INTERVAL_OPTIONS = [
    (lambda bad: ion_impact.max_charge_for_cooling(TRAP, 2e-4, bad),
     "intensity floor must be in (0,1), got "),
    (lambda bad: rydberg_impact.max_charge_for_infidelity(RYDBERG, bad, 2e-4),
     "target infidelity must be in (0, 0.5), got "),
    (lambda bad: ion_impact.charge_for_displacement(TRAP, 2e-4, bad),
     "displacement "),
]


@pytest.mark.parametrize("call, message", INTERVAL_OPTIONS,
                         ids=["intensity-floor", "target-infidelity", "displacement"])
@pytest.mark.parametrize("bad", ["0.01", None], ids=repr)
def test_an_interval_option_refuses_what_is_not_a_real_number(call, message, bad):
    with pytest.raises(ParameterError, match=f"^{re.escape(message + repr(bad))}"):
        call(bad)


# -- non-finite charges, fields and positions ------------------------------------


@pytest.mark.parametrize("q1", [math.nan, math.inf, -math.inf, 10**400], ids=repr)
def test_a_scalar_charge_is_finite(q1):
    message = f"charge q1_e must be a finite real number, got {q1!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        electrostatics.ChargeScenario(q1, 0.0, 2e-4)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        electrostatics.single_charge_field(q1, 2e-4)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_every_element_of_a_charge_array_is_finite(bad):
    with pytest.raises(ParameterError, match=f"^charge q2_e must be finite, got an array "
                                             f"holding {bad!r}$"):
        electrostatics.ChargeScenario(0.0, np.array([10.0, bad]), 2e-4)
    with pytest.raises(ParameterError, match="^charge q1_e must be finite"):
        electrostatics.single_charge_field(np.array([bad, 10.0]), 2e-4)


@pytest.mark.parametrize("field", [math.nan, math.inf, "1.0", True], ids=repr)
def test_charge_for_field_refuses_a_field_that_is_not_a_finite_number(field):
    with pytest.raises(ParameterError, match=r"^field must be a "):
        electrostatics.charge_for_field(field, 2e-4)


@pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan])], ids=["scalar", "array"])
def test_a_nan_position_is_outside_the_model_domain(x):
    with pytest.raises(DomainError, match=r"^\|x\| = nan m is outside the model domain"):
        electrostatics.field_at(electrostatics.ChargeScenario(10.0, 0.0, 2e-4), x)
