"""Every plain-number argument the library requires positive is checked by
one rule (quantities.positive): a real number, not a bool, finite and > 0,
else ParameterError "<name> must be positive, got <value!r>". Its siblings
nonnegative and finite check the arguments that may be zero or of either
sign, and each interval option refuses what is not a real number."""

import math
import re
import warnings

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
    (cavity_optics.extinction_from_finesse, (15000.0, 14160.0, 30e-9, 1650e-9),
     {0: "finesse F00", 1: "finesse F01", 2: "film thickness", 3: "wavelength"}),
    (cavity_optics.excess_reflection_loss, (15000.0, 14160.0),
     {0: "finesse F00", 1: "finesse F01"}),
    (charging.equilibrium_charge, (1e5, 1e-12, 1e-6), {0: "resistance", 1: "capacitance"}),
    (charging.gaussian_clipping_factor, (1e-4, 2e-4), {0: "beam waist", 1: "x_Q"}),
    (charging.capacitance_breakdown, (125e-6, 2e-4), {0: "mirror radius", 1: "x_Q"}),
    (charging.transport_consistency, (1e26, 1e-3), {0: "carrier density", 1: "mobility"}),
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
def test_the_unchecked_charge_formulas_compute_each_element_of_an_array_as_a_float(bad):
    # what a sweep on NumPy's grid runs: a non-finite element stays its own,
    # for the sweep to report, and each element has a float call's bits
    charges = np.array([10.0, bad, -3.0])
    fields = electrostatics._single_charge_field(charges, 2e-4)
    expansion = electrostatics._expansion(charges, 1.5, 2e-4)
    for k, q in enumerate(charges.tolist()):
        assert fields[k].hex() == electrostatics._single_charge_field(q, 2e-4).hex()
        for array, value in zip(expansion, electrostatics._expansion(q, 1.5, 2e-4)):
            assert np.broadcast_to(array, charges.shape)[k].hex() == value.hex()
    assert electrostatics._single_charge_field(10.0, 2e-4) == (
        electrostatics.single_charge_field(10.0, 2e-4))


@pytest.mark.parametrize("field", [math.nan, math.inf, "1.0", True], ids=repr)
def test_charge_for_field_refuses_a_field_that_is_not_a_finite_number(field):
    with pytest.raises(ParameterError, match=r"^field must be a "):
        electrostatics.charge_for_field(field, 2e-4)


@pytest.mark.parametrize("x", [math.nan, 2e-4, -2e-4, math.inf, np.float64(3e-4)], ids=repr)
def test_a_nan_position_or_one_at_or_beyond_x_q_is_outside_the_model_domain(x):
    message = f"|x| = {abs(x)} m is outside the model domain |x| < 0.0002 m"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        electrostatics.field_at(electrostatics.ChargeScenario(10.0, 0.0, 2e-4), x)


# values that are not a real number, each with its repr in a refusal
NOT_A_NUMBER = ["1e-8", None, True, np.bool_(True), [1.0], 1j, np.array([0.0]), np.array(0.0)]


@pytest.mark.parametrize("x", NOT_A_NUMBER, ids=repr)
def test_a_position_that_is_not_a_real_number_is_a_parameter_error(x):
    message = f"position x must be a real number, got {x!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        electrostatics.field_at(electrostatics.ChargeScenario(10.0, 0.0, 2e-4), x)


@pytest.mark.parametrize("x", NOT_A_NUMBER + [math.nan, math.inf], ids=repr)
def test_a_micromotion_amplitude_that_is_not_a_finite_real_number_is_a_parameter_error(x):
    with pytest.raises(ParameterError, match="^micromotion amplitude must be a "):
        ion_impact.carrier_intensity_factor(x, 369e-9)


@pytest.mark.parametrize("v0", NOT_A_NUMBER + [math.nan, math.inf], ids=repr)
def test_a_ring_down_amplitude_that_is_not_a_finite_real_number_is_a_parameter_error(v0):
    message = f"v0 must be a finite real number, got {v0!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the refusal
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ringdown.synthesize_trace(v0, 5e3, 4e-4, 1e7)


# -- floats only: each public physics function that once took NumPy arrays ------------

def _illumination():
    from cavitycharge.reports import bundled_scenario_text
    from cavitycharge.scenario import parse_scenario

    return parse_scenario(bundled_scenario_text()).illumination


# function -> a call with x in the place of the real number it once took as an array
FLOATS_ONLY = {
    "ChargeScenario": lambda x: electrostatics.ChargeScenario(x, 0.0, 2e-4),
    "single_charge_field": lambda x: electrostatics.single_charge_field(x, 2e-4),
    "charge_for_field": lambda x: electrostatics.charge_for_field(x, 2e-4),
    "equilibrium_position": lambda x: ion_impact.equilibrium_position(
        TRAP, electrostatics.ChargeScenario(0.0, x, 2e-4)),
    "shifted_frequency": lambda x: ion_impact.shifted_frequency(
        TRAP, electrostatics.ChargeScenario(x, x, 2e-4)),
    "micromotion_of_single_charge": lambda x: ion_impact.micromotion_of_single_charge(
        TRAP, 2e-4, x),
    "micromotion_amplitude-x": lambda x: ion_impact.micromotion_amplitude(TRAP, x, 3e6),
    "micromotion_amplitude-omega": lambda x: ion_impact.micromotion_amplitude(TRAP, 1e-7, x),
    "bessel_j0": ion_impact.bessel_j0,
    "carrier_intensity_factor": lambda x: ion_impact.carrier_intensity_factor(x, 369e-9),
    "stark_shift": lambda x: rydberg_impact.stark_shift(RYDBERG, x),
    "dephasing": lambda x: rydberg_impact.dephasing(RYDBERG, x, 1e-6),
    "decoherence_time": lambda x: rydberg_impact.decoherence_time(RYDBERG, x),
    "blockade_infidelity": lambda x: rydberg_impact.blockade_infidelity(RYDBERG, x),
    "equilibrium_charge": lambda x: charging.equilibrium_charge(1.0, 1e-12, x),
    "photoelectron_flux": lambda x: charging.photoelectron_flux(_illumination(), x),
}


@pytest.mark.parametrize("function", sorted(FLOATS_ONLY))
@pytest.mark.parametrize("x", [np.array([1.0]), np.array(1.0), np.True_], ids=repr)
def test_a_public_physics_function_refuses_an_array_or_a_numpy_bool(function, x):
    with pytest.raises(ParameterError, match=f", got {re.escape(repr(x))}$"):
        FLOATS_ONLY[function](x)


@pytest.mark.parametrize("function", sorted(FLOATS_ONLY))
def test_a_public_physics_function_takes_a_float(function):
    assert math.isfinite(np.sum(FLOATS_ONLY[function](1e-8)))


@pytest.mark.parametrize("current", ["x", None, True, math.nan, math.inf, 1j, [1e-9]], ids=repr)
def test_equilibrium_charge_refuses_a_current_that_is_not_a_finite_real_number(current):
    # each raised a bare TypeError, read True as 1 A, or returned a NaN or complex charge
    message = f"current must be a finite real number, got {current!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        charging.equilibrium_charge(1.0, 1e-12, current)


@pytest.mark.parametrize("bad", ["x", None, True, math.nan, -math.inf, 1j], ids=repr)
@pytest.mark.parametrize("place, name", [(0, "displacement x~"), (1, "frequency omega~")],
                         ids=["x-tilde", "omega-tilde"])
def test_micromotion_amplitude_refuses_what_is_not_a_finite_real_number(bad, place, name):
    # each raised a bare TypeError, returned nan or read True as 1
    args = [1e-7, 3e6]
    args[place] = bad
    message = f"{name} must be a finite real number, got {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ion_impact.micromotion_amplitude(TRAP, *args)
