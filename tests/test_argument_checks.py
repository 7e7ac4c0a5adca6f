"""Every plain-number argument the library requires positive is checked by
one rule (quantities.positive): a real number, not a bool, finite and > 0,
else ParameterError "<name> must be positive, got <value!r>". Its siblings
nonnegative and finite check the arguments that may be zero or of either
sign, and each interval option refuses what is not a real number.

PUBLIC holds one valid call of every public callable. Each real-number
argument it names ends in a ToolkitError when it is not a finite real
number, and is computed as its float() when it is one of another type."""

import inspect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import cavitycharge
from cavitycharge import _data_path, cavity_optics, charging, electrostatics, film_optics
from cavitycharge import ion_impact, quantities, ringdown, rydberg_impact, scenario
from cavitycharge.errors import DomainError, ParameterError, SchemaError, ToolkitError
from cavitycharge.quantities import UncertainQuantity, finite, nonnegative, positive
from cavitycharge.reports import bundled_scenario_text
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
SCENARIO = scenario.parse_scenario(bundled_scenario_text())

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


# -- every public callable: a number ends in a float or a ToolkitError -------------


def _product(a, b):
    return a * b


TRACE = ringdown.synthesize_trace(1.0, 5e3, 4e-4, 1e7, 0.01)
FIT = ringdown.fit_ringdown(TRACE)
CHARGES = electrostatics.ChargeScenario(10.0, 0.0, 2e-4)
GATE = ion_impact.GateParams(1e4)
MIRROR = cavity_optics.MirrorState(0.99, 0.005)

# name -> (the callable, one valid call's arguments, the places of its real-number
# arguments: an index, or (index, index) inside a list argument). An optional key or
# argument that None leaves out has no place here.
PUBLIC = {
    "Constants": (quantities.Constants, (), ()),  # CODATA's record; no function takes one
    "UncertainQuantity": (UncertainQuantity, (1.0, 0.1), (0, 1)),
    "as_quantity": (quantities.as_quantity, (2.0,), (0,)),
    "finesse": (quantities.finesse, (523e3, 7.41e9), (0, 1)),
    "fsr_from_length": (quantities.fsr_from_length, (20.2e-3,), (0,)),
    "propagate_cubature": (quantities.propagate_cubature,
                           (_product, [UncertainQuantity(2.0, 0.1), 3.0]), ((1, 1),)),
    "propagate_linear": (quantities.propagate_linear,
                         (_product, [UncertainQuantity(2.0, 0.1), 3.0]), ((1, 1),)),
    "RingdownTrace": (ringdown.RingdownTrace, tuple(TRACE), ()),
    "RingdownFit": (ringdown.RingdownFit, (UncertainQuantity(1.0), 5e3, 0.01), (1, 2)),
    "fit_ringdown": (ringdown.fit_ringdown, (TRACE,), ()),
    "load_trace_csv": (ringdown.load_trace_csv, (_data_path("traces/ringdown_01.csv"),), ()),
    "pool_linewidths": (ringdown.pool_linewidths, ([FIT, FIT],), ()),
    "synthesize_trace": (ringdown.synthesize_trace, (1.0, 5e3, 4e-4, 1e7, 0.01),
                         (0, 1, 2, 3, 4)),
    "MirrorState": (cavity_optics.MirrorState, (0.99, 0.005), (0, 1)),
    "excess_reflection_loss": (cavity_optics.excess_reflection_loss, (15000.0, 14160.0), (0, 1)),
    "extinction_from_finesse": (cavity_optics.extinction_from_finesse,
                                (15000.0, 14160.0, 30e-9, 1650e-9), (0, 1, 2, 3)),
    "r0_from_symmetric_finesse": (cavity_optics.r0_from_symmetric_finesse, (15000.0,), (0,)),
    "r1_from_asymmetric_finesse": (cavity_optics.r1_from_asymmetric_finesse, (14160.0, R0),
                                   (0, 1)),
    "resonant_response": (cavity_optics.resonant_response, (MIRROR, MIRROR), ()),
    "drude_index": (film_optics.drude_index, (2e25, 37e-4, 1650e-9), (0, 1, 2)),
    "ChargeScenario": (electrostatics.ChargeScenario, (10.0, 0.0, 2e-4), (0, 1, 2)),
    "disc_point_ratios": (electrostatics.disc_point_ratios, (125e-6, 2e-4), (0, 1)),
    "expansion_coefficients": (electrostatics.expansion_coefficients, (CHARGES,), ()),
    "field_at": (electrostatics.field_at, (CHARGES, 1e-5), (1,)),
    "single_charge_field": (electrostatics.single_charge_field, (10.0, 2e-4), (0, 1)),
    "charge_for_field": (electrostatics.charge_for_field, (3.6, 2e-4), (0, 1)),
    "GateParams": (ion_impact.GateParams, (1e4, 0.013), (0, 1)),
    "bessel_j0": (ion_impact.bessel_j0, (1.5,), (0,)),
    "carrier_intensity_factor": (ion_impact.carrier_intensity_factor, (1e-8, 369e-9), (0, 1)),
    "equilibrium_position": (ion_impact.equilibrium_position, (TRAP, CHARGES), ()),
    "shifted_frequency": (ion_impact.shifted_frequency, (TRAP, CHARGES), ()),
    "gate_detuning_verdict": (ion_impact.gate_detuning_verdict, (TRAP, CHARGES, GATE), ()),
    "zero_point_spread": (ion_impact.zero_point_spread, (TRAP,), ()),
    "micromotion_amplitude": (ion_impact.micromotion_amplitude, (TRAP, 1e-7, 3e6), (1, 2)),
    "micromotion_of_single_charge": (ion_impact.micromotion_of_single_charge,
                                     (TRAP, 2e-4, 10.0), (1, 2)),
    "max_charge_for_cooling": (ion_impact.max_charge_for_cooling, (TRAP, 2e-4, 0.5), (1, 2)),
    "lamb_dicke_budget": (ion_impact.lamb_dicke_budget, (TRAP, 2e-4, 0.2), (1, 2)),
    "charge_for_displacement": (ion_impact.charge_for_displacement, (TRAP, 2e-4, 1e-7), (1, 2)),
    "max_equal_charge_for_gate": (ion_impact.max_equal_charge_for_gate, (TRAP, 2e-4, GATE),
                                  (1,)),
    "stark_shift": (rydberg_impact.stark_shift, (RYDBERG, 300.0), (1,)),
    "dephasing": (rydberg_impact.dephasing, (RYDBERG, 10.0, 1e-6), (1, 2)),
    "decoherence_time": (rydberg_impact.decoherence_time, (RYDBERG, 10.0), (1,)),
    "blockade_infidelity": (rydberg_impact.blockade_infidelity, (RYDBERG, 1e5), (1,)),
    "max_charge_for_infidelity": (rydberg_impact.max_charge_for_infidelity,
                                  (RYDBERG, 1e-3, 2e-4), (1, 2)),
    "charge_for_coherence_time": (rydberg_impact.charge_for_coherence_time,
                                  (RYDBERG, 5e-6, 2e-4), (1, 2)),
    "photocurrent": (charging.photocurrent, (SCENARIO.illumination,), ()),
    "photoelectron_flux": (charging.photoelectron_flux, (SCENARIO.illumination, 2e-4), (1,)),
    "film_resistance": (charging.film_resistance, (SCENARIO.film,), ()),
    "equilibrium_charge": (charging.equilibrium_charge, (1e5, 1e-12, 1e-6), (0, 1, 2)),
    "gaussian_clipping_factor": (charging.gaussian_clipping_factor, (1e-4, 2e-4), (0, 1)),
    "capacitance_breakdown": (charging.capacitance_breakdown, (125e-6, 2e-4, 0.1e-12),
                              (0, 1, 2)),
    "transport_consistency": (charging.transport_consistency, (1e26, 1e-3), (0, 1)),
    "Scenario": (scenario.Scenario, ("paper", SCENARIO.cavity), ()),
    "CavitySection": (scenario.CavitySection, (23340.0, 60.0, 1.65e-6, 7.41e9), (0, 1, 2)),
    "TrapSection": (TrapSection, tuple(TRAP)[:6], (0, 1, 2, 3, 4, 5)),
    "ChargesSection": (scenario.ChargesSection, (630.0, 630.0, 2e-4), (0, 1, 2)),
    "RydbergSection": (RydbergSection, (53.4e3, 5e6), (0, 1)),
    "FilmSection": (scenario.FilmSection, (1e-4, 30e-9, 1e-13), (0, 1, 2)),
    "IlluminationSection": (scenario.IlluminationSection, (2e-4, 369e-9, 1.0, 1e-4),
                            (0, 1, 2, 3)),
    "parse_scenario": (scenario.parse_scenario, (bundled_scenario_text(),), ()),
    "serialize_scenario": (scenario.serialize_scenario, (SCENARIO,), ()),
    "load_scenario": (scenario.load_scenario, (_data_path("paper_yb.scenario"),), ()),
}



def _public_names() -> set:
    """The package's exports that can be called, and the functions and checked
    records of the modules that take numbers."""
    modules = (quantities, ringdown, cavity_optics, film_optics, electrostatics, ion_impact,
               rydberg_impact, charging, scenario)
    return {name for name in cavitycharge.__all__ if callable(getattr(cavitycharge, name))} | {
        name for module in modules for name in module.__all__
        if inspect.isfunction(value := getattr(module, name)) or hasattr(value, "_checked")}


def test_every_public_callable_has_an_entry():
    assert set(PUBLIC) == _public_names()


def _with(args, place, value) -> list:
    """args with value at place, an index or (index, index)."""
    args = list(args)
    if isinstance(place, tuple):
        outer, inner = place
        args[outer] = [*args[outer][:inner], value, *args[outer][inner + 1:]]
    else:
        args[place] = value
    return args


def _at(args, place):
    return args[place[0]][place[1]] if isinstance(place, tuple) else args[place]


def _kinds(x: float) -> list:
    """x as each kind of real number a caller may pass: NumPy floats and
    integers, a Fraction and an int (clipped to the integer type's range)."""
    n = int(x)
    with np.errstate(over="ignore"):  # a float16 past 65504 is inf
        low = [np.float16(x), np.float32(x)]
    return [*low, np.float64(x), Fraction(x), n,
            np.int64(max(min(n, 2**62), -2**62)), np.uint8(max(min(n, 255), 0))]


def _bits(result):
    """Each number in result with its exact bits; a NumPy scalar fails."""
    if isinstance(result, np.generic):
        pytest.fail(f"a NumPy scalar in the result: {result!r}")
    if isinstance(result, float):
        return "float", result.hex()
    if isinstance(result, complex):
        return "complex", result.real.hex(), result.imag.hex()
    if isinstance(result, np.ndarray):
        return "array", result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, dict):
        return tuple((key, _bits(value)) for key, value in result.items())
    if isinstance(result, (tuple, list)):
        return type(result).__name__, tuple(map(_bits, result))
    assert result is None or isinstance(result, (bool, int, str)), type(result)
    return type(result).__name__, result


def _outcome(function, args):
    """The bits of function(*args), or the kind of ToolkitError or warning it raises."""
    try:
        return _bits(function(*args))
    except (ToolkitError, Warning) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_a_public_callable_takes_every_real_number_as_its_float(name):
    function, args, places = PUBLIC[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _bits(function(*args))  # the valid call returns no NumPy scalar
        for place in places:
            for bad in NOT_A_NUMBER + [math.nan, math.inf, -math.inf]:
                with pytest.raises(ToolkitError) as refusal:
                    function(*_with(args, place, bad))
                if isinstance(refusal.value, (ParameterError, SchemaError)):
                    assert repr(bad) in str(refusal.value), (place, bad)
            for x in _kinds(_at(args, place)):
                assert _outcome(function, _with(args, place, x)) == _outcome(
                    function, _with(args, place, float(x))), (place, x)


def test_a_charge_scenario_holds_floats():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a float32's range test
        s = electrostatics.ChargeScenario(np.float32(100.0), 0, Fraction(1, 5000))
    assert s == electrostatics.ChargeScenario(q1_e=100.0, q2_e=0.0, x_q_m=0.0002)
    assert set(map(type, s)) == {float}


@pytest.mark.parametrize("call", [
    lambda x: electrostatics.single_charge_field(x(100.0), 2e-4),
    lambda x: electrostatics.charge_for_field(x(3.6), 2e-4),
    lambda x: rydberg_impact.stark_shift(RYDBERG, x(300.0)),
    lambda x: rydberg_impact.decoherence_time(RYDBERG, x(10.0)),
], ids=["single_charge_field", "charge_for_field", "stark_shift", "decoherence_time"])
def test_a_float16_argument_is_computed_in_double_precision(call):
    # NumPy's promotion ran these in half precision: single_charge_field gave np.float16(nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = call(np.float16)
    assert type(value) is float and math.isfinite(value)
    assert value == call(lambda v: float(np.float16(v)))


@pytest.mark.parametrize("call, message", [
    (lambda bad: charging.capacitance_breakdown(125e-6, 2e-4, bad), "electrode capacitance"),
    (lambda bad: ringdown.RingdownFit(UncertainQuantity(1.0), LINEWIDTH, bad), "residual_rms"),
], ids=["electrode-capacitance", "residual-rms"])
@pytest.mark.parametrize("bad", ["1e-13", None, -1e-13, math.nan, math.inf], ids=repr)
def test_a_record_field_that_was_stored_unchecked_is_finite_and_nonnegative(call, message, bad):
    # each was stored as given, a str or None included
    message = f"{message} must be finite and >= 0, got {bad!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("seed", ["1", 1j, math.nan, 1.5, -1, None, True, [1], np.int64(-3)],
                         ids=repr)
def test_synthesize_trace_refuses_a_seed_that_is_not_an_int_at_least_0(seed):
    # "1", 1j, nan and 1.5 raised NumPy's TypeError and -1 its ValueError; None drew a
    # fresh trace on every call, True and [1] were taken
    message = f"seed must be an int >= 0, got {seed!r}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ringdown.synthesize_trace(1.0, 5e3, 4e-4, 1e7, 0.01, seed)


def test_synthesize_trace_takes_a_numpy_integer_seed_as_its_int():
    one = ringdown.synthesize_trace(1.0, 5e3, 4e-4, 1e7, 0.01, np.int64(3))
    two = ringdown.synthesize_trace(1.0, 5e3, 4e-4, 1e7, 0.01, 3)
    assert one.voltages.tobytes() == two.voltages.tobytes()


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
