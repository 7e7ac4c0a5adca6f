import math

import mpmath
import numpy as np
import pytest
from scipy import constants as sc

from cavitycharge import ion_impact
from cavitycharge.electrostatics import ChargeScenario
from cavitycharge.errors import ParameterError, SchemaError, SearchError, StabilityError
from cavitycharge.ion_impact import (
    BESSEL_J0_FIRST_ZERO,
    CHARGE_SEARCH_MAX_E,
    CoolingBudget,
    GateParams,
    bessel_j0,
    carrier_intensity_factor,
    charge_for_displacement,
    equilibrium_position,
    gate_detuning_verdict,
    lamb_dicke_budget,
    max_charge_for_cooling,
    max_equal_charge_for_gate,
    micromotion_amplitude,
    micromotion_of_single_charge,
    shifted_frequency,
    zero_point_spread,
)
from cavitycharge.ion_impact import _charge_for_micromotion
from cavitycharge.reports import bundled_scenario
from cavitycharge.scenario import TrapSection

mpmath.mp.dps = 50

X_Q = 200e-6


@pytest.fixture(scope="module")
def trap():
    return TrapSection(
        mass_amu=171.0,
        secular_hz=500e3,
        rf_hz=30e6,
        cooling_wavelength_m=369e-9,
        gate_wavelength_m=355e-9,
        cavity_wavelength_m=1650e-9,
    )


def omega_x(trap):
    return 2.0 * math.pi * trap.secular_hz


def exact_chain(trap, q1, q2=0.0):
    """Independent arithmetic oracle for the displacement chain."""
    amu = sc.physical_constants["atomic mass constant"][0]
    k_e = 1.0 / (4.0 * math.pi * sc.epsilon_0)
    m = trap.mass_amu * amu
    w_x = 2.0 * math.pi * trap.secular_hz
    k_t = 0.5 * m * w_x**2
    s_q = sc.e * k_e
    a = (q2 - q1) * sc.e / X_Q**2
    b = (q1 + q2) * sc.e / X_Q**3
    x_t = -0.5 * s_q * a / (k_t + s_q * b)
    w_t = math.sqrt(2.0 * (k_t + s_q * b) / m)
    x_um = math.sqrt(2.0) * w_t / (2.0 * math.pi * trap.rf_hz) * x_t
    return x_t, w_t, x_um


# -- Bessel J0 ---------------------------------------------------------------


def series_j0(x, terms=60):
    """60-term power series at extended precision."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(terms):
        total += (-1) ** k * (x / 2) ** (2 * k) / mpmath.factorial(k) ** 2
    return float(total)


# bessel_j0's domain |x| < 8, from 0 to the largest float below 8
BELOW_8 = [*np.linspace(0.0, 8.0, 401)[:-1].tolist(), math.nextafter(8.0, 0.0)]


def test_bessel_j0_against_series_oracle():
    # the series is summed in floats; 1.2e-14 is the worst on this grid, and
    # 1.8e-14 on 8,000 points over [0, 8) against mpmath's J0
    worst = max(abs(bessel_j0(x) - series_j0(x)) for x in BELOW_8)
    assert worst < 2e-14


def test_bessel_j0_basics():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(2.404826)) < 1e-6
    assert abs(bessel_j0(BESSEL_J0_FIRST_ZERO)) < 1e-12
    for x in (0.3, 1.7, 7.99, math.nextafter(8.0, 0.0)):
        assert bessel_j0(-x) == bessel_j0(x)
        assert abs(bessel_j0(x)) <= 1.0


def test_bessel_sum_rule():
    # J0^2 + 2 sum_k Jk^2 = 1, with the k >= 1 terms from an independent
    # extended-precision series
    for x in [*np.linspace(0.0, 8.0, 17)[:-1].tolist(), math.nextafter(8.0, 0.0)]:
        tail = sum(float(mpmath.besselj(k, x)) ** 2 for k in range(1, 40))
        assert bessel_j0(x) ** 2 + 2.0 * tail == pytest.approx(1.0, abs=1e-8)


def test_bessel_j0_rejects_nonfinite():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match=rf"^J0 argument must have \|x\| < 8, got {x}$"):
            bessel_j0(x)


@pytest.mark.parametrize("x", [13.5, 20.0, 8, -8, 10**400, np.float64(8.0), np.float32(-9.0)],
                         ids=lambda x: f"{type(x).__name__}-{x!r:.12}")
def test_bessel_j0_refuses_a_number_at_or_beyond_8(x):
    with pytest.raises(ParameterError, match=r"^J0 argument must have \|x\| < 8, got "):
        bessel_j0(x)


@pytest.mark.parametrize("x", [True, False, np.bool_(True), "3", None, [1.0], 1j,
                               np.array([True]), np.array([1j]), np.array(["3"])],
                         ids=lambda x: f"{type(x).__name__}-{x!r:.12}")
def test_bessel_j0_refuses_what_is_not_a_real_number(x):
    with pytest.raises(ParameterError, match="^J0 argument must be a real number, got "):
        bessel_j0(x)


@pytest.mark.parametrize("x", [np.float64(3.0), np.float32(3.0), np.int64(3), 3,
                               np.float16(3.0), np.uint8(3)],
                         ids=lambda x: type(x).__name__)
def test_bessel_j0_of_a_numpy_or_int_scalar_is_the_float_calls(x):
    assert type(bessel_j0(x)) is float
    assert bessel_j0(x) == bessel_j0(3.0)


# -- equilibrium, frequency shift, micromotion --------------------------------


def test_equilibrium_matches_reference_and_oracle(trap):
    s = ChargeScenario(1400.0, 0.0, X_Q)
    x_t = equilibrium_position(trap, s)
    assert x_t == pytest.approx(exact_chain(trap, 1400.0)[0], rel=1e-12, abs=0.0)
    assert x_t == pytest.approx(2.8e-6, rel=0.05, abs=0.0)


def test_equilibrium_coupling_displacement(trap):
    x_t = equilibrium_position(trap, ChargeScenario(100.0, 0.0, X_Q))
    assert x_t == pytest.approx(trap.cavity_wavelength_m / 8.0, rel=0.05, abs=0.0)


def test_equilibrium_symmetric_charges_stay_centered(trap):
    assert equilibrium_position(trap, ChargeScenario(77.0, 77.0, X_Q)) == 0.0


def test_equilibrium_odd_under_charge_exchange(trap):
    a = equilibrium_position(trap, ChargeScenario(300.0, 20.0, X_Q))
    b = equilibrium_position(trap, ChargeScenario(20.0, 300.0, X_Q))
    assert a == pytest.approx(-b, rel=1e-12, abs=0.0)


def test_shifted_frequency_cases(trap):
    assert shifted_frequency(trap, ChargeScenario(0.0, 0.0, X_Q)) == pytest.approx(
        omega_x(trap), rel=1e-14
    )
    # equal charges at the gate-analysis scale
    w_t = shifted_frequency(trap, ChargeScenario(630.0, 630.0, X_Q))
    shift = (w_t - omega_x(trap)) / omega_x(trap)
    oracle = exact_chain(trap, 630.0, 630.0)[1]
    assert w_t == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert shift == pytest.approx(0.013, abs=0.001)
    # weak negative charge softens the well
    w_neg = shifted_frequency(trap, ChargeScenario(-40.0, -40.0, X_Q))
    assert w_neg < omega_x(trap)


def test_shifted_frequency_depends_only_on_total_charge(trap):
    w_a = shifted_frequency(trap, ChargeScenario(500.0, 100.0, X_Q))
    w_b = shifted_frequency(trap, ChargeScenario(250.0, 350.0, X_Q))
    assert w_a == pytest.approx(w_b, rel=1e-14, abs=0.0)


def test_stability_error_for_strong_negative_charge(trap):
    with pytest.raises(StabilityError):
        shifted_frequency(trap, ChargeScenario(-4e7, -4e7, X_Q))


def test_micromotion_amplitude(trap):
    s = ChargeScenario(1400.0, 0.0, X_Q)
    x_t = equilibrium_position(trap, s)
    w_t = shifted_frequency(trap, s)
    x_um = micromotion_amplitude(trap, x_t, w_t)
    assert x_um == pytest.approx(exact_chain(trap, 1400.0)[2], rel=1e-12, abs=0.0)
    assert x_um == pytest.approx(66e-9, rel=0.05, abs=0.0)
    assert micromotion_amplitude(trap, 0.0, w_t) == 0.0
    # displacement at the gate budget scale
    assert micromotion_amplitude(trap, 0.47e-6, omega_x(trap)) == pytest.approx(
        11e-9, rel=0.10
    )


# -- carrier intensity and cooling budget -------------------------------------


def test_carrier_intensity_factor_cases(trap):
    assert carrier_intensity_factor(0.0, 369e-9) == 1.0
    x_um = exact_chain(trap, 1400.0)[2]
    assert carrier_intensity_factor(x_um, 369e-9) == pytest.approx(0.5, rel=0.03, abs=0.0)
    x_zero = BESSEL_J0_FIRST_ZERO * 369e-9 / (2.0 * math.pi)
    assert carrier_intensity_factor(x_zero, 369e-9) < 1e-20
    rng = np.random.default_rng(1)
    x_8 = 8.0 * 369e-9 / (2.0 * math.pi)  # beta = 8
    for x in rng.uniform(0, x_8, 30):
        assert 0.0 <= carrier_intensity_factor(x, 369e-9) <= 1.0
    # bessel_j0's domain: beta >= 8 is refused
    for x in (x_8 * (1.0 + 1e-12), 1e-6, -1e-6):
        with pytest.raises(ParameterError, match=r"^J0 argument must have \|x\| < 8"):
            carrier_intensity_factor(x, 369e-9)


def test_cooling_budget_reproduces_reference(trap):
    budget = max_charge_for_cooling(trap, X_Q, 0.5)
    assert isinstance(budget, CoolingBudget)
    assert budget.q1_e == pytest.approx(1400.0, rel=0.05, abs=0.0)
    assert budget.field_v_per_m == pytest.approx(49.0, rel=0.05, abs=0.0)
    assert budget.x_tilde_m == pytest.approx(2.8e-6, rel=0.05, abs=0.0)


def test_cooling_budget_back_substitution(trap):
    budget = max_charge_for_cooling(trap, X_Q, 0.5)
    x_um = micromotion_of_single_charge(trap, X_Q, budget.q1_e)
    assert carrier_intensity_factor(x_um, trap.cooling_wavelength_m) == pytest.approx(
        0.5, abs=1e-5
    )


def test_cooling_budget_tight_floor_gives_tiny_charge(trap):
    budget = max_charge_for_cooling(trap, X_Q, 1.0 - 1e-9)
    assert budget.q1_e < 0.5


def test_cooling_budget_validation(trap):
    with pytest.raises(ParameterError):
        max_charge_for_cooling(trap, X_Q, 1.5)


# the bundled trap and three scaled ones, with their x_Q
_TRAP = bundled_scenario()._require("trap")
_X_Q = bundled_scenario()._require("charges").xq_m
COOLING_TRAPS = [
    (_TRAP, _X_Q),
    (_TRAP._replace(secular_hz=0.8 * _TRAP.secular_hz), 1.25 * _X_Q),
    (_TRAP._replace(secular_hz=1.25 * _TRAP.secular_hz), 0.8 * _X_Q),
    (_TRAP._replace(rf_hz=2.0 * _TRAP.rf_hz, mass_amu=0.25 * _TRAP.mass_amu), _X_Q),
]


# 60 log-spaced floors from 1e-6 to 0.99, and the floors the report and
# the benchmark use
BRACKET_FLOORS = sorted([*np.logspace(-6.0, math.log10(0.99), 60).tolist(), 0.1, 0.5, 0.9])


@pytest.mark.parametrize("trap, x_q", COOLING_TRAPS,
                         ids=["bundled", "soft-far", "stiff-near", "light-fast-rf"])
def test_cooling_budget_brackets_the_floor(trap, x_q):
    # beta is exact, so the forward model at q1 (1 -/+ 1e-10) lies on either
    # side of the floor (the benchmark's budget check allows 2e-6)
    def factor(q):
        x_um = micromotion_of_single_charge(trap, x_q, q)
        return carrier_intensity_factor(x_um, trap.cooling_wavelength_m)

    missed = []
    for floor in BRACKET_FLOORS:
        q1 = max_charge_for_cooling(trap, x_q, floor).q1_e
        if not factor(q1 * (1.0 + 1e-10)) <= floor <= factor(q1 * (1.0 - 1e-10)):
            missed.append(floor)
    assert missed == []


def test_cooling_budget_makes_at_most_eight_series_evaluations(monkeypatch):
    calls = []
    series = ion_impact._j0_series

    def counted(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(ion_impact, "_j0_series", counted)
    most = 0
    for floor in np.logspace(-12.0, math.log10(1.0 - 1e-12), 61).tolist():
        calls.clear()
        max_charge_for_cooling(_TRAP, _X_Q, floor)
        most = max(most, len(calls))
    assert most <= 8


def test_cooling_budget_unreachable_floor():
    # a huge RF frequency keeps micromotion negligible at any charge
    stiff = TrapSection(171.0, 500e3, 1e15, 369e-9, 355e-9, 1650e-9)
    with pytest.raises(SearchError):
        max_charge_for_cooling(stiff, X_Q, 0.5)


# -- Lamb-Dicke budget ---------------------------------------------------------


def test_lamb_dicke_budget_reproduces_reference(trap):
    budget = lamb_dicke_budget(trap, X_Q, 0.2)
    assert budget.q1_max_e == pytest.approx(230.0, rel=0.05, abs=0.0)
    assert budget.field_v_per_m == pytest.approx(8.2, rel=0.05, abs=0.0)
    assert budget.x_tilde_max_m == pytest.approx(0.47e-6, rel=0.05, abs=0.0)
    assert budget.x_micromotion_max_m == pytest.approx(11e-9, rel=0.10, abs=0.0)


def test_lamb_dicke_back_substitution(trap):
    budget = lamb_dicke_budget(trap, X_Q, 0.2)
    x_um = micromotion_of_single_charge(trap, X_Q, budget.q1_max_e)
    assert x_um == pytest.approx(budget.x_micromotion_max_m, rel=1e-12, abs=0.0)


def test_lamb_dicke_limit_scalings(trap):
    small = lamb_dicke_budget(trap, X_Q, 1e-6)
    assert small.q1_max_e < 0.01
    assert small.x_tilde_max_m < 1e-11
    a = lamb_dicke_budget(trap, X_Q, 0.1)
    b = lamb_dicke_budget(trap, X_Q, 0.2)
    assert b.x_micromotion_max_m == pytest.approx(2 * a.x_micromotion_max_m, rel=1e-9, abs=0.0)


def test_charge_for_displacement_inverse(trap):
    for q1 in (50.0, 100.0, 700.0):
        x_t = equilibrium_position(trap, ChargeScenario(q1, 0.0, X_Q))
        assert charge_for_displacement(trap, X_Q, x_t) == pytest.approx(q1, rel=1e-10, abs=0.0)
    assert charge_for_displacement(trap, X_Q, 0.0) == 0.0
    with pytest.raises(ParameterError):
        charge_for_displacement(trap, X_Q, 0.6 * X_Q)


def test_charge_for_micromotion_inverse(trap):
    for q1 in (1.0, 50.0, 700.0, 1e6):
        x_um = micromotion_of_single_charge(trap, X_Q, q1)
        assert _charge_for_micromotion(trap, X_Q, x_um) == pytest.approx(q1, rel=1e-12, abs=0.0)
    assert _charge_for_micromotion(trap, X_Q, 0.0) == 0.0
    with pytest.raises(ParameterError, match="x_Q must be positive"):
        _charge_for_micromotion(trap, 0.0, 1e-8)
    x_beyond = micromotion_of_single_charge(trap, X_Q, 2.0 * CHARGE_SEARCH_MAX_E)
    with pytest.raises(SearchError):
        _charge_for_micromotion(trap, X_Q, x_beyond)


# -- zero-point spread ---------------------------------------------------------


def test_zero_point_spread(trap):
    spread = zero_point_spread(trap)
    assert spread == pytest.approx(8e-9, rel=0.05, abs=0.0)
    assert spread == pytest.approx(
        math.sqrt(sc.hbar / (2.0 * trap.mass_amu * sc.atomic_mass * omega_x(trap))), rel=1e-8
    )
    assert zero_point_spread(trap._replace(mass_amu=4 * trap.mass_amu)) == pytest.approx(
        spread / 2, rel=1e-12
    )
    assert zero_point_spread(trap._replace(secular_hz=4 * trap.secular_hz)) == pytest.approx(
        spread / 2, rel=1e-12
    )


# -- gate detuning --------------------------------------------------------------


def test_gate_verdict_no_charge(trap):
    gate = GateParams(rabi_hz=10e3)
    v = gate_detuning_verdict(trap, ChargeScenario(0.0, 0.0, X_Q), gate)
    assert v.delta_x_rad_s == 0.0
    assert v.within_threshold


def test_gate_verdict_at_printed_charge(trap):
    gate = GateParams(rabi_hz=10e3)
    v = gate_detuning_verdict(trap, ChargeScenario(630.0, 630.0, X_Q), gate)
    assert v.ratio_rabi == pytest.approx(0.65, rel=0.02, abs=0.0)
    assert v.ratio_secular == pytest.approx(0.013, abs=0.001)
    assert not v.within_threshold


def test_gate_verdict_small_equal_charges(trap):
    gate = GateParams(rabi_hz=10e3)
    v = gate_detuning_verdict(trap, ChargeScenario(12.0, 12.0, X_Q), gate)
    assert v.ratio_rabi < 0.013
    assert v.within_threshold


def test_gate_bound_charge(trap):
    gate = GateParams(rabi_hz=10e3)
    bound = max_equal_charge_for_gate(trap, X_Q, gate)
    assert bound == pytest.approx(13.0, rel=0.10, abs=0.0)
    v = gate_detuning_verdict(trap, ChargeScenario(bound, bound, X_Q), gate)
    assert v.ratio_rabi == pytest.approx(gate.threshold_ratio, rel=1e-9, abs=0.0)


def test_budget_inversions_back_substitute(trap):
    gate = GateParams(rabi_hz=10e3)
    bound = max_equal_charge_for_gate(trap, X_Q, gate)
    v = gate_detuning_verdict(trap, ChargeScenario(bound, bound, X_Q), gate)
    assert abs(v.ratio_rabi - gate.threshold_ratio) < 1e-5 * gate.threshold_ratio


# -- trap and gate validation, by the functions that read them -----------------

# every function that reads the trap, with the other arguments of one call
TRAP_READERS = {
    "equilibrium_position": lambda t: equilibrium_position(t, ChargeScenario(1.0, 0.0, X_Q)),
    "shifted_frequency": lambda t: shifted_frequency(t, ChargeScenario(1.0, 0.0, X_Q)),
    "micromotion_amplitude": lambda t: micromotion_amplitude(t, 1e-7, 1e6),
    "micromotion_of_single_charge": lambda t: micromotion_of_single_charge(t, X_Q, 1.0),
    "max_charge_for_cooling": lambda t: max_charge_for_cooling(t, X_Q, 0.5),
    "lamb_dicke_budget": lambda t: lamb_dicke_budget(t, X_Q, 0.2),
    "charge_for_displacement": lambda t: charge_for_displacement(t, X_Q, 1e-7),
    "zero_point_spread": zero_point_spread,
    "gate_detuning_verdict": lambda t: gate_detuning_verdict(
        t, ChargeScenario(1.0, 1.0, X_Q), GateParams(10e3)),
    "max_equal_charge_for_gate": lambda t: max_equal_charge_for_gate(t, X_Q, GateParams(10e3)),
}


def test_trap_config_validation():
    for call in TRAP_READERS.values():
        with pytest.raises(ParameterError,
                           match=r"RF drive \(400000.0 Hz\) must exceed the secular"):
            call(TrapSection(171.0, 500e3, 400e3, 369e-9, 355e-9, 1650e-9))  # RF below secular
    # a mass <= 0 is refused when the section is built, before any reader sees it
    with pytest.raises(SchemaError, match=r"^key 'mass_amu' in \[trap\] must be > 0, got -1.0$"):
        TrapSection(-1.0, 500e3, 30e6, 369e-9, 355e-9, 1650e-9)


@pytest.mark.parametrize("mass_amu, secular_hz", [
    (1e-300, 500e3),   # m omega_x^2 / 2 underflows to 0
    (171.0, 1e-300),
    (1e300, 1e200),    # omega_x**2 overflows
])
def test_trap_curvature_must_be_positive_and_finite_in_si_units(mass_amu, secular_hz):
    trap = TrapSection(mass_amu, secular_hz, 1e250, 369e-9, 355e-9, 1650e-9)
    for call in TRAP_READERS.values():
        with pytest.raises(ParameterError, match="trap curvature") as info:
            call(trap)
        assert f"mass {mass_amu} amu" in str(info.value)
        assert f"secular frequency {secular_hz} Hz" in str(info.value)


def test_gate_params_validation(trap):
    s = ChargeScenario(1.0, 1.0, X_Q)
    for call in (lambda g: gate_detuning_verdict(trap, s, g),
                 lambda g: max_equal_charge_for_gate(trap, X_Q, g)):
        with pytest.raises(ParameterError, match="Rabi rate must be positive, got 0.0"):
            call(GateParams(rabi_hz=0.0))
        with pytest.raises(ParameterError, match="threshold ratio must be positive"):
            call(GateParams(rabi_hz=1e4, threshold_ratio=0.0))
    assert GateParams(rabi_hz=10e3).threshold_ratio == 0.013
