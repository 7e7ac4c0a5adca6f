"""Acceptance suite: one test per headline criterion, each printing a
pass line (run with -s to see them). Tolerances are stated inline and
match the bundled report manifest where a row exists."""

import math

import numpy as np
import pytest

from cavitycharge.cavity_optics import (
    excess_reflection_loss,
    extinction_from_finesse,
    r0_from_symmetric_finesse,
    r1_from_asymmetric_finesse,
)
from cavitycharge.charging import (
    equilibrium_charge,
    film_resistance,
    gaussian_clipping_factor,
    photocurrent,
    transport_consistency,
)
from cavitycharge.electrostatics import (
    ChargeScenario,
    disc_point_ratios,
    field_at,
    single_charge_field,
)
from cavitycharge.film_optics import drude_index
from cavitycharge.ion_impact import (
    GateParams,
    equilibrium_position,
    gate_detuning_verdict,
    lamb_dicke_budget,
    max_charge_for_cooling,
    max_equal_charge_for_gate,
    zero_point_spread,
)
from cavitycharge.quantities import CODATA, UncertainQuantity, propagate_cubature
from cavitycharge.reports import build_report
from cavitycharge.ringdown import finesse, fit_ringdown, synthesize_trace
from cavitycharge.rydberg_impact import (
    decoherence_time,
    max_charge_for_infidelity,
    stark_shift,
)
from cavitycharge.scenario import (
    FilmSection,
    IlluminationSection,
    RydbergSection,
    TrapSection,
    parse_scenario,
    serialize_scenario,
)
from cavitycharge.reports import bundled_scenario_text
from test_cavity_optics import finesse_of, first_order_kappa
from test_electrostatics import potential_quadratic

X_Q = 200e-6
F00 = UncertainQuantity(23340.0, 60.0)
THICKNESS = UncertainQuantity(30e-9, 2e-9)
WAVELENGTH = 1650e-9

TRAP = TrapSection(
    mass_amu=171.0,
    secular_hz=500e3,
    rf_hz=30e6,
    cooling_wavelength_m=369e-9,
    gate_wavelength_m=355e-9,
    cavity_wavelength_m=1650e-9,
)
RYDBERG = RydbergSection(alpha=53.4e3, rabi_hz=5e6)


@pytest.fixture(scope="module")
def report_rows():
    return {r.row_id: r for r in build_report()}


def ok(n, text):
    print(f"[criterion {n:2d}] {text}: PASS")


def test_01_extinction_table(report_rows):
    table = {
        "coated_27d": (14160.0, 250.0, 38e-5, 3e-5),
        "coated_69d": (18400.0, 700.0, 16e-5, 3e-5),
        "annealed_69d": (20900.0, 300.0, 6.7e-5, 1.1e-5),
        "annealed_128d": (22120.0, 130.0, 3.2e-5, 0.4e-5),
    }
    for key, (f01, f01_sigma, ref, ref_sigma) in table.items():
        kappa = extinction_from_finesse(
            F00, UncertainQuantity(f01, f01_sigma), THICKNESS, WAVELENGTH
        )
        assert abs(kappa.value - ref) < ref_sigma, key

    # the 128-day coated entry: computed ~1.05e-4 against the printed 8.0e-5
    kappa = extinction_from_finesse(
        F00, UncertainQuantity(19800.0, 180.0), THICKNESS, WAVELENGTH
    )
    assert kappa.value == pytest.approx(10.5e-5, rel=0.02)
    assert abs(kappa.value - 8.0e-5) > 0.7e-5
    assert report_rows["kappa_zno_128d"].status == "MISMATCH-DOCUMENTED"
    # while its reflection variation does match the printed 4.8e-5 (2%)
    refl = excess_reflection_loss(F00, UncertainQuantity(19800.0, 180.0))
    assert refl.value == pytest.approx(4.8e-5, rel=0.02)
    ok(1, "extinction table reproduced, 128 d entry flagged")


def test_02_reflection_variation_cross_check():
    v69 = excess_reflection_loss(F00, UncertainQuantity(18400.0, 700.0))
    v128 = excess_reflection_loss(F00, UncertainQuantity(19800.0, 180.0))
    assert v69.value == pytest.approx(7.2e-5, rel=0.03)
    assert v128.value == pytest.approx(4.8e-5, rel=0.03)
    ok(2, "reflection variations 7.2e-5 / 4.8e-5 within 3%")


def test_03_finesse_from_linewidth():
    lw = UncertainQuantity(523e3, 9e3)
    fsr = UncertainQuantity(7.410e9, 0.013e9)
    f = finesse(lw, fsr)
    assert f.value == pytest.approx(14168.0, abs=1.0)
    assert f.sigma == pytest.approx(245.0, abs=1.0)
    assert abs(f.value - 14160.0) <= 250.0  # inside the printed one sigma
    cubature = propagate_cubature(lambda d, nu: nu / d, [lw, fsr])
    assert cubature.sigma == pytest.approx(f.sigma, rel=0.20)
    ok(3, "finesse 14168(245) within printed 14160(250); cubature sigma within 20%")


def test_04_ringdown_fitter_statistics():
    truth = 523e3
    tau = 1.0 / (2.0 * math.pi * truth)
    rels, pulls = [], []
    for seed in range(100):
        trace = synthesize_trace(1.0, truth, 5 * tau, 10_000 / (5 * tau), 0.01, seed)
        fit = fit_ringdown(trace)
        rels.append((fit.linewidth.value - truth) / truth)
        pulls.append((fit.linewidth.value - truth) / fit.linewidth.sigma)
    assert abs(float(np.mean(rels))) < 0.005
    pull_sigma = float(np.std(pulls, ddof=1))
    assert 0.7 <= pull_sigma <= 1.3
    ok(4, f"fitter bias {100 * np.mean(rels):+.3f}% < 0.5%, pull sigma {pull_sigma:.2f}")


def test_05_disc_calibration():
    ratios = disc_point_ratios(125e-6, 200e-6)
    assert abs(ratios["u_ratio"] - 0.92) <= 0.005
    assert abs(ratios["e_ratio"] - 0.78) <= 0.005
    ok(5, "disc/point ratios 0.92 and 0.78 within 0.005")


def test_06_ion_budgets():
    cooling = max_charge_for_cooling(TRAP, X_Q, 0.5)
    assert cooling.q1_e == pytest.approx(1400.0, rel=0.05)
    assert cooling.field_v_per_m == pytest.approx(49.0, rel=0.05)
    assert cooling.x_tilde_m == pytest.approx(2.8e-6, rel=0.05)

    s100 = ChargeScenario(100.0, 0.0, X_Q)
    x_t = equilibrium_position(TRAP, s100)
    assert x_t == pytest.approx(TRAP.cavity_wavelength_m / 8.0, rel=0.05)
    assert field_at(s100, x_t) == pytest.approx(3.6, rel=0.05)

    ld = lamb_dicke_budget(TRAP, X_Q, 0.2)
    assert ld.q1_max_e == pytest.approx(230.0, rel=0.05)
    assert ld.field_v_per_m == pytest.approx(8.2, rel=0.05)
    assert ld.x_tilde_max_m == pytest.approx(0.47e-6, rel=0.05)
    assert ld.x_micromotion_max_m == pytest.approx(11e-9, rel=0.10)

    assert zero_point_spread(TRAP) == pytest.approx(8e-9, rel=0.05)
    ok(6, "cooling 1400 e / coupling lambda_c/8 / Lamb-Dicke 230 e / 8 nm spread")


def test_07_gate_budget(report_rows):
    gate = GateParams(rabi_hz=10e3)
    verdict = gate_detuning_verdict(TRAP, ChargeScenario(630.0, 630.0, X_Q), gate)
    assert verdict.ratio_secular == pytest.approx(0.013, abs=0.001)
    assert verdict.ratio_rabi == pytest.approx(0.65, abs=0.05)
    assert report_rows["gate_ratio_rabi"].status == "MISMATCH-DOCUMENTED"
    bound = max_equal_charge_for_gate(TRAP, X_Q, gate)
    assert bound == pytest.approx(13.0, rel=0.10)
    ok(7, "gate ratios 0.013 (secular) / 0.65 (Rabi, flagged); bound 13 e")


def test_08_rydberg_budgets():
    field = single_charge_field(54.0, X_Q)
    assert field == pytest.approx(1.9, rel=0.05)
    shift = stark_shift(RYDBERG, 1.9)
    assert 96e3 <= shift <= 100e3
    assert decoherence_time(RYDBERG, field) == pytest.approx(5e-6, rel=0.05)
    blockade = max_charge_for_infidelity(RYDBERG, 0.01, X_Q)
    assert blockade.q1_e == pytest.approx(140.0, rel=0.05)
    assert blockade.field_v_per_m == pytest.approx(5.1, rel=0.05)
    ok(8, "54 e -> 1.9 V/m, 96-100 kHz, 5 us; blockade 140 e at 5.1 V/m")


def test_09_charging(report_rows):
    film = FilmSection(1e-4, 30e-9, 125e-6, 0.1e-12)
    resistance = film_resistance(film)
    # printed 3.3 kOhm at 1%, symmetric relative difference
    assert abs(resistance - 3300.0) / max(resistance, 3300.0) <= 0.01 * (1 + 1e-9)
    steady = equilibrium_charge(resistance, 0.1e-12, 4e11 * CODATA.e)
    assert 100.0 <= steady.charge_e <= 160.0
    assert steady.rc_time_s < 1e-9
    clip = gaussian_clipping_factor(100e-6, 200e-6)
    assert clip == pytest.approx(3.35e-4, rel=0.01)
    rate = photocurrent(
        IlluminationSection(power_w=0.2e-3, wavelength_m=369e-9, quantum_efficiency=1.0,
                            waist_m=100e-6)
    ).rate_per_s
    assert rate == pytest.approx(3.7e14, rel=0.01)
    assert report_rows["photocurrent_rate"].status == "MISMATCH-DOCUMENTED"
    ok(9, "R 3.3 kOhm, Q in [100,160] e, RC < 1 ns, clip 3.35e-4, rate flagged")


def test_10_transport_consistency():
    assert abs(transport_consistency(2e25, 3.7e-3) / 8.6e-5 - 1.0) < 0.05
    assert abs(transport_consistency(1.5e25, 2.8e-3) / 1.32e-4 - 1.0) < 0.15
    ok(10, "predicted resistivities within 5% / 15% of Hall values")


def test_11_property_suites():
    # reflectivity inversions are exact inverses to 1e-12: reflectivities
    # spanning F in [1e2, 1e6] survive the round trip through the finesse,
    # and the anchor finesse pair survives the trip through reflectivities
    for f in np.logspace(2, 6, 9):
        r = r0_from_symmetric_finesse(float(f)).value
        r_back = r0_from_symmetric_finesse(finesse_of(r, r)).value
        assert r_back == pytest.approx(r, rel=1e-12)
    for f00, f01 in ((23340.0, 14160.0), (23340.0, 19800.0)):
        r0 = r0_from_symmetric_finesse(f00).value
        assert finesse_of(r0, r0) == pytest.approx(f00, rel=1e-12)
        r1 = r1_from_asymmetric_finesse(f01, r0).value
        assert finesse_of(r0, r1) == pytest.approx(f01, rel=1e-12)

    # small-loss expansion of the extinction within 0.1% in the measured
    # finesse regime (the true expansion error scales as 1/F and only
    # crosses 0.1% below F ~ 4e3)
    for f00, f01 in ((23340.0, 14160.0), (23340.0, 19800.0), (5e5, 4e5), (1e4, 6e3)):
        exact = extinction_from_finesse(
            UncertainQuantity(f00), UncertainQuantity(f01),
            UncertainQuantity(30e-9, 0), WAVELENGTH,
        ).value
        approx = first_order_kappa(f00, f01, 30e-9, WAVELENGTH)
        assert approx == pytest.approx(exact, rel=1e-3)

    # field is the (negative) gradient of the quadratic potential to 1e-6
    s = ChargeScenario(200.0, -35.0, X_Q)
    for x in np.linspace(-0.5 * X_Q, 0.5 * X_Q, 9):
        step = 1e-6 * X_Q
        grad = (
            potential_quadratic(s, x + step)
            - potential_quadratic(s, x - step)
        ) / (2 * step)
        assert field_at(s, x) == pytest.approx(-grad / CODATA.e, rel=1e-6)

    # free-carrier extinction ratio in the stated regime: ZnO with 2e17 cm^-3
    # carriers at 370 cm^2/(V s)
    ratio = (drude_index(2e23, 370e-4, 2.0 * WAVELENGTH).imag
             / drude_index(2e23, 370e-4, WAVELENGTH).imag)
    assert 7.2 <= ratio <= 8.8

    # scenario round trip is bit-exact
    text = bundled_scenario_text()
    assert serialize_scenario(parse_scenario(text)) == text
    ok(11, "inverse identities, expansions, gradients, round trip")
