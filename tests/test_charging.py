import math

import pytest
from scipy import constants as sc

from cavitycharge.charging import (
    capacitance_breakdown,
    equilibrium_charge,
    film_resistance,
    gaussian_clipping_factor,
    photocurrent,
    transport_consistency,
)
from cavitycharge.errors import ParameterError, SchemaError
from cavitycharge.reports import bundled_scenario_text
from cavitycharge.scenario import FilmSection, IlluminationSection, parse_scenario

ILLUM = IlluminationSection(
    power_w=0.2e-3, wavelength_m=369e-9, quantum_efficiency=1.0, waist_m=100e-6
)
FILM = FilmSection(rho_ohm_m=1e-4, thickness_m=30e-9, radius_m=125e-6, capacitance_f=0.1e-12)


def test_photocurrent_flux_formula():
    out = photocurrent(ILLUM)
    oracle = 0.2e-3 * 369e-9 / (sc.h * sc.c)
    assert out.rate_per_s == pytest.approx(oracle, rel=1e-12)
    assert out.rate_per_s == pytest.approx(3.7e14, rel=0.01)
    assert out.current_a == pytest.approx(sc.e * oracle, rel=1e-12)


def test_photocurrent_zero_power():
    out = photocurrent(ILLUM._replace(power_w=0.0))
    assert out.rate_per_s == 0.0
    assert out.current_a == 0.0


def test_photocurrent_linear_scalings():
    base = photocurrent(ILLUM).rate_per_s
    double_p = photocurrent(ILLUM._replace(power_w=0.4e-3)).rate_per_s
    double_lam = photocurrent(ILLUM._replace(wavelength_m=738e-9)).rate_per_s
    assert double_p == pytest.approx(2 * base, rel=1e-12)
    assert double_lam == pytest.approx(2 * base, rel=1e-12)
    # trading power against quantum efficiency leaves the rate unchanged
    half_eta = photocurrent(
        ILLUM._replace(power_w=0.4e-3, quantum_efficiency=0.5)
    ).rate_per_s
    assert half_eta == pytest.approx(base, rel=1e-12)


def test_photocurrent_override_takes_precedence():
    out = photocurrent(ILLUM._replace(photon_rate_per_s=4e11))
    assert out.rate_per_s == 4e11
    assert out.current_a == pytest.approx(4e11 * sc.e, rel=1e-12)


def test_film_resistance():
    out = film_resistance(FILM)
    assert out == pytest.approx(1e-4 / 30e-9, rel=1e-12)
    # printed rounded reference, symmetric relative difference just at 1%
    assert abs(out - 3300.0) / out <= 0.01 * (1 + 1e-9)


def test_film_resistance_scalings():
    thick = FilmSection(1e-4, 60e-9, 125e-6, 0.1e-12)
    assert film_resistance(thick) == pytest.approx(0.5 * film_resistance(FILM), rel=1e-12)
    unit = FilmSection(0.5, 0.5, 125e-6, 0.1e-12)
    assert film_resistance(unit) == pytest.approx(1.0)


def test_equilibrium_charge_reference_case():
    current = 4e11 * sc.e
    out = equilibrium_charge(1e-4 / 30e-9, 0.1e-12, current)
    assert out.charge_e == pytest.approx(133.3, rel=1e-3)
    assert 100.0 <= out.charge_e <= 160.0
    assert abs(out.charge_e - 120.0) / 120.0 < 0.15  # printed ~120 e
    assert out.rc_time_s == pytest.approx(3.33e-10, rel=1e-2)
    assert out.rc_time_s < 1e-9


def test_equilibrium_charge_linearity():
    base = equilibrium_charge(3300.0, 1e-13, 1e-8)
    assert equilibrium_charge(3300.0, 1e-13, 2e-8).charge_e == pytest.approx(
        2 * base.charge_e, rel=1e-12
    )
    assert equilibrium_charge(6600.0, 1e-13, 1e-8).charge_e == pytest.approx(
        2 * base.charge_e, rel=1e-12
    )
    assert equilibrium_charge(3300.0, 2e-13, 1e-8).charge_e == pytest.approx(
        2 * base.charge_e, rel=1e-12
    )
    # RC time does not depend on the current
    assert equilibrium_charge(3300.0, 1e-13, 5e-8).rc_time_s == base.rc_time_s
    assert equilibrium_charge(3300.0, 1e-13, 0.0).charge_e == 0.0


def test_gaussian_clipping_factor():
    assert gaussian_clipping_factor(100e-6, 200e-6) == pytest.approx(
        math.exp(-4.0) ** 2, rel=1e-12
    )
    assert gaussian_clipping_factor(100e-6, 200e-6) == pytest.approx(3.35e-4, rel=0.01)
    # x_Q is an ion-mirror distance, positive as everywhere else in the library
    with pytest.raises(ParameterError, match=r"^x_Q must be positive, got 0\.0$"):
        gaussian_clipping_factor(100e-6, 0.0)
    xs = [50e-6, 100e-6, 150e-6, 200e-6]
    factors = [gaussian_clipping_factor(100e-6, x) for x in xs]
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_capacitance_breakdown():
    parts = capacitance_breakdown(125e-6, 200e-6)
    assert parts.self_f == pytest.approx(8e-15, rel=0.15)       # ~8e-3 pF
    assert parts.mirror_pair_f == pytest.approx(1e-15, rel=0.15)  # ~1e-3 pF
    assert parts.electrode_f == 0.1e-12
    assert parts.total_f == pytest.approx(0.11e-12, rel=0.05)
    assert parts.electrode_f > 10 * (parts.self_f + parts.mirror_pair_f)


def test_transport_consistency_reference_rows():
    zno1 = transport_consistency(8.6e-5, 2e25, 3.7e-3)  # 8.6 mOhm cm, 2e19 cm^-3, 37 cm^2/Vs
    assert abs(zno1.relative_deviation) < 0.05
    zno2 = transport_consistency(1.32e-4, 1.5e25, 2.8e-3)
    assert abs(zno2.relative_deviation) < 0.15
    assert zno1.predicted_resistivity_ohm_m == pytest.approx(
        1.0 / (2e25 * sc.e * 3.7e-3), rel=1e-12
    )


def test_transport_unit_construction():
    n = 1.0 / (sc.e * 1.0)
    out = transport_consistency(1.0, n, 1.0)
    assert out.predicted_resistivity_ohm_m == pytest.approx(1.0, rel=1e-12)
    assert out.relative_deviation == pytest.approx(0.0, abs=1e-12)


def test_validation():
    # the [film] and [illumination] keys are range-checked at parse
    text = bundled_scenario_text()
    for old, new, message in (
        ("rho_ohm_m = 0.0001", "rho_ohm_m = -0.0001", r"'rho_ohm_m' in \[film\] must be > 0"),
        ("quantum_efficiency = 1.0", "quantum_efficiency = 1.5",
         r"'quantum_efficiency' in \[illumination\] must be in \[0, 1\]"),
    ):
        assert old in text
        with pytest.raises(SchemaError, match=message):
            parse_scenario(text.replace(old, new))
    with pytest.raises(ParameterError, match=r"carrier density must be positive, got -2e\+25"):
        transport_consistency(1e-4, -2e25, 3.7e-3)
    with pytest.raises(ParameterError):
        equilibrium_charge(0.0, 1e-13, 1e-8)
