import math
import warnings

import mpmath
import numpy as np
import pytest

from cavitycharge.cavity_optics import (
    MirrorState,
    NegativeExtinctionWarning,
    excess_reflection_loss,
    extinction_from_finesse,
    extinction_from_reflectivities,
    r0_from_symmetric_finesse,
    r1_from_asymmetric_finesse,
    resonant_response,
)
from cavitycharge.errors import ConsistencyError, ParameterError
from cavitycharge.quantities import UncertainQuantity, propagate_linear

mpmath.mp.dps = 50

F00 = 23340.0
WAVELENGTH = 1650e-9
THICKNESS = 30e-9

#: finesse measured against the bare cavity and the printed extinction
#: (value, sigma) at each age of the modified mirror
FINESSE_TABLE = {
    "coated_27d": (14160.0, 250.0),
    "coated_69d": (18400.0, 700.0),
    "coated_128d": (19800.0, 180.0),
    "annealed_69d": (20900.0, 300.0),
    "annealed_128d": (22120.0, 130.0),
}


def mp_r0(f):
    f = mpmath.mpf(f)
    return (mpmath.sqrt(4 * f**2 + mpmath.pi**2) - mpmath.pi) / (2 * f)


def mp_r1(f01, r0):
    return mp_r0(f01) ** 2 / r0


def finesse_of(r_i, r_j):
    """F_ij = pi sqrt(r_i r_j) / (1 - r_i r_j), at extended precision."""
    product = mpmath.mpf(r_i) * mpmath.mpf(r_j)
    return float(mpmath.pi * mpmath.sqrt(product) / (1 - product))


def first_order_kappa(f00, f01, thickness_m, wavelength_m):
    """Small-loss expansion kappa ~ (lambda/(4h)) (1/F01 - 1/F00)."""
    return (wavelength_m / (4.0 * thickness_m)) * (1.0 / f01 - 1.0 / f00)


def mp_kappa(f00, f01, h, lam):
    r0 = mp_r0(f00)
    r1 = mp_r1(f01, r0)
    return -(mpmath.mpf(lam) / (8 * mpmath.pi * mpmath.mpf(h))) * mpmath.log(
        1 - r0**2 + r1**2
    )


# -- reflectivity inversions -------------------------------------------------


def test_r0_against_extended_precision():
    r0 = r0_from_symmetric_finesse(F00).value
    assert abs(r0 - float(mp_r0(F00))) < 1e-9
    assert 1.0 - r0 == pytest.approx(6.730e-5, rel=1e-3)


def test_r0_asymptotics_and_monotonicity():
    assert 1.0 - r0_from_symmetric_finesse(1e8).value < 2e-8
    grid = np.logspace(2, 6, 25)
    r_values = [r0_from_symmetric_finesse(f).value for f in grid]
    assert np.all(np.diff(r_values) > 0)
    assert all(0 < r < 1 for r in r_values)


@pytest.mark.parametrize("f", np.logspace(2, 6, 17))
def test_r0_round_trip_identity(f):
    # composition r0(finesse(r, r)) is the identity on reflectivities
    r = r0_from_symmetric_finesse(f).value
    r_back = r0_from_symmetric_finesse(finesse_of(r, r)).value
    assert r_back == pytest.approx(r, rel=1e-12)


def test_finesse_recovered_from_inverted_reflectivity():
    r0 = r0_from_symmetric_finesse(F00).value
    assert finesse_of(r0, r0) == pytest.approx(F00, rel=1e-12)


def test_r1_against_extended_precision():
    r0 = r0_from_symmetric_finesse(F00)
    r1 = r1_from_asymmetric_finesse(14160.0, r0).value
    assert abs(r1 - float(mp_r1(14160.0, mp_r0(F00)))) < 1e-9
    assert 1.0 - r1 == pytest.approx(1.5457e-4, rel=1e-3)


def test_r1_inverse_identity():
    r0 = r0_from_symmetric_finesse(F00).value
    for f01 in (14160.0, 18400.0, 22120.0):
        r1 = r1_from_asymmetric_finesse(f01, r0).value
        assert finesse_of(r0, r1) == pytest.approx(f01, rel=1e-12)


def test_r1_unchanged_mirror():
    r0 = r0_from_symmetric_finesse(F00)
    r1 = r1_from_asymmetric_finesse(F00, r0)
    assert r1.value == pytest.approx(r0.value, rel=1e-12)


def test_r1_consistency_error():
    # a huge mixed finesse is incompatible with a lossy bare mirror
    with pytest.raises(ConsistencyError):
        r1_from_asymmetric_finesse(1e9, 0.9)


# -- extinction chain --------------------------------------------------------


def test_extinction_values_match_table():
    printed = {
        "coated_27d": (38e-5, 3e-5),
        "coated_69d": (16e-5, 3e-5),
        "annealed_69d": (6.7e-5, 1.1e-5),
        "annealed_128d": (3.2e-5, 0.4e-5),
    }
    h = UncertainQuantity(THICKNESS, 2e-9, "m")
    for key, (ref, ref_sigma) in printed.items():
        f01, f01_sigma = FINESSE_TABLE[key]
        kappa = extinction_from_finesse(
            UncertainQuantity(F00, 60.0), UncertainQuantity(f01, f01_sigma), h, WAVELENGTH
        )
        oracle = float(mp_kappa(F00, f01, THICKNESS, WAVELENGTH))
        assert kappa.value == pytest.approx(oracle, rel=1e-10)
        assert abs(kappa.value - ref) < ref_sigma


def test_extinction_documented_outlier():
    # the 128-day coated row: the finesse pair implies ~1.05e-4, far from
    # the printed 8.0(7)e-5, while its r0^2-r1^2 does match the printed text
    f01, f01_sigma = FINESSE_TABLE["coated_128d"]
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(f01, f01_sigma),
        UncertainQuantity(THICKNESS, 2e-9, "m"),
        WAVELENGTH,
    )
    assert kappa.value == pytest.approx(1.053e-4, rel=2e-3)
    assert abs(kappa.value - 8.0e-5) > 3 * 0.7e-5
    refl = excess_reflection_loss(UncertainQuantity(F00, 60.0), UncertainQuantity(f01, f01_sigma))
    assert refl.value == pytest.approx(4.8e-5, rel=0.02)


def test_extinction_uncertainty_scale():
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(14160.0, 250.0),
        UncertainQuantity(THICKNESS, 2e-9, "m"),
        WAVELENGTH,
        seed=0,
    )
    assert 2.5e-5 < kappa.sigma < 3.6e-5  # quoted +/- 3e-5


def test_extinction_monte_carlo_vs_linear_sigma():
    f00 = UncertainQuantity(F00, 60.0)
    f01 = UncertainQuantity(14160.0, 250.0)
    h = UncertainQuantity(THICKNESS, 2e-9, "m")
    mc = extinction_from_finesse(f00, f01, h, WAVELENGTH, seed=1)

    def chain(a, b, hh):
        r0 = (math.sqrt(4 * a**2 + math.pi**2) - math.pi) / (2 * a)
        r1 = ((math.sqrt(4 * b**2 + math.pi**2) - math.pi) / (2 * b)) ** 2 / r0
        return extinction_from_reflectivities(r0, r1, hh, WAVELENGTH)

    linear = propagate_linear(chain, [f00, f01, h])
    assert mc.sigma == pytest.approx(linear.sigma, rel=0.20)


def test_extinction_sigma_is_the_std_of_direct_draws():
    # reference: draws of F00, F01 and h, in that order, from one generator
    inputs = (
        UncertainQuantity(F00, 60.0),
        UncertainQuantity(14160.0, 250.0),
        UncertainQuantity(THICKNESS, 2e-9, "m"),
    )
    rng = np.random.default_rng(5)
    f00, f01, h = (rng.normal(q.value, q.sigma, 20_000) for q in inputs)

    def r0(f):
        return (np.sqrt(4.0 * f**2 + np.pi**2) - np.pi) / (2.0 * f)

    r1 = r0(f01) ** 2 / r0(f00)
    draws = -(WAVELENGTH / (8.0 * np.pi * h)) * np.log(1.0 - r0(f00) ** 2 + r1**2)
    kappa = extinction_from_finesse(*inputs, WAVELENGTH, mc_samples=20_000, seed=5)
    assert kappa.sigma == pytest.approx(float(np.std(draws, ddof=1)), rel=1e-9)


def test_extinction_non_physical_draws_fall_under_the_one_percent_policy():
    from cavitycharge.errors import EvaluationError

    # F01 = 500 +/- 250: about 2% of the draws are non-positive
    with pytest.raises(EvaluationError, match="non-finite"):
        extinction_from_finesse(
            UncertainQuantity(F00, 60.0),
            UncertainQuantity(500.0, 250.0),
            UncertainQuantity(THICKNESS, 2e-9, "m"),
            WAVELENGTH,
            mc_samples=10_000,
        )


def test_extinction_domain_error_for_invalid_reflectivities():
    from cavitycharge.errors import DomainError

    with pytest.raises(DomainError):
        extinction_from_reflectivities(1.5, 0.1, THICKNESS, WAVELENGTH)


def test_extinction_no_excess_loss_is_zero():
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(THICKNESS, 0.0, "m"),
        WAVELENGTH,
        mc_samples=1000,
    )
    assert kappa.value == pytest.approx(0.0, abs=1e-18)


def test_extinction_negative_with_warning_when_finesse_improves():
    with pytest.warns(NegativeExtinctionWarning):
        kappa = extinction_from_finesse(
            UncertainQuantity(F00, 0.0),
            UncertainQuantity(F00 * 1.05, 0.0),
            UncertainQuantity(THICKNESS, 0.0, "m"),
            WAVELENGTH,
            mc_samples=1000,
        )
    assert kappa.value < 0


def exact_kappa(f00, f01):
    return extinction_from_finesse(
        UncertainQuantity(f00, 0.0),
        UncertainQuantity(f01, 0.0),
        UncertainQuantity(THICKNESS, 0.0, "m"),
        WAVELENGTH,
        mc_samples=1000,
    ).value


def test_first_order_expansion_identity():
    # kappa ~ (lambda/(4h)) (1/F01 - 1/F00): within 0.1% once both
    # finesses clear ~4e3; still within 0.3% down to 1e3
    for f00 in (4.5e3, 2.334e4, 3e5):
        for ratio in (0.9, 0.7, 0.95):
            f01 = ratio * f00
            approx = first_order_kappa(f00, f01, THICKNESS, WAVELENGTH)
            assert approx == pytest.approx(exact_kappa(f00, f01), rel=1e-3)
    assert first_order_kappa(2e3, 1.5e3, THICKNESS, WAVELENGTH) == pytest.approx(
        exact_kappa(2e3, 1.5e3), rel=3e-3
    )


def test_first_order_expansion_error_scales_inversely_with_finesse():
    deviations = []
    for scale in (1.0, 10.0, 100.0):
        f00, f01 = 2e3 * scale, 1.5e3 * scale
        approx = first_order_kappa(f00, f01, THICKNESS, WAVELENGTH)
        deviations.append(abs(approx / exact_kappa(f00, f01) - 1.0))
    assert deviations[0] == pytest.approx(10.0 * deviations[1], rel=0.15)
    assert deviations[1] == pytest.approx(10.0 * deviations[2], rel=0.15)


def test_extinction_strictly_decreasing_in_f01():
    grid = np.linspace(14000.0, 23000.0, 12)
    values = [
        extinction_from_finesse(
            UncertainQuantity(F00, 0.0),
            UncertainQuantity(f, 0.0),
            UncertainQuantity(THICKNESS, 0.0, "m"),
            WAVELENGTH,
            mc_samples=1000,
        ).value
        for f in grid
    ]
    assert np.all(np.diff(values) < 0)


def test_excess_reflection_loss_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warnings expected here
        v69 = excess_reflection_loss(F00, 18400.0)
        v128 = excess_reflection_loss(F00, 19800.0)
    assert v69.value == pytest.approx(7.2e-5, rel=0.03)
    assert v128.value == pytest.approx(4.8e-5, rel=0.03)
    assert excess_reflection_loss(F00, F00).value == pytest.approx(0.0, abs=1e-18)


# -- resonant response -------------------------------------------------------


def test_impedance_matched_cavity_transmits_fully():
    m = MirrorState(0.99, 1.0 - 0.99**2)
    out = resonant_response(m, m)
    assert out["transmission"] == pytest.approx(1.0, rel=1e-12)
    assert out["reflection_dip"] == pytest.approx(0.0, abs=1e-12)


def test_vendor_transmission_case():
    r0 = r0_from_symmetric_finesse(F00).value
    m = MirrorState(r0, 1.18e-4, label="M0")
    out = resonant_response(m, m)
    # all of 1-r^2 minus the vendor T is loss; T_c = (T/(T+L))^2
    expected = (1.18e-4 / (1.0 - r0**2)) ** 2
    assert out["transmission"] == pytest.approx(expected, rel=1e-9)
    assert 0.0 < out["transmission"] < 1.0


def test_perfect_back_mirror_blocks_transmission():
    front = MirrorState(0.9, 0.05)
    back = MirrorState(1.0 - 1e-12, 0.0)
    out = resonant_response(front, back)
    assert out["transmission"] == pytest.approx(0.0, abs=1e-12)


def test_mirror_state_validation():
    with pytest.raises(ParameterError):
        MirrorState(1.5, 0.0)
    with pytest.raises(ParameterError):
        MirrorState(0.9, 0.5)  # T above the 1-r^2 budget
    m = MirrorState(0.9, 0.1, label="M0")
    assert m.loss == pytest.approx(1.0 - 0.81 - 0.1, rel=1e-12)
