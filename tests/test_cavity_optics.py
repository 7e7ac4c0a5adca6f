import functools
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mc_oracle import propagate_monte_carlo, sigma_standard_error

from cavitycharge import cavity_optics
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
from cavitycharge.errors import ConsistencyError, DomainError, EvaluationError, ParameterError
from cavitycharge.quantities import (
    _GH_NODES,
    _GH_WEIGHTS,
    UncertainQuantity,
    _product_cubature,
    propagate_linear,
)

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


@pytest.mark.parametrize("call, error", [
    (lambda: r0_from_symmetric_finesse(1e200), "OverflowError"),
    (lambda: excess_reflection_loss(1e200, 2e4), "OverflowError"),
    (lambda: excess_reflection_loss(1e-17, 2e4), "ZeroDivisionError"),
    (lambda: r1_from_asymmetric_finesse(1e200, 0.999), "OverflowError"),
], ids=["r0-1e200", "loss-1e200", "loss-1e-17", "r1-1e200"])
def test_linear_chain_outside_the_float_range_is_an_evaluation_error(call, error):
    # 4 F^2 overflows for F = 1e200; 2 pi / (2F + pi + sqrt(...)) leaves r0 = 0 for F = 1e-17
    with pytest.raises(EvaluationError, match=f"^{error}: .*; an input value is outside the "
                                              "floating-point range of the formulas$") as info:
        call()
    assert type(info.value.__cause__).__name__ == error


# -- extinction chain --------------------------------------------------------


def test_extinction_values_match_table():
    printed = {
        "coated_27d": (38e-5, 3e-5),
        "coated_69d": (16e-5, 3e-5),
        "annealed_69d": (6.7e-5, 1.1e-5),
        "annealed_128d": (3.2e-5, 0.4e-5),
    }
    h = UncertainQuantity(THICKNESS, 2e-9)
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
        UncertainQuantity(THICKNESS, 2e-9),
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
        UncertainQuantity(THICKNESS, 2e-9),
        WAVELENGTH,
    )
    assert 2.5e-5 < kappa.sigma < 3.6e-5  # quoted +/- 3e-5


def test_extinction_cubature_vs_linear_sigma():
    f00 = UncertainQuantity(F00, 60.0)
    f01 = UncertainQuantity(14160.0, 250.0)
    h = UncertainQuantity(THICKNESS, 2e-9)
    cubature = extinction_from_finesse(f00, f01, h, WAVELENGTH)

    def chain(a, b, hh):
        r0 = (math.sqrt(4 * a**2 + math.pi**2) - math.pi) / (2 * a)
        r1 = ((math.sqrt(4 * b**2 + math.pi**2) - math.pi) / (2 * b)) ** 2 / r0
        return extinction_from_reflectivities(r0, r1, hh, WAVELENGTH)

    linear = propagate_linear(chain, [f00, f01, h])
    assert cubature.sigma == pytest.approx(linear.sigma, rel=0.20)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("key", FINESSE_TABLE)
def test_extinction_cubature_sigma_is_within_two_standard_errors_of_monte_carlo(key, seed):
    # JCGM 101:2008 section 8: a non-Monte-Carlo sigma validated against a
    # Monte Carlo of the same chain, with the sample's fourth central moment
    # m4 from the same draws (common random numbers)
    inputs = _report_inputs(key)
    kappa = functools.partial(_kappa_on_arrays, WAVELENGTH)
    n = 1_000_000
    mc = propagate_monte_carlo(kappa, inputs, n, seed)
    m4 = propagate_monte_carlo(lambda *x: (kappa(*x) - mc.value) ** 4, inputs, n, seed).value
    standard_error = sigma_standard_error(mc.sigma, m4, n)
    cubature = extinction_from_finesse(*inputs, WAVELENGTH)
    assert abs(cubature.sigma - mc.sigma) <= 2.0 * standard_error


def _report_inputs(key):
    """F00, F01 and h of the report's film-extinction row of one table entry."""
    return [UncertainQuantity(F00, 60.0), UncertainQuantity(*FINESSE_TABLE[key]),
            UncertainQuantity(THICKNESS, 2e-9)]


def _kappa_on_arrays(wavelength_m, f00, f01, h):
    """cavity_optics._kappa's chain on NumPy arrays of draws, for the Monte Carlo."""
    def u(f):
        return 2.0 * math.pi / (2.0 * f + math.pi + np.sqrt(4.0 * f**2 + math.pi**2))

    u00, u01 = u(f00), u(f01)
    r0 = 1.0 - u00
    r1 = (1.0 - u01) ** 2 / r0
    loss = (u01 - u00) * (2.0 - u00 - u01) / r0 * (r0 + r1)
    return -wavelength_m / (8.0 * math.pi * h) * np.log1p(-loss)


def _full_grid(inputs):
    """(weight, point) at each node of the unfactored tensor grid of inputs:
    8 Gauss-Hermite nodes per input with sigma > 0, its value alone else."""
    axes = [[(w, q.value + q.sigma * x) for x, w in zip(_GH_NODES, _GH_WEIGHTS)]
            if q.sigma else [(1.0, q.value)] for q in inputs]
    return [(math.prod(w for w, _ in node), [x for _, x in node])
            for node in itertools.product(*axes)]


@pytest.mark.parametrize("key", FINESSE_TABLE)
def test_array_chain_is_the_library_chain_at_the_cubature_nodes(key):
    # the Monte Carlo above draws through _kappa_on_arrays; it checks the
    # library's chain only while the two agree
    grid = _full_grid(_report_inputs(key))
    on_arrays = _kappa_on_arrays(WAVELENGTH, *np.array([point for _, point in grid]).T)
    library = [cavity_optics._kappa(WAVELENGTH, *point) for _, point in grid]
    assert len(grid) == 512
    np.testing.assert_allclose(on_arrays, library, rtol=1e-12, atol=0)


@pytest.mark.parametrize("f00, f01, h", [
    *([UncertainQuantity(F00, 60.0), UncertainQuantity(*pair), UncertainQuantity(THICKNESS, 2e-9)]
      for pair in FINESSE_TABLE.values()),
    [UncertainQuantity(F00, 60.0), UncertainQuantity(F00 * 1.05, 300.0),
     UncertainQuantity(THICKNESS, 2e-9)],
    [UncertainQuantity(F00, 60.0), UncertainQuantity(14160.0, 250.0),
     UncertainQuantity(THICKNESS, 0.0)],
], ids=[*FINESSE_TABLE, "f01-above-f00", "exact-thickness"])
def test_factored_extinction_sigma_is_the_full_tensor_sigma(f00, f01, h):
    # kappa's sigma from its factors' 64 + 8 nodes against the two weighted
    # sums over all 512 (64 for an exact h), each by math.fsum
    grid = _full_grid([f00, f01, h])
    values = [cavity_optics._kappa(WAVELENGTH, *point) for _, point in grid]
    mean = math.fsum(w * v for (w, _), v in zip(grid, values))
    sigma = math.sqrt(math.fsum(w * (v - mean) ** 2 for (w, _), v in zip(grid, values)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kappa = extinction_from_finesse(f00, f01, h, WAVELENGTH)
    negative = f01.value > f00.value
    assert [w.category for w in caught] == [NegativeExtinctionWarning] * negative
    assert (kappa.value < 0) == negative
    assert len(grid) == (512 if h.sigma else 64)
    assert abs(kappa.sigma / sigma - 1.0) <= 1e-13


def test_extinction_whose_weighted_variance_overflows_is_an_evaluation_error():
    # kappa's scale -lambda/(8 pi h) is ~1e292 m^-1 for a 1e-300 m film; no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError,
                           match="^the weighted variance over 512 cubature nodes overflows$"):
            extinction_from_finesse(UncertainQuantity(F00, 60.0), UncertainQuantity(14160.0, 250.0),
                                    UncertainQuantity(1e-300, 1e-301), WAVELENGTH)


def test_extinction_past_the_float_range_of_u_is_an_evaluation_error():
    # _u squares F: above 1.34e154 only each finesse's top node, 15 of the 64
    # (F00, F01) nodes, times h's 8
    with pytest.raises(EvaluationError, match=r"^f is not finite at 120/512 cubature nodes$"):
        extinction_from_finesse(UncertainQuantity(1e154, 1e153), UncertainQuantity(1e154, 1e153),
                                UncertainQuantity(3e-8, 2e-9), 1.65e-6)


def _outcome(call, *args):
    """(value, sigma) of call(*args) in hex, or the type and text of its error."""
    try:
        kappa = call(*args)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)
    return kappa.value.hex(), kappa.sigma.hex()


def _extinction_node_by_node(f00, f01, h, wavelength_m):
    """kappa and its sigma with u = 1 - r0 of each finesse taken inside the
    function at every node of the (F00, F01) grid, not once per axis node."""
    def log_transmission(x00, x01):
        return cavity_optics._log_transmission(cavity_optics._u(x00), cavity_optics._u(x01))

    per_thickness = functools.partial(cavity_optics._per_thickness, wavelength_m)
    sigma = _product_cubature([(log_transmission, [f00, f01]), (per_thickness, [h])]).sigma
    return UncertainQuantity(per_thickness(h.value) * log_transmission(f00.value, f01.value), sigma)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


# a finesse below 1e150, or around the 1.34e154 where _u overflows at all
# of its nodes or, within a factor 1.6 of it, at some
_finesse = st.one_of(_log_uniform(0.0, 150.0), _log_uniform(150.0, 160.0),
                     _log_uniform(153.9, 154.3))
# a relative sigma of 0 (an exact input) or up to 0.2, so the lowest node, at
# value - 4.1445 sigma, stays > 0
_relative_sigma = st.one_of(st.just(0.0), _log_uniform(-8.0, math.log10(0.2)))


@settings(max_examples=200, derandomize=True)
@given(f00=_finesse, f01=_finesse, h=_log_uniform(-12.0, -3.0),
       s00=_relative_sigma, s01=_relative_sigma, sh=_relative_sigma)
def test_transformed_extinction_is_the_node_by_node_chain(f00, f01, h, s00, s01, sh):
    # finesse up to 1e160, past the 1.34e154 where _u overflows: the same
    # bits, or the same error and text
    inputs = [UncertainQuantity(f00, s00 * f00), UncertainQuantity(f01, s01 * f01),
              UncertainQuantity(h, sh * h)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeExtinctionWarning)
        assert (_outcome(extinction_from_finesse, *inputs, WAVELENGTH)
                == _outcome(_extinction_node_by_node, *inputs, WAVELENGTH))


@pytest.mark.parametrize("f01", [
    UncertainQuantity(500.0, 250.0),
    # about 0.04% of its draws are <= 0: a Monte Carlo would discard them
    UncertainQuantity(1000.0, 300.0),
], ids=["500+/-250", "1000+/-300"])
def test_extinction_input_at_or_below_zero_at_its_lowest_node_is_a_domain_error(f01):
    with pytest.raises(DomainError, match=r"^finesse F01 = .* <= 0 at its lowest cubature node"):
        extinction_from_finesse(
            UncertainQuantity(F00, 60.0), f01, UncertainQuantity(THICKNESS, 2e-9), WAVELENGTH
        )


def test_extinction_domain_error_for_invalid_reflectivities():
    with pytest.raises(DomainError):
        extinction_from_reflectivities(1.5, 0.1, THICKNESS, WAVELENGTH)


def test_extinction_no_excess_loss_is_zero():
    kappa = extinction_from_finesse(
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(F00, 0.0),
        UncertainQuantity(THICKNESS, 0.0),
        WAVELENGTH,
    )
    assert kappa.value == pytest.approx(0.0, abs=1e-18)


def test_extinction_negative_with_warning_when_finesse_improves():
    with pytest.warns(NegativeExtinctionWarning):
        kappa = extinction_from_finesse(
            UncertainQuantity(F00, 0.0),
            UncertainQuantity(F00 * 1.05, 0.0),
            UncertainQuantity(THICKNESS, 0.0),
            WAVELENGTH,
        )
    assert kappa.value < 0


def exact_kappa(f00, f01):
    return extinction_from_finesse(
        UncertainQuantity(f00, 0.0),
        UncertainQuantity(f01, 0.0),
        UncertainQuantity(THICKNESS, 0.0),
        WAVELENGTH,
    ).value


def test_extinction_without_cancellation_against_mpmath():
    # r0^2 - r1^2 is formed from u = 1 - r, and kappa takes its log1p
    with mpmath.workdps(60):
        for f01, _ in FINESSE_TABLE.values():
            exact = mp_kappa(F00, f01, THICKNESS, WAVELENGTH)
            assert abs(exact_kappa(F00, f01) / exact - 1) <= 4e-15, f01
        # F01 one count below F00: the conditioning allows about 3e-12
        exact = mp_kappa(F00, 23339.0, THICKNESS, WAVELENGTH)
        assert abs(exact_kappa(F00, 23339.0) / exact - 1) <= 1e-11


@pytest.mark.parametrize("f01", [14160.0, 22120.0, 23339.0])
def test_extinction_from_reflectivities_against_mpmath(f01):
    # kappa of the given floats r0, r1; the loss r0^2 - r1^2 is formed as
    # (r0 - r1)(r0 + r1), r0 - r1 exact, where 1 - r0^2 + r1^2 lost up to
    # 3.3e-9 (at F01 = 23339)
    r0 = float(cavity_optics._r0(F00))
    r1 = float(cavity_optics._r1(f01, r0))
    kappa = extinction_from_reflectivities(r0, r1, THICKNESS, WAVELENGTH)
    with mpmath.workdps(60):
        r0_mp, r1_mp = mpmath.mpf(r0), mpmath.mpf(r1)
        exact = -(mpmath.mpf(WAVELENGTH) / (8 * mpmath.pi * mpmath.mpf(THICKNESS))) * mpmath.log(
            1 - r0_mp**2 + r1_mp**2
        )
        assert abs(kappa / exact - 1) <= 4e-15


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
            UncertainQuantity(THICKNESS, 0.0),
            WAVELENGTH,
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
    m = MirrorState(r0, 1.18e-4)
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
