import math

import numpy as np
import pytest
from scipy import constants as sc

from cavitycharge.electrostatics import (
    ChargeScenario,
    charge_for_field,
    disc_point_ratios,
    expansion_coefficients,
    field_at,
    single_charge_field,
)
from cavitycharge.errors import DomainError, ParameterError
from cavitycharge.quantities import CODATA

K_E = 1.0 / (4.0 * math.pi * sc.epsilon_0)
X_Q = 200e-6


# the two potentials expansion_coefficients is checked against

def _check_domain(x_m, x_q_m):
    if abs(x_m) >= x_q_m:
        raise DomainError(f"|x| = {abs(x_m)} m is outside the model domain |x| < {x_q_m} m")


def potential_exact(s, x_m):
    """Exact two-point-charge interaction energy (J) for |x| < x_Q."""
    _check_domain(x_m, s.x_q_m)
    s_q = CODATA.e * CODATA.k_e
    q1 = s.q1_e * CODATA.e
    q2 = s.q2_e * CODATA.e
    return s_q * (q1 / abs(x_m + s.x_q_m) + q2 / abs(x_m - s.x_q_m))


def potential_quadratic(coeffs, x_m):
    """Second-order interaction energy s_q (A x + B x^2 + C), in J."""
    _check_domain(x_m, coeffs.x_q_m)
    return coeffs.s_q * (coeffs.A * x_m + coeffs.B * x_m**2 + coeffs.C_const)


def test_coefficients_symmetric_pair():
    c = expansion_coefficients(ChargeScenario(7.0, 7.0, X_Q))
    assert c.A == 0.0
    assert c.B == pytest.approx(2 * 7 * sc.e / X_Q**3, rel=1e-12)
    assert c.C_const == pytest.approx(2 * 7 * sc.e / X_Q, rel=1e-12)


def test_coefficients_single_charge():
    c = expansion_coefficients(ChargeScenario(1400.0, 0.0, X_Q))
    assert c.A == pytest.approx(-1400 * sc.e / X_Q**2, rel=1e-12)
    assert c.B == pytest.approx(1400 * sc.e / X_Q**3, rel=1e-12)


def test_coefficients_zero_charges():
    c = expansion_coefficients(ChargeScenario(0.0, 0.0, X_Q))
    assert (c.A, c.B, c.C_const) == (0.0, 0.0, 0.0)


def test_coefficient_sign_invariants():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q1, q2 = rng.uniform(-500, 500, size=2)
        c = expansion_coefficients(ChargeScenario(q1, q2, X_Q))
        assert math.copysign(1, c.A) == math.copysign(1, q2 - q1) or c.A == 0
        assert math.copysign(1, c.B) == math.copysign(1, q1 + q2) or c.B == 0
        assert math.copysign(1, c.C_const) == math.copysign(1, q1 + q2) or c.C_const == 0


def test_exact_potential_at_origin():
    s = ChargeScenario(20.0, 20.0, X_Q)
    s_q = sc.e * K_E
    assert potential_exact(s, 0.0) == pytest.approx(
        2 * s_q * 20 * sc.e / X_Q, rel=1e-12
    )


def test_exact_potential_mirror_symmetry():
    a = ChargeScenario(11.0, 3.0, X_Q)
    b = ChargeScenario(3.0, 11.0, X_Q)
    for x in (-0.6 * X_Q, -0.1 * X_Q, 0.3 * X_Q):
        assert potential_exact(a, x) == pytest.approx(potential_exact(b, -x), rel=1e-12)


def test_domain_restriction():
    s = ChargeScenario(5.0, 0.0, X_Q)
    with pytest.raises(DomainError):
        potential_exact(s, X_Q)
    with pytest.raises(DomainError):
        field_at(s, -1.5 * X_Q)
    with pytest.raises(DomainError):
        potential_quadratic(expansion_coefficients(s), X_Q)


def test_quadratic_expansion_remainder_is_cubic():
    s = ChargeScenario(37.0, -12.0, X_Q)
    coeffs = expansion_coefficients(s)
    xs = X_Q * np.array([0.02, 0.04, 0.06, 0.08, 0.10])
    ratios = []
    for x in xs:
        diff = potential_exact(s, x) - potential_quadratic(coeffs, x)
        ratios.append(abs(diff) / x**3)
    ratios = np.array(ratios)
    # bounded third-order coefficient: no blow-up as x -> 0
    assert ratios.max() < 3.0 * np.median(ratios)
    k_bound = 1.5 * ratios[-1]
    for x in xs:
        diff = potential_exact(s, x) - potential_quadratic(coeffs, x)
        assert abs(diff) <= k_bound * x**3


def test_field_reference_values():
    assert field_at(ChargeScenario(54.0, 0.0, X_Q), 0.0) == pytest.approx(1.9, rel=0.05)
    assert field_at(ChargeScenario(140.0, 0.0, X_Q), 0.0) == pytest.approx(5.1, rel=0.05)
    assert field_at(ChargeScenario(33.0, 33.0, X_Q), 0.0) == 0.0
    # direct arithmetic oracle
    assert field_at(ChargeScenario(54.0, 0.0, X_Q), 0.0) == pytest.approx(
        K_E * 54 * sc.e / X_Q**2, rel=1e-12
    )


def test_field_matches_quadratic_potential_gradient():
    s = ChargeScenario(23.0, -40.0, X_Q)
    coeffs = expansion_coefficients(s)
    for x in np.linspace(-0.5 * X_Q, 0.5 * X_Q, 11):
        step = 1e-6 * X_Q
        grad = (
            potential_quadratic(coeffs, x + step) - potential_quadratic(coeffs, x - step)
        ) / (2 * step)
        fd_field = -grad / sc.e  # unit test charge
        assert field_at(s, x) == pytest.approx(fd_field, rel=1e-6)
        # analytic identity against the expansion coefficients
        assert field_at(s, x) == pytest.approx(
            -(coeffs.A + 2 * coeffs.B * x) * K_E, rel=1e-12
        )


def test_disc_point_calibration_ratios():
    out = disc_point_ratios(125e-6, 200e-6)
    assert out["u_ratio"] == pytest.approx(0.92, abs=0.005)
    assert out["e_ratio"] == pytest.approx(0.78, abs=0.005)


def test_disc_ratios_limits():
    tiny = disc_point_ratios(1e-9, 200e-6)
    assert tiny["u_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert tiny["e_ratio"] == pytest.approx(1.0, abs=1e-9)
    far = disc_point_ratios(125e-6, 10.0)
    assert far["u_ratio"] == pytest.approx(1.0, abs=1e-7)
    assert far["e_ratio"] == pytest.approx(1.0, abs=1e-7)


def test_outputs_linear_in_each_charge():
    base = ChargeScenario(10.0, 4.0, X_Q)
    doubled_q1 = ChargeScenario(20.0, 4.0, X_Q)
    x = 0.2 * X_Q
    u_base = potential_exact(base, x)
    u_only_q1 = potential_exact(ChargeScenario(10.0, 0.0, X_Q), x)
    u_doubled = potential_exact(doubled_q1, x)
    assert u_doubled - u_base == pytest.approx(u_only_q1, rel=1e-9)
    f1 = field_at(ChargeScenario(10.0, 0.0, X_Q), x)
    f2 = field_at(ChargeScenario(0.0, 4.0, X_Q), x)
    assert field_at(base, x) == pytest.approx(f1 + f2, rel=1e-9)
    assert field_at(doubled_q1, x) == pytest.approx(2 * f1 + f2, rel=1e-9)


def test_single_charge_field_inverse():
    field = single_charge_field(54.0, X_Q)
    assert charge_for_field(field, X_Q) == pytest.approx(54.0, rel=1e-12)


def test_scenario_validation():
    s = ChargeScenario(1.0, 1.0, 0.0)
    for call in (lambda: expansion_coefficients(s), lambda: field_at(s, 0.0)):
        with pytest.raises(ParameterError, match="x_Q must be positive, got 0.0"):
            call()
