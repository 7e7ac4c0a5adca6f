import math

import mpmath
import numpy as np
import pytest

from cavitycharge.film_optics import (
    DrudeModel,
    alpha_from_kappa,
    drude_from_transport,
    drude_index,
    kappa_from_alpha,
    lambda_cubed_ratio,
    power_attenuation,
)
from cavitycharge.quantities import CODATA

mpmath.mp.dps = 40


# -- attenuation -------------------------------------------------------------


def test_attenuation_trivials():
    assert power_attenuation(0.0, 1550e-9, 1.0) == 1.0
    kappa, lam = 0.03, 1.3e-6
    z_e = lam / (4.0 * math.pi * kappa)
    assert power_attenuation(kappa, lam, z_e) == pytest.approx(1.0 / math.e, rel=1e-12)


def test_intracavity_film_finesse_scale():
    # 10 nm film with kappa = 0.04 at 1550 nm: the double pass per round
    # trip eats ~6.5e-3 of the power, capping the finesse near 1000
    loss = 1.0 - power_attenuation(0.04, 1550e-9, 20e-9)
    assert loss == pytest.approx(6.5e-3, rel=0.02)
    finesse_cap = 2.0 * math.pi / loss
    assert 500.0 < finesse_cap < 2000.0


def test_alpha_kappa_conversions_are_inverse():
    for kappa in (1e-5, 3.7e-4, 0.2):
        lam = 1.65e-6
        assert kappa_from_alpha(alpha_from_kappa(kappa, lam), lam) == pytest.approx(
            kappa, rel=1e-14
        )


# -- Drude model -------------------------------------------------------------


def test_drude_lossless_above_plasma_edge():
    omega = 2.0 * math.pi * CODATA.c / 1650e-9
    model = DrudeModel(eps_inf=3.6, plasma_frequency=omega / 10.0, damping=0.0)
    idx = drude_index(model, 1650e-9)
    assert idx.kappa == 0.0
    assert idx.n == pytest.approx(math.sqrt(3.6 - 0.01), rel=1e-12)


def test_drude_no_carriers():
    model = DrudeModel(eps_inf=3.6, plasma_frequency=0.0, damping=1e13)
    idx = drude_index(model, 1650e-9)
    assert idx.n == pytest.approx(math.sqrt(3.6), rel=1e-14)
    assert idx.kappa == 0.0


def test_drude_index_squares_back_to_permittivity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lam = rng.uniform(0.4e-6, 2.5e-6)
        omega = 2.0 * math.pi * CODATA.c / lam
        model = DrudeModel(
            eps_inf=rng.uniform(1.5, 5.0),
            plasma_frequency=rng.uniform(0.01, 0.9) * omega,
            damping=rng.uniform(1e-4, 0.5) * omega,
        )
        idx = drude_index(model, lam)
        eps = model.permittivity(omega)
        n_tilde_sq = complex(idx.n, idx.kappa) ** 2
        assert abs(n_tilde_sq - eps) <= 1e-12 * abs(eps)


def test_drude_from_transport_against_extended_precision():
    # 2e19 cm^-3 carriers, 37 cm^2/(V s), m* = 0.24 m_e, eps_inf = 3.6
    model = drude_from_transport(2e25, 3.7e-3)
    lam = 1650e-9
    idx = drude_index(model, lam)
    omega = mpmath.mpf(2) * mpmath.pi * mpmath.mpf(CODATA.c) / mpmath.mpf(lam)
    eps = mpmath.mpf(3.6) - mpmath.mpf(model.plasma_frequency) ** 2 / (
        omega**2 + 1j * mpmath.mpf(model.damping) * omega
    )
    n_tilde = mpmath.sqrt(eps)
    assert idx.n == pytest.approx(float(n_tilde.real), rel=1e-12)
    assert idx.kappa == pytest.approx(float(n_tilde.imag), rel=1e-12)
    # the recipe film absorbs at the 1e-2 level before annealing
    assert 1e-3 < idx.kappa < 1e-1


def test_drude_kappa_decreases_as_damping_vanishes():
    # above the plasma edge the extinction is damping-driven
    omega = 2.0 * math.pi * CODATA.c / 1650e-9
    kappas = [
        drude_index(DrudeModel(3.6, omega / 10.0, g * omega), 1650e-9).kappa
        for g in (0.3, 0.1, 0.03, 0.01, 0.0)
    ]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] == 0.0


def test_lambda_cubed_ratio_in_regime():
    omega = 2.0 * math.pi * CODATA.c / 1650e-9
    model = DrudeModel(3.6, omega / 10.0, omega / 100.0)
    out = lambda_cubed_ratio(model, 1650e-9)
    assert out.regime_ok
    assert 7.2 <= out.ratio <= 8.8


def test_lambda_cubed_ratio_regime_violation_flagged():
    omega = 2.0 * math.pi * CODATA.c / 1650e-9
    noisy = DrudeModel(3.6, omega / 10.0, omega)  # damping ~ omega
    out = lambda_cubed_ratio(noisy, 1650e-9)
    assert not out.regime_ok


def test_lambda_cubed_ratio_weak_damping_limit():
    # gamma -> 0+: kappa follows the first-order imaginary part and the
    # ratio approaches 8 up to the small index dispersion
    omega = 2.0 * math.pi * CODATA.c / 1650e-9
    model = DrudeModel(3.6, omega / 30.0, omega * 1e-6)
    out = lambda_cubed_ratio(model, 1650e-9)
    assert out.regime_ok
    assert out.ratio == pytest.approx(8.0, rel=0.01)
