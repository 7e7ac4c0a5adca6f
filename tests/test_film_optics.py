import math

import mpmath
import numpy as np
import pytest

from cavitycharge.errors import ParameterError
from cavitycharge.film_optics import drude_index
from cavitycharge.quantities import CODATA

mpmath.mp.dps = 40

# ZnO: eps_inf = 3.6, m* = 0.24 m_e
EPS_INF = 3.6
M_STAR = 0.24 * CODATA.m_e
LAM = 1650e-9
OMEGA = 2.0 * math.pi * CODATA.c / LAM


def density_for(plasma_frequency):
    """Carrier density (1/m^3) with omega_p = plasma_frequency."""
    return plasma_frequency**2 * CODATA.eps0 * M_STAR / CODATA.e**2


def mobility_for(damping):
    """Mobility (m^2/(V s)) with gamma = damping."""
    return CODATA.e / (M_STAR * damping)


def kappa_ratio(carrier_density, mobility):
    """kappa(2 lambda) / kappa(lambda) at lambda = 1650 nm."""
    return (drude_index(carrier_density, mobility, 2.0 * LAM).imag
            / drude_index(carrier_density, mobility, LAM).imag)


def test_drude_lossless_above_plasma_edge():
    # omega_p = omega / 10 and gamma ~ 1e-9 omega: nearly real eps_inf - 0.01
    idx = drude_index(density_for(OMEGA / 10.0), mobility_for(1e-9 * OMEGA), LAM)
    assert idx.imag < 1e-10
    assert idx.real == pytest.approx(math.sqrt(3.6 - 0.01), rel=1e-12)


def test_drude_no_carriers():
    # a vanishing carrier density leaves the bare background index
    idx = drude_index(1e10, 37e-4, LAM)
    assert idx.real == pytest.approx(math.sqrt(3.6), rel=1e-14)
    assert idx.imag < 1e-15


@pytest.mark.parametrize("args", [(0.0, 37e-4, LAM), (2e25, -1.0, LAM), (2e25, 37e-4, 0.0)])
def test_drude_index_refuses_non_positive_inputs(args):
    with pytest.raises(ParameterError):
        drude_index(*args)


def test_drude_index_squares_back_to_permittivity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = 10 ** rng.uniform(22.0, 27.0)
        mu = 10 ** rng.uniform(-4.0, -1.0)
        lam = rng.uniform(0.4e-6, 2.5e-6)
        omega = 2.0 * math.pi * CODATA.c / lam
        wp2 = n * CODATA.e**2 / (CODATA.eps0 * M_STAR)
        gamma = CODATA.e / (M_STAR * mu)
        eps = EPS_INF - wp2 / (omega * (omega + 1j * gamma))
        assert abs(drude_index(n, mu, lam) ** 2 - eps) <= 1e-12 * abs(eps)


def test_drude_from_transport_against_extended_precision():
    # transport_zno1: 2e19 cm^-3 carriers, 37 cm^2/(V s)
    idx = drude_index(2e25, 3.7e-3, LAM)
    mp = mpmath.mpf
    m_star = mp("0.24") * mp(CODATA.m_e)
    wp2 = mp(2e25) * mp(CODATA.e) ** 2 / (mp(CODATA.eps0) * m_star)
    gamma = mp(CODATA.e) / (m_star * mp("3.7e-3"))
    omega = mp(2) * mpmath.pi * mp(CODATA.c) / mp(LAM)
    n_tilde = mpmath.sqrt(mp("3.6") - wp2 / (omega**2 + 1j * gamma * omega))
    assert idx.real == pytest.approx(float(n_tilde.real), rel=1e-12)
    assert idx.imag == pytest.approx(float(n_tilde.imag), rel=1e-12)
    # the recipe film absorbs at the 1e-2 level before annealing
    assert 1e-3 < idx.imag < 1e-1


def test_drude_kappa_decreases_as_damping_vanishes():
    # above the plasma edge the extinction is damping-driven; gamma ~ 1/mu
    kappas = [drude_index(2e25, mu, LAM).imag for mu in (37e-4, 1e-2, 0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))
    assert kappas[-1] < 1e-3 * kappas[0]


def test_lambda_cubed_ratio_in_regime():
    # 100x fewer carriers and 10x the mobility of transport_zno1
    assert 7.2 <= kappa_ratio(2e23, 370e-4) <= 8.8


def test_lambda_cubed_ratio_regime_violation_flagged():
    # damping ~ omega: the ratio leaves the lambda^3 band
    ratio = kappa_ratio(density_for(OMEGA / 10.0), mobility_for(OMEGA))
    assert not 7.2 <= ratio <= 8.8


def test_lambda_cubed_ratio_weak_damping_limit():
    # gamma -> 0+: kappa follows the first-order imaginary part and the
    # ratio approaches 8 up to the small index dispersion
    ratio = kappa_ratio(density_for(OMEGA / 30.0), mobility_for(1e-6 * OMEGA))
    assert ratio == pytest.approx(8.0, rel=0.01)
