"""Lossy-film optics: attenuation and the Drude free-carrier response.

The complex refractive index n~ = n + i kappa controls power attenuation
over a path z as exp(-(4 pi / lambda) kappa z). Free carriers in a doped
oxide follow the Drude dielectric function

    eps(omega) = eps_inf - omega_p^2 / (omega^2 + i gamma omega)

with n~ = sqrt(eps) (principal branch). Well above the damping rate and
below the plasma edge the intraband extinction scales as kappa ~ lambda^3,
so kappa(2 lambda)/kappa(lambda) -> 8.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .quantities import CODATA, CheckedRecord

__all__ = [
    "ComplexIndex",
    "DrudeModel",
    "LambdaCubedRatio",
    "power_attenuation",
    "alpha_from_kappa",
    "kappa_from_alpha",
    "drude_index",
    "drude_from_transport",
    "lambda_cubed_ratio",
]


_Index = NamedTuple("_Index", [("n", float), ("kappa", float), ("wavelength_m", float)])


class ComplexIndex(CheckedRecord, _Index):
    __slots__ = ()

    def __new__(cls, n: float, kappa: float, wavelength_m: float):
        if n < 0 or kappa < 0:
            raise ParameterError("n and kappa must be non-negative")
        return super().__new__(cls, n, kappa, wavelength_m)


_Drude = NamedTuple("_Drude", [("eps_inf", float), ("plasma_frequency", float),
                               ("damping", float)])


class DrudeModel(CheckedRecord, _Drude):
    """Free-carrier dielectric response: plasma_frequency and damping are
    angular frequencies, rad/s."""

    __slots__ = ()

    def __new__(cls, eps_inf: float, plasma_frequency: float, damping: float):
        if eps_inf <= 0:
            raise ParameterError("eps_inf must be positive")
        if plasma_frequency < 0 or damping < 0:
            raise ParameterError("plasma frequency and damping must be >= 0")
        return super().__new__(cls, eps_inf, plasma_frequency, damping)

    def permittivity(self, omega: float) -> complex:
        return self.eps_inf - self.plasma_frequency**2 / (
            omega**2 + 1j * self.damping * omega
        )


class LambdaCubedRatio(NamedTuple):
    ratio: float
    regime_ok: bool


def power_attenuation(kappa: float, wavelength_m: float, z_m: float) -> float:
    """Power transmission exp(-(4 pi / lambda) kappa z) through thickness z."""
    if kappa < 0 or wavelength_m <= 0 or z_m < 0:
        raise ParameterError("kappa, wavelength and path must be non-negative")
    return math.exp(-4.0 * math.pi * kappa * z_m / wavelength_m)


def alpha_from_kappa(kappa: float, wavelength_m: float) -> float:
    """Absorption coefficient alpha = 4 pi kappa / lambda (1/m)."""
    return 4.0 * math.pi * kappa / wavelength_m


def kappa_from_alpha(alpha_per_m: float, wavelength_m: float) -> float:
    return alpha_per_m * wavelength_m / (4.0 * math.pi)


def drude_index(model: DrudeModel, wavelength_m: float) -> ComplexIndex:
    """Complex index at a wavelength, principal square root of eps(omega)."""
    if wavelength_m <= 0:
        raise ParameterError(f"wavelength must be positive, got {wavelength_m}")
    omega = 2.0 * math.pi * CODATA.c / wavelength_m
    n_tilde = np.sqrt(complex(model.permittivity(omega)))
    # principal branch gives Re >= 0; imag can be -0.0 for real eps
    return ComplexIndex(float(n_tilde.real), abs(float(n_tilde.imag)), wavelength_m)


def drude_from_transport(
    carrier_density_per_m3: float,
    mobility_m2_per_vs: float,
    eps_inf: float = 3.6,
    effective_mass_ratio: float = 0.24,
) -> DrudeModel:
    """Build a Drude model from Hall-transport numbers.

    omega_p^2 = n e^2 / (eps0 m*), gamma = e / (m* mu). The conduction-band
    effective mass and the background permittivity are material choices; the
    defaults (m* = 0.24 m_e, eps_inf = 3.6) suit wurtzite zinc oxide and can
    be overridden.
    """
    if carrier_density_per_m3 <= 0 or mobility_m2_per_vs <= 0:
        raise ParameterError("carrier density and mobility must be positive")
    m_star = effective_mass_ratio * CODATA.m_e
    omega_p = math.sqrt(
        carrier_density_per_m3 * CODATA.e**2 / (CODATA.eps0 * m_star)
    )
    gamma = CODATA.e / (m_star * mobility_m2_per_vs)
    return DrudeModel(eps_inf, omega_p, gamma)


def lambda_cubed_ratio(
    model: DrudeModel,
    wavelength_m: float,
    min_omega_over_gamma: float = 10.0,
    max_plasma_fraction: float = 0.1,
) -> LambdaCubedRatio:
    """kappa(2 lambda) / kappa(lambda); -> 8 in the free-carrier regime.

    regime_ok records whether omega >> gamma and omega_p^2/omega^2 << eps_inf
    hold at both wavelengths (thresholds 10x and 0.1x eps_inf).
    """
    ok = True
    for lam in (wavelength_m, 2.0 * wavelength_m):
        omega = 2.0 * math.pi * CODATA.c / lam
        if model.damping > 0 and omega < min_omega_over_gamma * model.damping:
            ok = False
        if model.plasma_frequency**2 / omega**2 > max_plasma_fraction * model.eps_inf:
            ok = False
    k1 = drude_index(model, wavelength_m).kappa
    k2 = drude_index(model, 2.0 * wavelength_m).kappa
    if k1 == 0.0:
        raise ParameterError("kappa(lambda) is zero; ratio undefined")
    return LambdaCubedRatio(k2 / k1, ok)
