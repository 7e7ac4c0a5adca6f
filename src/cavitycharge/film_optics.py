"""Drude free-carrier index of a zinc oxide film from its Hall numbers.

Free carriers in a doped oxide follow the Drude dielectric function

    eps(omega) = eps_inf - omega_p^2 / (omega^2 + i gamma omega)

with omega_p^2 = n e^2 / (eps0 m*), gamma = e / (m* mu) and the complex
index n~ = n + i kappa = sqrt(eps) (principal branch). Well above the
damping rate and below the plasma edge the intraband extinction scales as
kappa ~ lambda^3, so kappa(2 lambda)/kappa(lambda) -> 8.
"""

from __future__ import annotations

import cmath
import math

from .quantities import CODATA, positive

__all__ = ["drude_index"]

# background permittivity and conduction-band effective mass (in m_e) of wurtzite ZnO
_EPS_INF = 3.6
_EFFECTIVE_MASS_RATIO = 0.24


def drude_index(
    carrier_density_per_m3: float, mobility_m2_per_vs: float, wavelength_m: float
) -> complex:
    """Complex index n + i kappa of ZnO with the given carrier density (1/m^3)
    and Hall mobility (m^2/(V s)) at a vacuum wavelength (m)."""
    density = positive("carrier density", carrier_density_per_m3)
    mobility = positive("mobility", mobility_m2_per_vs)
    wavelength = positive("wavelength", wavelength_m)
    m_star = _EFFECTIVE_MASS_RATIO * CODATA.m_e
    omega_p = math.sqrt(density * CODATA.e**2 / (CODATA.eps0 * m_star))
    gamma = CODATA.e / (m_star * mobility)
    omega = 2.0 * math.pi * CODATA.c / wavelength
    n_tilde = cmath.sqrt(_EPS_INF - omega_p**2 / (omega**2 + 1j * gamma * omega))
    # principal branch gives Re >= 0; imag can be -0.0 for real eps
    return complex(n_tilde.real, abs(n_tilde.imag))
