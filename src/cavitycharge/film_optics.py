"""Lossy-film optics: attenuation, Drude free-carrier response, Tauc gap.

The complex refractive index n~ = n + i kappa controls power attenuation
over a path z as exp(-(4 pi / lambda) kappa z). Free carriers in a doped
oxide follow the Drude dielectric function

    eps(omega) = eps_inf - omega_p^2 / (omega^2 + i gamma omega)

with n~ = sqrt(eps) (principal branch). Well above the damping rate and
below the plasma edge the intraband extinction scales as kappa ~ lambda^3,
so kappa(2 lambda)/kappa(lambda) -> 8.

Direct band gaps are read off a Tauc plot: (alpha * E)^2 against photon
energy E is linear near the edge and extrapolates to zero at the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FitError, ParameterError, SchemaError
from .quantities import CODATA, UncertainQuantity

__all__ = [
    "ComplexIndex",
    "DrudeModel",
    "AbsorptionSpectrum",
    "LambdaCubedRatio",
    "power_attenuation",
    "alpha_from_kappa",
    "kappa_from_alpha",
    "drude_index",
    "drude_from_transport",
    "lambda_cubed_ratio",
    "tauc_bandgap",
    "load_spectrum_csv",
]


@dataclass(frozen=True)
class ComplexIndex:
    n: float
    kappa: float
    wavelength_m: float

    def __post_init__(self) -> None:
        if self.n < 0 or self.kappa < 0:
            raise ParameterError("n and kappa must be non-negative")


@dataclass(frozen=True)
class DrudeModel:
    """Free-carrier dielectric response parameters (angular frequencies)."""

    eps_inf: float
    plasma_frequency: float  # rad/s
    damping: float           # rad/s

    def __post_init__(self) -> None:
        if self.eps_inf <= 0:
            raise ParameterError("eps_inf must be positive")
        if self.plasma_frequency < 0 or self.damping < 0:
            raise ParameterError("plasma frequency and damping must be >= 0")

    def permittivity(self, omega: float) -> complex:
        return self.eps_inf - self.plasma_frequency**2 / (
            omega**2 + 1j * self.damping * omega
        )


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Absorption coefficient alpha(E) on a strictly increasing energy grid."""

    energies_ev: np.ndarray
    alpha_per_m: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies_ev, dtype=float)
        a = np.asarray(self.alpha_per_m, dtype=float)
        if e.ndim != 1 or e.shape != a.shape:
            raise ParameterError("energies and alpha must be 1-d arrays of equal length")
        if not np.all(np.diff(e) > 0):
            raise ParameterError("photon energies must be strictly increasing")
        if np.any(a < 0):
            raise ParameterError("absorption coefficients must be non-negative")
        e.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "energies_ev", e)
        object.__setattr__(self, "alpha_per_m", a)


@dataclass(frozen=True)
class LambdaCubedRatio:
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


def tauc_bandgap(
    spectrum: AbsorptionSpectrum, edge_window: tuple[float, float]
) -> UncertainQuantity:
    """Direct band gap from the linear edge of (alpha E)^2 vs E.

    Fits a least-squares line over the window and returns its x-intercept;
    the sigma comes from the fit covariance. Requires at least 4 in-window
    points and a positive fitted slope.
    """
    lo, hi = edge_window
    if not lo < hi:
        raise ParameterError(f"edge window must satisfy lo < hi, got {edge_window}")
    mask = (spectrum.energies_ev >= lo) & (spectrum.energies_ev <= hi)
    if mask.sum() < 4:
        raise ParameterError(
            f"edge window [{lo}, {hi}] eV holds {int(mask.sum())} points; need >= 4"
        )
    e = spectrum.energies_ev[mask]
    y = (spectrum.alpha_per_m[mask] * e) ** 2
    (slope, intercept), cov = np.polyfit(e, y, 1, cov="unscaled")
    resid = y - (slope * e + intercept)
    dof = max(e.size - 2, 1)
    cov = cov * float(resid @ resid) / dof
    if slope <= 0:
        raise FitError(f"fitted Tauc slope is non-positive ({slope:.3e})")
    gap = -intercept / slope
    grad = np.array([intercept / slope**2, -1.0 / slope])
    var = float(grad @ cov @ grad)
    return UncertainQuantity(float(gap), math.sqrt(max(var, 0.0)), "eV")


_INDEX_HEADER = ("wavelength_nm", "n", "kappa")
_ALPHA_HEADER = ("energy_ev", "alpha_per_cm")


def load_spectrum_csv(path) -> AbsorptionSpectrum:
    """Read a spectrum CSV, auto-detected by header.

    Accepts either `wavelength_nm,n,kappa` (converted through
    alpha = 4 pi kappa / lambda) or `energy_eV,alpha_per_cm`.
    """
    lines = [
        ln.strip()
        for ln in Path(path).read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise SchemaError(f"{path}: empty spectrum file")
    header = tuple(tok.strip().lower() for tok in lines[0].split(","))
    try:
        rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise SchemaError(f"{path}: unparsable data row ({exc})") from None
    if any(len(r) != len(header) for r in rows):
        raise SchemaError(f"{path}: rows do not match the {len(header)}-column header")
    if header == _INDEX_HEADER:
        lam = np.array([r[0] for r in rows]) * 1e-9
        kappa = np.array([r[2] for r in rows])
        energies = CODATA.h * CODATA.c / (lam * CODATA.e)
        alpha = 4.0 * math.pi * kappa / lam
    elif header == _ALPHA_HEADER:
        energies = np.array([r[0] for r in rows])
        alpha = np.array([r[1] for r in rows]) * 100.0
    else:
        raise SchemaError(
            f"{path}: unrecognized header {','.join(header)!r}; expected "
            f"{','.join(_INDEX_HEADER)!r} or {','.join(_ALPHA_HEADER)!r}"
        )
    order = np.argsort(energies)
    return AbsorptionSpectrum(energies[order], alpha[order])
