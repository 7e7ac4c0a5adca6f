"""Finesse <-> mirror reflectivity <-> thin-film extinction conversions.

For a two-mirror cavity with amplitude reflectivities r_i, r_j the finesse
is

    F_ij = pi sqrt(r_i r_j) / (1 - r_i r_j)

Inverting for the symmetric cavity (both mirrors r0) and for the cavity
with one modified mirror (r1) gives

    r0 = (sqrt(4 F00^2 + pi^2) - pi) / (2 F00)
    r1 = (1/r0) * ((sqrt(4 F01^2 + pi^2) - pi) / (2 F01))^2

A mirror's transmittance plus fractional power loss is 1 - r^2. When one
mirror gains a film of thickness h and the finesse drops from F00 to F01,
the excess loss r0^2 - r1^2 is ascribed entirely to absorption in the film
(transmission assumed unchanged). With the double-pass path 2h,

    r0^2 - r1^2 = 1 - exp(-(4 pi / lambda) kappa 2h)
    kappa = -(lambda / (8 pi h)) ln(1 - r0^2 + r1^2)

A finesse increase (F01 > F00) yields a negative kappa; this is reported
with a warning rather than rejected, since annealing can genuinely reduce
mirror loss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, ParameterError
from .quantities import UncertainQuantity, as_quantity, propagate_linear, propagate_monte_carlo

__all__ = [
    "MirrorState",
    "NegativeExtinctionWarning",
    "r0_from_symmetric_finesse",
    "r1_from_asymmetric_finesse",
    "extinction_from_reflectivities",
    "extinction_from_finesse",
    "excess_reflection_loss",
    "resonant_response",
]


class NegativeExtinctionWarning(UserWarning):
    """The modified cavity has higher finesse; extracted kappa is negative."""


@dataclass(frozen=True)
class MirrorState:
    """Amplitude reflectivity and power transmission of one mirror."""

    r: float
    T: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not 0.0 < self.r < 1.0:
            raise ParameterError(f"amplitude reflectivity must be in (0,1), got {self.r}")
        if not 0.0 <= self.T <= 1.0 - self.r**2:
            raise ParameterError(
                f"transmission {self.T} exceeds the power budget 1-r^2 = {1 - self.r ** 2:.3e}"
            )

    @property
    def loss(self) -> float:
        """Fractional power loss 1 - r^2 - T."""
        return 1.0 - self.r**2 - self.T


def _r0_scalar(f00):
    # 1 - r0 = 2 pi / (2F + pi + sqrt(4F^2 + pi^2)): cancellation-free
    # rearrangement of (sqrt(4F^2 + pi^2) - pi)/(2F)
    return 1.0 - 2.0 * math.pi / (
        2.0 * f00 + math.pi + np.sqrt(4.0 * f00**2 + math.pi**2)
    )


def r0_from_symmetric_finesse(f00) -> UncertainQuantity:
    """Bare-mirror reflectivity from the symmetric-cavity finesse."""
    q = as_quantity(f00)
    if q.value <= 0:
        raise ParameterError(f"finesse must be positive, got {q.value}")
    return propagate_linear(_r0_scalar, [q])


def r1_from_asymmetric_finesse(f01, r0) -> UncertainQuantity:
    """Modified-mirror reflectivity from the mixed-cavity finesse."""
    q01 = as_quantity(f01)
    q0 = as_quantity(r0)
    if q01.value <= 0:
        raise ParameterError(f"finesse must be positive, got {q01.value}")
    if not 0.0 < q0.value < 1.0:
        raise ParameterError(f"r0 must be in (0,1), got {q0.value}")
    r1 = _r0_scalar(q01.value) ** 2 / q0.value
    if not 0.0 < r1 < 1.0:
        raise ConsistencyError(
            f"implied r1 = {r1} is outside (0,1); finesse {q01.value} is "
            f"incompatible with r0 = {q0.value}"
        )
    return propagate_linear(lambda f, r: _r0_scalar(f) ** 2 / r, [q01, q0])


def extinction_from_reflectivities(
    r0: float, r1: float, thickness_m: float, wavelength_m: float
) -> float:
    """kappa from the bare/modified reflectivity pair (double-pass path 2h)."""
    if thickness_m <= 0 or wavelength_m <= 0:
        raise ParameterError("film thickness and wavelength must be positive")
    arg = 1.0 - r0**2 + r1**2
    if arg <= 0:
        raise DomainError(f"log argument 1 - r0^2 + r1^2 = {arg} is non-positive")
    return -(wavelength_m / (8.0 * math.pi * thickness_m)) * math.log(arg)


def extinction_from_finesse(
    f00,
    f01,
    thickness,
    wavelength_m: float,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> UncertainQuantity:
    """Film extinction coefficient from the finesse pair.

    The central value is the deterministic chain F00,F01,h -> r0,r1 ->
    kappa; the uncertainty is the propagate_monte_carlo standard deviation
    over normal draws of F00, F01 and h with a fixed seed. Draws with a
    non-positive F00, F01 or h are non-finite samples under that engine's
    1% policy.
    """
    q00 = as_quantity(f00)
    q01 = as_quantity(f01)
    h = as_quantity(thickness, "m")
    if q00.value <= 0 or q01.value <= 0:
        raise ParameterError("finesse values must be positive")
    if h.value <= 0:
        raise ParameterError(f"film thickness must be positive, got {h.value}")
    r0c = _r0_scalar(q00.value)
    r1c = _r0_scalar(q01.value) ** 2 / r0c
    central = extinction_from_reflectivities(r0c, r1c, h.value, wavelength_m)
    if q01.value > q00.value:
        warnings.warn(
            "modified cavity has higher finesse; kappa is negative "
            "(excess loss removed rather than added)",
            NegativeExtinctionWarning,
            stacklevel=2,
        )

    def kappa(f00_s, f01_s, h_s):
        r0_s = _r0_scalar(f00_s)
        r1_s = _r0_scalar(f01_s) ** 2 / r0_s
        k = -(wavelength_m / (8.0 * math.pi * h_s)) * np.log(1.0 - r0_s**2 + r1_s**2)
        return np.where((f00_s > 0) & (f01_s > 0) & (h_s > 0), k, np.nan)

    mc = propagate_monte_carlo(kappa, [q00, q01, h], mc_samples, seed)
    return UncertainQuantity(central, mc.sigma)


def excess_reflection_loss(f00, f01) -> UncertainQuantity:
    """Reflection variation r0^2 - r1^2 between bare and modified cavities."""
    q00 = as_quantity(f00)
    q01 = as_quantity(f01)
    if q00.value <= 0 or q01.value <= 0:
        raise ParameterError("finesse values must be positive")

    def loss(f0, f1):
        r0 = _r0_scalar(f0)
        r1 = _r0_scalar(f1) ** 2 / r0
        return r0**2 - r1**2

    return propagate_linear(loss, [q00, q01])


def resonant_response(mirror_a: MirrorState, mirror_b: MirrorState) -> dict:
    """On-resonance power transmission and reflection dip.

    Single-sided incidence on mirror a:

        T_c = T_a T_b / (1 - r_a r_b)^2
        R_c = ((r_a - r_b (r_a^2 + T_a)) / (1 - r_a r_b))^2

    A lossless impedance-matched cavity (T = 1 - r^2 on both mirrors)
    transmits fully: T_c = 1, R_c = 0.
    """
    ra, rb = mirror_a.r, mirror_b.r
    denom = 1.0 - ra * rb
    t_c = mirror_a.T * mirror_b.T / denom**2
    r_c = ((ra - rb * (ra**2 + mirror_a.T)) / denom) ** 2
    return {"transmission": t_c, "reflection_dip": r_c}
