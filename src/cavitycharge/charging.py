"""Laser-induced charging of a grounded conductive film on a mirror.

Stray light at power P and wavelength lambda ejects photoelectrons at a
rate eta P lambda/(h c) (quantum efficiency eta), i.e. a photocurrent
I = e * rate. The film of resistivity rho and thickness h has sheet
resistance R_s = rho/h; a round film grounded at its perimeter is
approximated as one square, R ~ R_s. Against the film-to-ground
capacitance C the steady state is

    V = I R,   Q = C V = R C I,   discharge time = R C.

A beam of waist w0 focused midway between mirrors at +/- x_Q clips the
mirror at relative intensity exp(-x_Q^2/w0^2)^2, which is what makes the
direct-illumination assumption pessimistic.

photocurrent reads a scenario [illumination] section
(scenario.IlluminationSection): power_w, wavelength_m, quantum_efficiency
and, when set, photon_rate_per_s; photoelectron_flux, the one home of the
rate eta P lambda/(h c), takes the power apart so that a sweep can vary it.
film_resistance reads a [film] section (scenario.FilmSection): rho_ohm_m
and thickness_m, the thickness that the report's extinction rows read too.
A section checks its keys' range rules when it is built. The other
functions take plain floats, which they check; the mirror distance is the
[charges] key xq_m.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .quantities import CODATA, positive

if TYPE_CHECKING:
    from .scenario import FilmSection, IlluminationSection

__all__ = [
    "Photocurrent",
    "EquilibriumCharge",
    "CapacitanceBreakdown",
    "photocurrent",
    "photoelectron_flux",
    "film_resistance",
    "equilibrium_charge",
    "gaussian_clipping_factor",
    "capacitance_breakdown",
    "transport_consistency",
]


class Photocurrent(NamedTuple):
    rate_per_s: float
    current_a: float


class EquilibriumCharge(NamedTuple):
    voltage_v: float
    charge_e: float
    rc_time_s: float


class CapacitanceBreakdown(NamedTuple):
    self_f: float
    mirror_pair_f: float
    electrode_f: float

    @property
    def total_f(self) -> float:
        return self.self_f + self.mirror_pair_f + self.electrode_f


def photocurrent(illumination: IlluminationSection) -> Photocurrent:
    """Photoelectron rate eta P lambda/(h c) and the resulting current.

    A photon_rate_per_s set in the section takes precedence over the flux
    formula.
    """
    rate = illumination.photon_rate_per_s
    if rate is None:
        rate = photoelectron_flux(illumination, illumination.power_w)
    return Photocurrent(rate, CODATA.e * rate)


def photoelectron_flux(illumination: IlluminationSection, power_w):
    """Photoelectrons per second, eta P lambda/(h c), at power_w (a float or
    an array) and the section's wavelength and quantum efficiency."""
    return (illumination.quantum_efficiency * power_w * illumination.wavelength_m
            / (CODATA.h * CODATA.c))


def film_resistance(film: FilmSection) -> float:
    """Film resistance in Ohm: the sheet resistance rho/h, since the round
    grounded film counts as one square."""
    return film.rho_ohm_m / film.thickness_m


def equilibrium_charge(
    resistance_ohm: float, capacitance_f: float, current_a: float
) -> EquilibriumCharge:
    """Steady-state V = IR, Q = RCI (in elementary charges), and RC time.

    current_a may be an array; V and Q then hold one value per current.
    """
    positive("resistance", resistance_ohm)
    positive("capacitance", capacitance_f)
    v = current_a * resistance_ohm
    return EquilibriumCharge(v, capacitance_f * v / CODATA.e, resistance_ohm * capacitance_f)


def gaussian_clipping_factor(beam_waist_m: float, x_q_m: float) -> float:
    """Relative mirror intensity exp(-x_Q^2/w0^2)^2 for a centered focus."""
    waist = positive("beam waist", beam_waist_m)
    positive("x_Q", x_q_m)
    return math.exp(-(x_q_m**2) / waist**2) ** 2


def capacitance_breakdown(
    mirror_radius_m: float,
    x_q_m: float,
    electrode_f: float = 0.1e-12,
) -> CapacitanceBreakdown:
    """The three film-capacitance contributions.

    Self capacitance of a round plate 8 eps0 r, mirror-pair capacitance
    eps0 pi r^2/(2 x_Q), and the coupling to nearby trap electrodes
    (dominant, supplied as an input with a 0.1 pF default).
    """
    positive("mirror radius", mirror_radius_m)
    positive("x_Q", x_q_m)
    return CapacitanceBreakdown(
        self_f=8.0 * CODATA.eps0 * mirror_radius_m,
        mirror_pair_f=CODATA.eps0 * math.pi * mirror_radius_m**2 / (2.0 * x_q_m),
        electrode_f=electrode_f,
    )


def transport_consistency(carrier_density_per_m3: float, mobility_m2_per_vs: float) -> float:
    """Resistivity implied by carrier density and mobility, rho = 1/(n e mu),
    in Ohm m; the report compares it with the Hall resistivity."""
    positive("carrier density", carrier_density_per_m3)
    positive("mobility", mobility_m2_per_vs)
    return 1.0 / (carrier_density_per_m3 * CODATA.e * mobility_m2_per_vs)
