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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .quantities import CODATA

__all__ = [
    "FilmSample",
    "IlluminationScenario",
    "TransportSample",
    "Photocurrent",
    "FilmResistance",
    "EquilibriumCharge",
    "CapacitanceBreakdown",
    "TransportCheck",
    "photocurrent",
    "film_resistance",
    "equilibrium_charge",
    "gaussian_clipping_factor",
    "capacitance_breakdown",
    "transport_consistency",
]


@dataclass(frozen=True)
class FilmSample:
    resistivity_ohm_m: float
    thickness_m: float
    mirror_radius_m: float
    capacitance_f: float = 0.1e-12

    def __post_init__(self) -> None:
        if min(
            self.resistivity_ohm_m,
            self.thickness_m,
            self.mirror_radius_m,
            self.capacitance_f,
        ) <= 0:
            raise ParameterError("film parameters must be positive")


@dataclass(frozen=True)
class IlluminationScenario:
    power_w: float
    wavelength_m: float
    quantum_efficiency: float = 1.0
    beam_waist_m: float = 100e-6
    mirror_distance_m: float = 200e-6
    #: optional direct photoelectron rate (1/s), bypassing the flux formula
    photon_rate_override_per_s: float | None = None

    def __post_init__(self) -> None:
        if self.power_w < 0 or self.wavelength_m <= 0:
            raise ParameterError("power must be >= 0 and wavelength positive")
        if not 0.0 <= self.quantum_efficiency <= 1.0:
            raise ParameterError("quantum efficiency must be in [0, 1]")
        if self.beam_waist_m <= 0 or self.mirror_distance_m < 0:
            raise ParameterError("waist must be positive and distance >= 0")


@dataclass(frozen=True)
class TransportSample:
    resistivity_ohm_m: float
    carrier_density_per_m3: float
    mobility_m2_per_vs: float

    def __post_init__(self) -> None:
        if min(
            self.resistivity_ohm_m,
            self.carrier_density_per_m3,
            self.mobility_m2_per_vs,
        ) <= 0:
            raise ParameterError("transport parameters must be positive")


@dataclass(frozen=True)
class Photocurrent:
    rate_per_s: float
    current_a: float


@dataclass(frozen=True)
class FilmResistance:
    sheet_resistance_ohm_sq: float
    resistance_ohm: float


@dataclass(frozen=True)
class EquilibriumCharge:
    voltage_v: float
    charge_e: float
    rc_time_s: float


@dataclass(frozen=True)
class CapacitanceBreakdown:
    self_f: float
    mirror_pair_f: float
    electrode_f: float

    @property
    def total_f(self) -> float:
        return self.self_f + self.mirror_pair_f + self.electrode_f


@dataclass(frozen=True)
class TransportCheck:
    predicted_resistivity_ohm_m: float
    relative_deviation: float


def photocurrent(s: IlluminationScenario) -> Photocurrent:
    """Photoelectron rate eta P lambda/(h c) and the resulting current.

    A rate override on the scenario takes precedence over the flux formula.
    """
    if s.photon_rate_override_per_s is not None:
        rate = s.photon_rate_override_per_s
    else:
        rate = s.quantum_efficiency * s.power_w * s.wavelength_m / (CODATA.h * CODATA.c)
    return Photocurrent(rate, CODATA.e * rate)


def film_resistance(f: FilmSample) -> FilmResistance:
    """Sheet resistance rho/h; the round grounded film counts as one square."""
    r_s = f.resistivity_ohm_m / f.thickness_m
    return FilmResistance(r_s, r_s)


def equilibrium_charge(
    resistance_ohm: float, capacitance_f: float, current_a: float
) -> EquilibriumCharge:
    """Steady-state V = IR, Q = RCI (in elementary charges), and RC time.

    current_a may be an array; V and Q then hold one value per current.
    """
    if resistance_ohm <= 0 or capacitance_f <= 0:
        raise ParameterError("resistance and capacitance must be positive")
    v = current_a * resistance_ohm
    return EquilibriumCharge(v, capacitance_f * v / CODATA.e, resistance_ohm * capacitance_f)


def gaussian_clipping_factor(beam_waist_m: float, x_q_m: float) -> float:
    """Relative mirror intensity exp(-x_Q^2/w0^2)^2 for a centered focus."""
    if beam_waist_m <= 0:
        raise ParameterError("beam waist must be positive")
    return math.exp(-(x_q_m**2) / beam_waist_m**2) ** 2


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
    if mirror_radius_m <= 0 or x_q_m <= 0:
        raise ParameterError("radius and mirror distance must be positive")
    return CapacitanceBreakdown(
        self_f=8.0 * CODATA.eps0 * mirror_radius_m,
        mirror_pair_f=CODATA.eps0 * math.pi * mirror_radius_m**2 / (2.0 * x_q_m),
        electrode_f=electrode_f,
    )


def transport_consistency(t: TransportSample) -> TransportCheck:
    """Resistivity implied by carrier density and mobility, rho = 1/(n e mu).

    relative_deviation is signed, (predicted - measured)/measured.
    """
    predicted = 1.0 / (t.carrier_density_per_m3 * CODATA.e * t.mobility_m2_per_vs)
    return TransportCheck(
        predicted,
        (predicted - t.resistivity_ohm_m) / t.resistivity_ohm_m,
    )
