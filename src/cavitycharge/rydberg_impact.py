"""Rydberg-atom sensitivity to stray electric fields.

At low field a Rydberg level shifts quadratically,

    delta_R / 2pi = (1/2) alpha E^2

with alpha the (scalar) polarizability in ordinary-frequency units,
Hz/(V/m)^2. An unknown shift dephases a Ramsey sequence by
Delta_phi = delta_R tau = pi alpha E^2 tau, reaching full decoherence
(Delta_phi = pi) after tau_pi = 1/(alpha E^2). In a blockade gate the same
shift leaves Rydberg population 1 - (delta_R/Omega_R)^2 behind, for a gate
infidelity (1/2)(delta_R/Omega_R)^2.

Convention: alpha is stored in Hz/(V/m)^2 and delta_R/2pi, Omega_R/2pi are
ordinary frequencies, so tau_pi = 1/(alpha E^2) holds as written and the
blockade ratio is frequency-convention free.

stark_shift, decoherence_time and blockade_infidelity take a float or a
NumPy array of fields (or shifts) and evaluate every element at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .electrostatics import charge_for_field
from .errors import ParameterError

__all__ = [
    "RydbergConfig",
    "ChargeFieldBudget",
    "stark_shift",
    "dephasing",
    "decoherence_time",
    "blockade_infidelity",
    "max_charge_for_infidelity",
    "charge_for_coherence_time",
]

#: 70S-state scalar polarizability, Hz per (V/m)^2.
DEFAULT_POLARIZABILITY_HZ = 53.4e3


@dataclass(frozen=True)
class RydbergConfig:
    """Polarizability and drive parameters for one Rydberg level.

    The state labels and the ground-Rydberg energy splitting are carried as
    metadata only; no formula here consumes the splitting.
    """

    polarizability_hz: float = DEFAULT_POLARIZABILITY_HZ  # Hz/(V/m)^2
    rabi_hz: float = 0.0       # two-photon Rabi frequency Omega_R/2pi
    ground_label: str = "5S1/2"
    rydberg_label: str = "70S1/2"
    splitting_j: Optional[float] = None

    def __post_init__(self) -> None:
        if self.polarizability_hz <= 0:
            raise ParameterError("polarizability must be positive")
        if self.rabi_hz < 0:
            raise ParameterError("Rabi frequency must be >= 0")


@dataclass(frozen=True)
class ChargeFieldBudget:
    q1_e: float
    field_v_per_m: float


def stark_shift(cfg: RydbergConfig, field_v_per_m: float) -> float:
    """Quadratic Stark shift delta_R/2pi = (1/2) alpha E^2, in Hz."""
    return 0.5 * cfg.polarizability_hz * field_v_per_m**2


def dephasing(cfg: RydbergConfig, field_v_per_m: float, tau_s: float) -> float:
    """Accumulated Ramsey phase pi alpha E^2 tau, in radians."""
    if tau_s < 0:
        raise ParameterError(f"duration must be >= 0, got {tau_s}")
    return math.pi * cfg.polarizability_hz * field_v_per_m**2 * tau_s


def decoherence_time(cfg: RydbergConfig, field_v_per_m: float) -> float:
    """Full-decoherence time tau_pi = 1/(alpha E^2); +inf at zero field."""
    with np.errstate(divide="ignore"):
        return np.divide(1.0, cfg.polarizability_hz * field_v_per_m**2)


def blockade_infidelity(cfg: RydbergConfig, stark_shift_hz: float) -> float:
    """Blockade-gate infidelity (1/2)(delta_R/Omega_R)^2."""
    if cfg.rabi_hz <= 0:
        raise ParameterError("blockade infidelity needs a positive Rabi frequency")
    return 0.5 * (stark_shift_hz / cfg.rabi_hz) ** 2


def max_charge_for_infidelity(
    cfg: RydbergConfig, target_infidelity: float, x_q_m: float
) -> ChargeFieldBudget:
    """Largest single charge keeping the blockade infidelity at target.

    Closed-form inversion of q1 -> E -> delta_R -> infidelity; targets at
    or above 0.5 correspond to delta_R >= Omega_R where the perturbative
    population formula no longer applies.
    """
    if not 0.0 < target_infidelity < 0.5:
        raise ParameterError(
            f"target infidelity must be in (0, 0.5), got {target_infidelity}"
        )
    if cfg.rabi_hz <= 0:
        raise ParameterError("inversion needs a positive Rabi frequency")
    delta_hz = cfg.rabi_hz * math.sqrt(2.0 * target_infidelity)
    field = math.sqrt(2.0 * delta_hz / cfg.polarizability_hz)
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)


def charge_for_coherence_time(
    cfg: RydbergConfig, tau_pi_s: float, x_q_m: float
) -> ChargeFieldBudget:
    """Largest single charge compatible with a decoherence time tau_pi."""
    if tau_pi_s <= 0:
        raise ParameterError(f"tau_pi must be positive, got {tau_pi_s}")
    field = 1.0 / math.sqrt(cfg.polarizability_hz * tau_pi_s)
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)
