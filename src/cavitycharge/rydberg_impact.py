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

`rydberg` is a scenario [rydberg] section (scenario.RydbergSection), whose
`alpha` and `rabi_hz` were checked positive when it was built: every
function reads its polarizability `alpha`, and blockade_infidelity and
max_charge_for_infidelity also its two-photon Rabi frequency `rabi_hz`
(Omega_R/2pi).

stark_shift, decoherence_time and blockade_infidelity take a float or a
NumPy array of fields (or shifts) and evaluate every element at once, each
element with the bits of a scalar call: they square as x * x, since a
float's x**2 is pow(x, 2), one ulp off an array's x*x on about 0.1% of
inputs. A float is computed with floats alone; the module imports NumPy
only for an array, whose caller has loaded it. stark_shift, dephasing and
decoherence_time refuse a field, and blockade_infidelity a shift, that is
not a finite real number or a real-valued array of finite elements
(ParameterError, as electrostatics checks a charge).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .electrostatics import _finite, charge_for_field
from .errors import ParameterError
from .quantities import is_real_number, nonnegative, positive

if TYPE_CHECKING:
    from .scenario import RydbergSection

__all__ = [
    "ChargeFieldBudget",
    "stark_shift",
    "dephasing",
    "decoherence_time",
    "blockade_infidelity",
    "max_charge_for_infidelity",
    "charge_for_coherence_time",
]


class ChargeFieldBudget(NamedTuple):
    q1_e: float
    field_v_per_m: float


def stark_shift(rydberg: RydbergSection, field_v_per_m: float) -> float:
    """Quadratic Stark shift delta_R/2pi = (1/2) alpha E^2, in Hz."""
    return _stark_shift(rydberg, _finite("field", field_v_per_m))


def dephasing(rydberg: RydbergSection, field_v_per_m: float, tau_s: float) -> float:
    """Accumulated Ramsey phase pi alpha E^2 tau, in radians."""
    _finite("field", field_v_per_m)
    nonnegative("duration", tau_s)
    return math.pi * rydberg.alpha * field_v_per_m**2 * tau_s


def decoherence_time(rydberg: RydbergSection, field_v_per_m: float) -> float:
    """Full-decoherence time tau_pi = 1/(alpha E^2); +inf at zero field."""
    return _decoherence_time(rydberg, _finite("field", field_v_per_m))


def blockade_infidelity(rydberg: RydbergSection, stark_shift_hz: float) -> float:
    """Blockade-gate infidelity (1/2)(delta_R/Omega_R)^2."""
    return _blockade_infidelity(rydberg, _finite("Stark shift", stark_shift_hz))


# The unchecked formulas. A budget sweep composes them, so that a point whose
# field or shift is not finite is reported as a non-finite sweep point.


def _stark_shift(rydberg: RydbergSection, field_v_per_m):
    return 0.5 * rydberg.alpha * (field_v_per_m * field_v_per_m)


def _decoherence_time(rydberg: RydbergSection, field_v_per_m):
    rate = rydberg.alpha * (field_v_per_m * field_v_per_m)
    if isinstance(rate, (int, float)):
        return 1.0 / rate if rate else math.copysign(math.inf, rate)
    import numpy as np

    with np.errstate(divide="ignore"):
        return np.divide(1.0, rate)


def _blockade_infidelity(rydberg: RydbergSection, stark_shift_hz):
    ratio = stark_shift_hz / rydberg.rabi_hz
    return 0.5 * (ratio * ratio)


def max_charge_for_infidelity(
    rydberg: RydbergSection, target_infidelity: float, x_q_m: float
) -> ChargeFieldBudget:
    """Largest single charge keeping the blockade infidelity at target.

    Closed-form inversion of q1 -> E -> delta_R -> infidelity; targets at
    or above 0.5 correspond to delta_R >= Omega_R where the perturbative
    population formula no longer applies.
    """
    if not (is_real_number(target_infidelity) and 0.0 < target_infidelity < 0.5):
        raise ParameterError(
            f"target infidelity must be in (0, 0.5), got {target_infidelity!r}"
        )
    delta_hz = rydberg.rabi_hz * math.sqrt(2.0 * target_infidelity)
    field = math.sqrt(2.0 * delta_hz / rydberg.alpha)
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)


def charge_for_coherence_time(
    rydberg: RydbergSection, tau_pi_s: float, x_q_m: float
) -> ChargeFieldBudget:
    """Largest single charge compatible with a decoherence time tau_pi."""
    field = 1.0 / math.sqrt(rydberg.alpha * positive("tau_pi", tau_pi_s))
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)
