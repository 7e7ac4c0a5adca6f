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

stark_shift, dephasing and decoherence_time refuse a field, and
blockade_infidelity a shift, that is not a finite real number
(quantities.finite, whose float they compute with), then call
the unchecked formulas _stark_shift, _decoherence_time and
_blockade_infidelity, which a budget sweep composes. Those also compute an
array element by element, each with a float's bits: they square as x * x,
since a float's x**2 is pow(x, 2), one ulp off an array's x*x on about 0.1%
of inputs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .electrostatics import charge_for_field
from .errors import ParameterError
from .quantities import _as_float, finite, nonnegative, positive

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
    return _stark_shift(rydberg, finite("field", field_v_per_m))


def dephasing(rydberg: RydbergSection, field_v_per_m: float, tau_s: float) -> float:
    """Accumulated Ramsey phase pi alpha E^2 tau, in radians."""
    field = finite("field", field_v_per_m)
    tau = nonnegative("duration", tau_s)
    return math.pi * rydberg.alpha * field**2 * tau


def decoherence_time(rydberg: RydbergSection, field_v_per_m: float) -> float:
    """Full-decoherence time tau_pi = 1/(alpha E^2); +inf at zero field."""
    return _decoherence_time(rydberg, finite("field", field_v_per_m))


def blockade_infidelity(rydberg: RydbergSection, stark_shift_hz: float) -> float:
    """Blockade-gate infidelity (1/2)(delta_R/Omega_R)^2."""
    return _blockade_infidelity(rydberg, finite("Stark shift", stark_shift_hz))


# The unchecked formulas. A budget sweep composes them, so that a point whose
# field or shift is not finite is reported as a non-finite sweep point.


def _stark_shift(rydberg: RydbergSection, field_v_per_m):
    return 0.5 * rydberg.alpha * (field_v_per_m * field_v_per_m)


def _decoherence_time(rydberg: RydbergSection, field_v_per_m):
    rate = rydberg.alpha * (field_v_per_m * field_v_per_m)
    try:
        return 1.0 / rate
    except ZeroDivisionError:  # a float's 1/0; an array's is inf
        return math.inf


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
    if (target := _as_float(target_infidelity)) is None or not 0.0 < target < 0.5:
        raise ParameterError(
            f"target infidelity must be in (0, 0.5), got {target_infidelity!r}"
        )
    delta_hz = rydberg.rabi_hz * math.sqrt(2.0 * target)
    field = math.sqrt(2.0 * delta_hz / rydberg.alpha)
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)


def charge_for_coherence_time(
    rydberg: RydbergSection, tau_pi_s: float, x_q_m: float
) -> ChargeFieldBudget:
    """Largest single charge compatible with a decoherence time tau_pi."""
    field = 1.0 / math.sqrt(rydberg.alpha * positive("tau_pi", tau_pi_s))
    return ChargeFieldBudget(charge_for_field(field, x_q_m), field)
