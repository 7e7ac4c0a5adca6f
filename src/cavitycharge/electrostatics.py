"""Stray-charge potentials and fields along the cavity axis.

A test charge q = +e near the origin (the ion) interacts with stationary
charges Q1, Q2 placed at -x_Q and +x_Q:

    U(x) = s_q (Q1/|x + x_Q| + Q2/|x - x_Q|),   s_q = q/(4 pi eps0)

Restricted to |x| < x_Q and expanded to second order,

    U(x) ~ s_q (A x + B x^2 + C),
    A = (Q2 - Q1)/x_Q^2,  B = (Q1 + Q2)/x_Q^3,  C = (Q1 + Q2)/x_Q

and the axial field is E(x) = -(1/q) dU/dx = -(A + 2 B x)/(4 pi eps0).
The constant C never enters an observable, so it is not computed.

A companion model gauges how literally the point-charge picture should be
taken: a uniformly charged finite disc of radius r, whose on-axis
potential is

    U_disc(x) = 2 s_q Q (sqrt(r^2 + x^2) - x)/r^2.

For a 125 um disc seen from 200 um the disc/point ratios are
U_m/U_p = 0.92 and E_m/E_p = 0.78, close enough to unity that the
point-charge model is used for the budgets.

The charges of a ChargeScenario, and the positions and charges passed to
field_at and single_charge_field, may be NumPy arrays: each element is one
scenario, with the bits of a scalar call. The module itself never imports
NumPy; an array's own methods do the work.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ParameterError
from .quantities import CODATA

__all__ = [
    "ChargeScenario",
    "ExpansionCoefficients",
    "expansion_coefficients",
    "field_at",
    "disc_point_ratios",
    "single_charge_field",
    "charge_for_field",
]


class ChargeScenario(NamedTuple):
    """Stray charges q1 at -x_Q and q2 at +x_Q, in elementary charges.

    q1_e and q2_e may be arrays (one scenario per element); x_Q is a float,
    checked positive by expansion_coefficients.
    """

    q1_e: float
    q2_e: float
    x_q_m: float


class ExpansionCoefficients(NamedTuple):
    """A and B of the second-order expansion U = s_q (A x + B x^2 + C), SI units."""

    A: float    # C/m^2
    B: float    # C/m^3
    s_q: float  # q/(4 pi eps0), V*m
    x_q_m: float


def expansion_coefficients(s: ChargeScenario) -> ExpansionCoefficients:
    if s.x_q_m <= 0:
        raise ParameterError(f"x_Q must be positive, got {s.x_q_m}")
    q1 = s.q1_e * CODATA.e
    q2 = s.q2_e * CODATA.e
    return ExpansionCoefficients(
        A=(q2 - q1) / s.x_q_m**2,
        B=(q1 + q2) / s.x_q_m**3,
        s_q=CODATA.e * CODATA.k_e,
        x_q_m=s.x_q_m,
    )


def _any(flags) -> bool:
    """Whether a bool, or any element of a NumPy bool array, is true."""
    return flags if isinstance(flags, bool) else flags.any()


def _check_domain(x_m, x_q_m: float) -> None:
    outside = abs(x_m) >= x_q_m
    if _any(outside):
        far = abs(x_m) if isinstance(outside, bool) else abs(x_m).max()
        raise DomainError(f"|x| = {far} m is outside the model domain |x| < {x_q_m} m")


def field_at(s: ChargeScenario, x_m: float) -> float:
    """Axial stray field E(x) = -(A + 2Bx)/(4 pi eps0), in V/m."""
    c = expansion_coefficients(s)
    _check_domain(x_m, s.x_q_m)
    return -(c.A + 2.0 * c.B * x_m) * CODATA.k_e


def disc_point_ratios(radius_m: float, distance_m: float) -> dict:
    """Potential and field ratios of a uniformly charged disc vs a point.

    u_ratio = U_disc/U_point = 2 x (sqrt(r^2+x^2) - x)/r^2
    e_ratio = E_disc/E_point = 2 x^2 (1 - x/sqrt(r^2+x^2))/r^2

    Both tend to 1 as r -> 0 or x >> r. Evaluated in cancellation-free form.
    """
    if radius_m <= 0 or distance_m <= 0:
        raise ParameterError("radius and distance must be positive")
    r, x = radius_m, distance_m
    hyp = math.hypot(r, x)
    # sqrt(r^2+x^2) - x = r^2/(hyp + x) avoids cancellation for r << x
    u_ratio = 2.0 * x / (hyp + x)
    e_ratio = 2.0 * x**2 / (hyp * (hyp + x))
    return {"u_ratio": u_ratio, "e_ratio": e_ratio}


def single_charge_field(q1_e: float, x_q_m: float) -> float:
    """Field at the origin from a single charge q1 at distance x_Q (V/m)."""
    if x_q_m <= 0:
        raise ParameterError(f"x_Q must be positive, got {x_q_m}")
    return CODATA.k_e * q1_e * CODATA.e / x_q_m**2


def charge_for_field(field_v_per_m: float, x_q_m: float) -> float:
    """Charge (in e) at distance x_Q that produces a given field at origin."""
    if x_q_m <= 0:
        raise ParameterError(f"x_Q must be positive, got {x_q_m}")
    return field_v_per_m * x_q_m**2 / (CODATA.k_e * CODATA.e)
