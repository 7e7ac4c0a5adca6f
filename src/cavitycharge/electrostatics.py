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

A ChargeScenario is checked when it is built: x_Q a real number, finite and
positive; each charge a finite real number or a real-valued array (NumPy
dtype kind f, i or u, read from the array's own dtype) of finite elements,
as single_charge_field checks its charge and charge_for_field its field.
The charges, and the positions and charges passed to field_at and
single_charge_field, may be NumPy arrays: each element is one scenario,
with the bits of a scalar call. The module imports NumPy only to test an
array that it was given for finite elements.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ParameterError
from .quantities import CODATA, checked, finite, is_real_number, positive

__all__ = [
    "ChargeScenario",
    "ExpansionCoefficients",
    "expansion_coefficients",
    "field_at",
    "disc_point_ratios",
    "single_charge_field",
    "charge_for_field",
]


@checked
class ChargeScenario(NamedTuple):
    """Stray charges q1 at -x_Q and q2 at +x_Q, in elementary charges.

    q1_e and q2_e must each be a finite real number or a real-valued array of
    finite elements (one scenario per element), and x_Q a real number, finite
    and > 0, else ParameterError; a bool is refused.
    """

    q1_e: float
    q2_e: float
    x_q_m: float

    def _checked(self):
        _finite("charge q1_e", self.q1_e)
        _finite("charge q2_e", self.q2_e)
        positive("x_Q", self.x_q_m)
        return self


def _finite(name: str, value):
    """value, when it is a finite real number (quantities.finite) or a
    real-valued array of finite elements; else ParameterError naming it."""
    if is_real_number(value):
        return finite(name, value)
    if getattr(getattr(value, "dtype", None), "kind", "") not in ("f", "i", "u"):
        got = f"an array of {value.dtype}" if hasattr(value, "dtype") else repr(value)
        raise ParameterError(f"{name} must be a real number or a real-valued array, got {got}")
    import numpy as np  # loaded already: value is one of its arrays

    if not np.isfinite(value).all():
        raise ParameterError(f"{name} must be finite, got an array holding "
                             f"{float(value[~np.isfinite(value)].flat[0])!r}")
    return value


class ExpansionCoefficients(NamedTuple):
    """A and B of the second-order expansion U = s_q (A x + B x^2 + C), SI units."""

    A: float    # C/m^2
    B: float    # C/m^3
    s_q: float  # q/(4 pi eps0), V*m


def expansion_coefficients(s: ChargeScenario) -> ExpansionCoefficients:
    q1 = s.q1_e * CODATA.e
    q2 = s.q2_e * CODATA.e
    return ExpansionCoefficients(
        A=(q2 - q1) / s.x_q_m**2,
        B=(q1 + q2) / s.x_q_m**3,
        s_q=CODATA.e * CODATA.k_e,
    )


def _any(flags) -> bool:
    """Whether a bool, or any element of a NumPy bool array, is true."""
    return flags if isinstance(flags, bool) else flags.any()


def _check_domain(x_m, x_q_m: float) -> None:
    """DomainError unless |x| < x_Q, for x a float or each element of an array;
    the test is the range it accepts, so a NaN position is refused."""
    inside = abs(x_m) < x_q_m
    if not (inside if isinstance(inside, bool) else inside.all()):
        far = abs(x_m) if isinstance(inside, bool) else abs(x_m).max()
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
    r, x = positive("radius", radius_m), positive("distance", distance_m)
    hyp = math.hypot(r, x)
    # sqrt(r^2+x^2) - x = r^2/(hyp + x) avoids cancellation for r << x
    u_ratio = 2.0 * x / (hyp + x)
    e_ratio = 2.0 * x**2 / (hyp * (hyp + x))
    return {"u_ratio": u_ratio, "e_ratio": e_ratio}


def single_charge_field(q1_e: float, x_q_m: float) -> float:
    """Field at the origin from a single charge q1 at distance x_Q (V/m)."""
    return CODATA.k_e * _finite("charge q1_e", q1_e) * CODATA.e / positive("x_Q", x_q_m)**2


def charge_for_field(field_v_per_m: float, x_q_m: float) -> float:
    """Charge (in e) at distance x_Q that produces a given field at origin."""
    return _finite("field", field_v_per_m) * positive("x_Q", x_q_m)**2 / (CODATA.k_e * CODATA.e)
