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

The excess loss is formed without cancellation: with u = 1 - r, which
the inversion computes directly, r0 - r1 = (u01 - u00)(2 - u00 - u01)/r0
for u01 = 1 - r0(F01), and kappa takes log1p(-(r0 - r1)(r0 + r1)).
extinction_from_finesse's central value and its Gauss-Hermite sigma
evaluate this one chain, on floats with math. The module imports no NumPy.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

from .errors import ConsistencyError, ParameterError
from .quantities import (
    UncertainQuantity, _as_float, _positive_at_nodes, _product_cubature, as_quantity, checked,
    positive, propagate_linear,
)

__all__ = [
    "MirrorState",
    "NegativeExtinctionWarning",
    "r0_from_symmetric_finesse",
    "r1_from_asymmetric_finesse",
    "extinction_from_finesse",
    "excess_reflection_loss",
    "resonant_response",
]


class NegativeExtinctionWarning(UserWarning):
    """The modified cavity has higher finesse; extracted kappa is negative."""


@checked
class MirrorState(NamedTuple):
    """Amplitude reflectivity and power transmission of one mirror, each a
    real number, held as a float: 0 < r < 1 and 0 <= T <= 1 - r^2, else
    ParameterError."""

    r: float
    T: float

    def _checked(self):
        r, t = map(_as_float, self)
        if r is None or not 0.0 < r < 1.0:
            raise ParameterError(f"amplitude reflectivity must be in (0,1), got {self.r!r}")
        if t is None or not 0.0 <= t <= 1.0 - r**2:
            raise ParameterError(
                f"transmission must be in [0, 1-r^2 = {1 - r ** 2:.3e}], got {self.T!r}"
            )
        return r, t


def _u(f):
    # 1 - r0 = 2 pi / (2F + pi + sqrt(4F^2 + pi^2)): cancellation-free
    # rearrangement of 1 - (sqrt(4F^2 + pi^2) - pi)/(2F)
    return 2.0 * math.pi / (2.0 * f + math.pi + math.sqrt(4.0 * f**2 + math.pi**2))


def _r0(f00):
    return 1.0 - _u(f00)


def _r1(f01, r0):
    # F01 fixes the product r0 r1 = _r0(F01)^2
    return _r0(f01) ** 2 / r0


def r0_from_symmetric_finesse(f00) -> UncertainQuantity:
    """Bare-mirror reflectivity from the symmetric-cavity finesse."""
    return propagate_linear(_r0, [as_quantity(positive("finesse F00", f00))])


def r1_from_asymmetric_finesse(f01, r0) -> UncertainQuantity:
    """Modified-mirror reflectivity from the mixed-cavity finesse."""
    q01 = as_quantity(positive("finesse F01", f01))
    q0 = as_quantity(r0)
    if not 0.0 < q0.value < 1.0:
        raise ParameterError(f"r0 must be in (0,1), got {q0.value}")
    r1 = propagate_linear(_r1, [q01, q0])
    if not 0.0 < r1.value < 1.0:
        raise ConsistencyError(
            f"implied r1 = {r1.value} is outside (0,1); finesse {q01.value} is "
            f"incompatible with r0 = {q0.value}"
        )
    return r1


def _log_transmission(u00, u01):
    """log1p(-(r0^2 - r1^2)) of the finesse pair, given as u = 1 - r0 of
    each (_u of F00 and of F01), the excess loss formed from u: the film's
    double-pass log transmission."""
    r0 = 1.0 - u00
    r1 = (1.0 - u01) ** 2 / r0
    loss = (u01 - u00) * (2.0 - u00 - u01) / r0 * (r0 + r1)
    return math.log1p(-loss)


def _per_thickness(wavelength_m, h):
    """-lambda/(8 pi h), kappa per unit log transmission."""
    return -wavelength_m / (8.0 * math.pi * h)


def _kappa(wavelength_m, f00, f01, h):
    """kappa of the finesse pair and film thickness h:
    -lambda/(8 pi h) log1p(-(r0^2 - r1^2))."""
    return _per_thickness(wavelength_m, h) * _log_transmission(_u(f00), _u(f01))


def extinction_from_finesse(f00, f01, thickness, wavelength_m: float) -> UncertainQuantity:
    """Film extinction coefficient from the finesse pair F00, F01 and the
    film thickness h, each a number or an UncertainQuantity.

    The value is the chain F00, F01, h -> r0, r1 -> kappa at the inputs'
    values. sigma is the standard deviation of the same chain over
    independent normal F00, F01 and h by 8-node Gauss-Hermite cubature
    per input, 512 nodes: exact for a polynomial of degree <= 15 in each
    input, and blind beyond value +/- 4.1445 sigma. kappa factors as
    L(F00, F01) * (-lambda/(8 pi h)), L the log transmission, and the two
    factors are independent, so the 512-node sums are taken from L's
    8 x 8 nodes and the factor's 8 (quantities._product_cubature, the rule
    of propagate_cubature for a product, by Goodman's identity Var(XY) =
    vX vY + vX mY^2 + vY mX^2): 72 calls of the chain, and still the sigma
    of the 8-node rule per input. L takes u = 1 - r0 of each finesse, and
    the cubature applies the transform _u once to each of the 8 nodes of
    F00 and of F01: 16 calls of _u where L at each of the 64 nodes would
    make 128, with the same bits at every node. A one-shot reproduce-paper
    gains from this alone; the report's per-process manifest parse helps
    only repeated build_report calls.

    Strictly, kappa ~ 1/h over a normal h has no finite variance, since
    h <= 0 has a positive probability; sigma is that of kappa within the
    nodes' span, which is what a Monte Carlo sees while h <= 0 lies many
    sigma away.
    An input at or below 0 at its lowest node, value - 4.1445 sigma, is a
    DomainError naming it: the chain has no value there.
    """
    wavelength_m = positive("wavelength", wavelength_m)
    inputs = [_positive_at_nodes(name, x) for name, x in (
        ("finesse F00", f00), ("finesse F01", f01), ("film thickness", thickness))]
    q00, q01, h = inputs
    if q01.value > q00.value:
        warnings.warn(
            "modified cavity has higher finesse; kappa is negative "
            "(excess loss removed rather than added)",
            NegativeExtinctionWarning,
            stacklevel=2,
        )
    # first: a kappa that is not finite at a node is an EvaluationError
    sigma = _product_cubature([(_log_transmission, [q00, q01], _u),
                               (functools.partial(_per_thickness, wavelength_m), [h])]).sigma
    return UncertainQuantity(_kappa(wavelength_m, q00.value, q01.value, h.value), sigma)


def excess_reflection_loss(f00, f01) -> UncertainQuantity:
    """Reflection variation r0^2 - r1^2 between bare and modified cavities."""
    q00 = as_quantity(positive("finesse F00", f00))
    q01 = as_quantity(positive("finesse F01", f01))

    def loss(f0, f1):
        r0 = _r0(f0)
        r1 = _r1(f1, r0)
        return r0**2 - r1**2

    return propagate_linear(loss, [q00, q01])


def resonant_response(mirror_a: MirrorState, mirror_b: MirrorState) -> float:
    """On-resonance power transmission of the cavity of two mirrors,

        T_c = T_a T_b / (1 - r_a r_b)^2

    A lossless impedance-matched cavity (T = 1 - r^2 on both mirrors)
    transmits fully: T_c = 1.
    """
    return mirror_a.T * mirror_b.T / (1.0 - mirror_a.r * mirror_b.r)**2
