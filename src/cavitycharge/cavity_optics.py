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

A series of coated-mirror finesses measured against one bare cavity (a
film at several ages) is one extinction_from_finesse call with a list of
F01: the bare-mirror stage of its Monte-Carlo draws is shared by the whole
series, and each element equals its single call bit for bit.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DomainError, ParameterError
from .quantities import (
    UncertainQuantity, _summary, _workspace, as_quantity, checked, is_real_number,
    positive, propagate_linear,
)

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


@checked
class MirrorState(NamedTuple):
    """Amplitude reflectivity and power transmission of one mirror."""

    r: float
    T: float

    def _checked(self):
        r, t = self
        if not (is_real_number(r) and 0.0 < r < 1.0):
            raise ParameterError(f"amplitude reflectivity must be in (0,1), got {r!r}")
        if not (is_real_number(t) and 0.0 <= t <= 1.0 - r**2):
            raise ParameterError(
                f"transmission must be in [0, 1-r^2 = {1 - r ** 2:.3e}], got {t!r}"
            )
        return self


def _r0(f00):
    # 1 - r0 = 2 pi / (2F + pi + sqrt(4F^2 + pi^2)): cancellation-free
    # rearrangement of (sqrt(4F^2 + pi^2) - pi)/(2F)
    return 1.0 - 2.0 * math.pi / (
        2.0 * f00 + math.pi + np.sqrt(4.0 * f00**2 + math.pi**2)
    )


def _r0_of_draws(q, z, f, tmp):
    """f := _r0 of the draws q.value + q.sigma * z, by _r0's operations in
    place, with tmp as the only scratch; returns the mask of draws <= 0.

    f starts as 2F = 2 sigma z + 2 value and tmp as (2F)^2: scaling by 2 is
    exact, so they carry the bits of 2.0 * F and 4.0 * F**2 (for draws
    that neither overflow nor fall below the normal floats)."""
    np.multiply(2.0 * q.sigma, z, out=f)  # 2F
    f += 2.0 * q.value
    bad = f <= 0
    np.square(f, out=tmp)  # 4F^2
    tmp += math.pi**2
    np.sqrt(tmp, out=tmp)
    f += math.pi
    f += tmp
    np.divide(2.0 * math.pi, f, out=f)
    np.subtract(1.0, f, out=f)
    return bad


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
    r1 = _r1(q01.value, q0.value)
    if not 0.0 < r1 < 1.0:
        raise ConsistencyError(
            f"implied r1 = {r1} is outside (0,1); finesse {q01.value} is "
            f"incompatible with r0 = {q0.value}"
        )
    return propagate_linear(_r1, [q01, q0])


def extinction_from_reflectivities(
    r0: float, r1: float, thickness_m: float, wavelength_m: float
) -> float:
    """kappa from the bare/modified reflectivity pair (double-pass path 2h)."""
    positive("film thickness", thickness_m)
    positive("wavelength", wavelength_m)
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
):
    """Film extinction coefficient from the finesse pair.

    f01 is one finesse, giving one UncertainQuantity, or a list of them
    measured against the same bare cavity f00 and film thickness, giving
    the list of their kappa in the same order; each element equals the
    call with that f01 alone, bit for bit.

    The central value is the deterministic chain F00,F01,h -> r0,r1 ->
    kappa; the uncertainty is the standard deviation over normal draws of
    F00, F01 and h with a fixed seed, from the standard normals that
    propagate_monte_carlo calls with the same seed and mc_samples share
    (rows 0, 1 and 2), under its 1% policy: draws with a non-positive F00,
    F01 or h are non-finite samples. The bare-mirror stage (r0, 1 - r0^2
    and the scale -lambda/(8 pi h) of each draw) is computed once for the
    whole list; each F01 is then evaluated into one samples array. Each
    step is one in-place operation on all the draws, into five of the
    Monte-Carlo engine's kept scratch arrays (one is the scratch of _r0 and
    of _summary), and no step is a pass that computes nothing: the scale
    is one division of -lambda (IEEE division is sign-symmetric), and
    _r0_of_draws forms 2F and 4F^2 directly.
    """
    q00 = as_quantity(positive("finesse F00", f00))
    series = f01 if isinstance(f01, list) else [f01]
    q01s = [as_quantity(positive("finesse F01", q)) for q in series]
    h = as_quantity(positive("film thickness", thickness))
    r0c = _r0(q00.value)
    central = []
    for q01 in q01s:
        r1c = _r1(q01.value, r0c)
        central.append(extinction_from_reflectivities(r0c, r1c, h.value, wavelength_m))
        if q01.value > q00.value:
            warnings.warn(
                "modified cavity has higher finesse; kappa is negative "
                "(excess loss removed rather than added)",
                NegativeExtinctionWarning,
                stacklevel=2,
            )

    with _workspace(seed, mc_samples, 3, 5) as (normals, r0, loss0, scale, samples, tmp):
        z00, z01, zh = normals
        with np.errstate(all="ignore"):  # non-finite samples are counted by _summary
            bad = _r0_of_draws(q00, z00, r0, tmp)
            np.square(r0, out=loss0)  # 1 - r0^2
            np.subtract(1.0, loss0, out=loss0)
            np.multiply(h.sigma, zh, out=scale)  # -lambda/(8 pi h)
            scale += h.value
            bad |= scale <= 0
            scale *= 8.0 * math.pi
            np.divide(-wavelength_m, scale, out=scale)
            scale[bad] = np.nan
        kappas = []
        for q01, value in zip(q01s, central):
            with np.errstate(all="ignore"):
                bad = _r0_of_draws(q01, z01, samples, tmp)
                np.square(samples, out=samples)  # r1 = _r0(F01)^2 / r0
                samples /= r0
                np.square(samples, out=samples)
                np.add(loss0, samples, out=samples)  # 1 - r0^2 + r1^2, added in that order
                np.log(samples, out=samples)
                np.multiply(scale, samples, out=samples)
                samples[bad] = np.nan
            kappas.append(UncertainQuantity(value, _summary(samples, tmp).sigma))
    return kappas if isinstance(f01, list) else kappas[0]


def excess_reflection_loss(f00, f01) -> UncertainQuantity:
    """Reflection variation r0^2 - r1^2 between bare and modified cavities."""
    q00 = as_quantity(positive("finesse F00", f00))
    q01 = as_quantity(positive("finesse F01", f01))

    def loss(f0, f1):
        r0 = _r0(f0)
        r1 = _r1(f1, r0)
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
