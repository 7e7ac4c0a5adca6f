"""Trapped-ion consequences of stray charge on nearby mirror surfaces.

The ion sits in a harmonic pseudopotential U_t = k_t x^2 with
k_t = (1/2) m omega_x^2. Adding the quadratic stray-charge expansion
U_Q = s_q (A x + B x^2 + C) shifts the equilibrium and the secular
frequency:

    x~       = -(1/2) s_q A / (k_t + s_q B)
    omega~_x = sqrt(2 (k_t + s_q B) / m)

An ion displaced from the RF null by x~ acquires excess micromotion of
amplitude x_um = sqrt(2) (omega~_x / Omega_RF) x~ (Berkeland et al.,
J. Appl. Phys. 83, 5025 (1998)). In the ion frame the
cooling laser is phase modulated at Omega_RF with index
beta = 2 pi x_um / lambda_D, leaving a carrier intensity J0(beta)^2; a
below-saturation scattering (hence Doppler cooling) rate scales by the
same factor. Laser-driven gates additionally require the Lamb-Dicke
condition k x_um << 1 and a small secular-frequency error
delta_x = |omega_x - omega~_x| against the two-qubit Rabi rate.

Budget helpers invert these monotone chains in closed form to find the
largest tolerable stray charge (q2 = 0 convention, charges in units of e);
the cooling budget first solves J0(beta) = sqrt(floor) by Newton's method.
J0 is summed from its power series on |x| < 8, the only range the cooling
budget and its sweep reach (beta < 4.81); bessel_j0 refuses the rest.

`trap` is a scenario [trap] section (scenario.TrapSection), whose keys
were checked against their range rules when it was built. Every function
that takes it reads mass_amu, secular_hz and rf_hz, and raises
ParameterError unless secular_hz < rf_hz and k_t is positive and finite;
max_charge_for_cooling also reads cooling_wavelength_m, and
lamb_dicke_budget gate_wavelength_m. `gate` is a GateParams, whose Rabi
rate and threshold were checked finite and positive when it was built.

Every public function takes real numbers, which it checks and converts to
floats as quantities describes: a charge, displacement, frequency,
micromotion amplitude or J0 argument that is not a finite real number (a
bool, a NumPy array) is a ParameterError. They check their arguments, then
call the unchecked chain (_unchecked_well, _micromotion, _carrier,
_detuning), which a budget sweep composes with the trap's constants
computed once; it computes a float with `math` alone, and an array (the
sweep's grid, when the caller has loaded NumPy) element by element with a
float's bits. Squares are written x * x there: a float's x**2 is pow(x, 2),
which differs from an array's x*x by one ulp on about 0.1% of inputs. Only
_math_of and _j0_series_array touch NumPy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .electrostatics import ChargeScenario, ExpansionCoefficients, expansion_coefficients, field_at
from .errors import ParameterError, SearchError, StabilityError
from .quantities import CODATA, _as_float, checked, finite, positive

if TYPE_CHECKING:
    from .scenario import TrapSection

__all__ = [
    "GateParams",
    "CoolingBudget",
    "LambDickeBudget",
    "GateDetuning",
    "equilibrium_position",
    "shifted_frequency",
    "micromotion_amplitude",
    "bessel_j0",
    "BESSEL_J0_FIRST_ZERO",
    "carrier_intensity_factor",
    "micromotion_of_single_charge",
    "max_charge_for_cooling",
    "lamb_dicke_budget",
    "charge_for_displacement",
    "zero_point_spread",
    "gate_detuning_verdict",
    "max_equal_charge_for_gate",
]

#: Largest charge a budget returns, in elementary charges; a budget that
#: needs more raises SearchError.
CHARGE_SEARCH_MAX_E = 1e9

#: First positive zero of J0.
BESSEL_J0_FIRST_ZERO = 2.404825557695773


@checked
class GateParams(NamedTuple):
    """Two-qubit gate Rabi rate, Hz, and the threshold on delta_x / Omega_2g;
    each must be a real number (not a bool), finite and > 0, else
    ParameterError. The record holds each as a float."""

    rabi_hz: float
    threshold_ratio: float = 0.013

    def _checked(self):
        return (positive("Rabi rate", self.rabi_hz),
                positive("threshold ratio", self.threshold_ratio))


class CoolingBudget(NamedTuple):
    q1_e: float
    field_v_per_m: float
    x_tilde_m: float


class LambDickeBudget(NamedTuple):
    x_tilde_max_m: float
    x_micromotion_max_m: float
    q1_max_e: float
    field_v_per_m: float


class GateDetuning(NamedTuple):
    delta_x_rad_s: float
    ratio_rabi: float      # delta_x / Omega_2g
    ratio_secular: float   # delta_x / omega_x
    within_threshold: bool


def _trap(trap: TrapSection):
    """(m, omega_x, Omega_RF, k_t) of a [trap] section, in kg, rad/s and J/m^2.

    Raises ParameterError unless the secular frequency is below the RF drive
    and k_t = (1/2) m omega_x^2 is positive and finite.
    """
    if not trap.secular_hz < trap.rf_hz:
        raise ParameterError(
            f"RF drive ({trap.rf_hz} Hz) must exceed the secular frequency "
            f"({trap.secular_hz} Hz)"
        )
    mass_kg = trap.mass_amu * CODATA.amu
    omega_x = 2.0 * math.pi * trap.secular_hz
    try:
        k_t = 0.5 * mass_kg * omega_x**2
    except OverflowError:  # a float's ** raises where * gives inf
        k_t = math.inf
    if not 0.0 < k_t < math.inf:
        raise ParameterError(
            f"trap curvature k_t = m omega_x^2 / 2 = {k_t!r} J/m^2 is not positive "
            f"and finite for mass {trap.mass_amu} amu and secular frequency "
            f"{trap.secular_hz} Hz"
        )
    return mass_kg, omega_x, 2.0 * math.pi * trap.rf_hz, k_t


def _well(mass_kg: float, k_t: float, c: ExpansionCoefficients):
    """_unchecked_well, once the well is confined: StabilityError when
    k_t + s_q B <= 0."""
    k_eff = k_t + c.s_q * c.B
    if k_eff <= 0:
        raise StabilityError(f"stray charge cancels the trap curvature "
                             f"(k_t + s_q B = {k_eff:.3e})")
    return _unchecked_well(mass_kg, k_t, c)


# The unchecked chain. Each takes floats, or arrays for the charge and what
# follows from it, and checks nothing.


def _unchecked_well(mass_kg: float, k_t: float, c: ExpansionCoefficients):
    """(x~, omega~_x) of the well k_t x^2 + s_q (A x + B x^2)."""
    k_eff = k_t + c.s_q * c.B
    return -0.5 * c.s_q * c.A / k_eff, _math_of(k_eff).sqrt(2.0 * k_eff / mass_kg)


def _micromotion(omega_rf: float, x_tilde_m, omega_tilde):
    """sqrt(2) (omega~_x / Omega_RF) x~, zero giving 0.0, not -0.0."""
    return math.sqrt(2.0) * (omega_tilde / omega_rf) * x_tilde_m + 0.0


def _j0(x):
    """J0 of a float or of each element of a non-empty array, |x| < 8."""
    return _j0_series(abs(x))[0] if isinstance(x, float) else _j0_series_array(abs(x))


def _carrier(x_micromotion_m, cooling_wavelength_m: float, j0=_j0):
    """J0(beta)^2, beta = 2 pi x_um / lambda_D; carrier_intensity_factor
    passes bessel_j0 as j0, which refuses |beta| >= 8."""
    beta = 2.0 * math.pi * x_micromotion_m / cooling_wavelength_m
    value = j0(beta)
    return value * value


def _detuning(omega_x: float, omega_tilde, rabi_hz: float):
    """(delta_x = |omega_x - omega~_x|, delta_x / Omega_2g)."""
    delta = abs(omega_x - omega_tilde)
    return delta, delta / (2.0 * math.pi * rabi_hz)


def _math_of(x):
    """math for a float, numpy for an array (whose caller has loaded it);
    their sqrt gives the same bits per element."""
    if isinstance(x, float):
        return math
    import numpy

    return numpy


def equilibrium_position(trap: TrapSection, s: ChargeScenario) -> float:
    """Displaced equilibrium x~ = -(1/2) s_q A / (k_t + s_q B), in m."""
    mass_kg, _, _, k_t = _trap(trap)
    return _well(mass_kg, k_t, expansion_coefficients(s))[0]


def shifted_frequency(trap: TrapSection, s: ChargeScenario) -> float:
    """Perturbed secular frequency sqrt(2 (k_t + s_q B)/m), rad/s."""
    mass_kg, _, _, k_t = _trap(trap)
    return _well(mass_kg, k_t, expansion_coefficients(s))[1]


def micromotion_amplitude(trap: TrapSection, x_tilde_m: float, omega_tilde: float) -> float:
    """Excess micromotion sqrt(2) (omega~_x / Omega_RF) x~, in m; x~ and
    omega~_x are finite real numbers, else ParameterError."""
    omega_rf = _trap(trap)[2]
    return _micromotion(omega_rf, finite("displacement x~", x_tilde_m),
                        finite("frequency omega~", omega_tilde))


# ---------------------------------------------------------------------------
# Bessel J0 on |x| < 8, by its power series; anything else is refused. Only
# the cooling target calls it: its Newton root lies below j0,1 = 2.405, and
# its sweep ends at twice the budget charge, where beta is at most twice the
# root's (x_um = c q / sqrt(k_t + b q) with b > 0), so below 4.81.

#: bessel_j0 refuses any argument with |x| at or above this.
_J0_BOUND = 8.0


def _j0_series(x, slope=False):
    """(J0(x), J0'(x) or 0.0 without slope, k) for a float 0 <= x < 8: the sum
    of (-1)^k (x^2/4)^k / (k!)^2 up to the first term k below 1e-17 of it, and
    J0' = -J1 = -(x/2) sum_k (-1)^k (x^2/4)^k / (k! (k+1)!) over the same terms."""
    nz = -0.25 * x * x
    term = total = d = 1.0
    for k in range(1, 200):
        term *= nz / (k * k)
        total += term
        if slope:
            d += term / (k + 1)
        if not abs(term) > 1e-17 * abs(total) + 1e-300:
            break
    return total, -0.5 * x * d if slope else 0.0, k


def _j0_series_array(x):
    """_j0_series's J0 of each element of a non-empty array, with its bits.

    The loop runs until its slowest element has converged: past an
    element's own stopping point the terms stay below half an ulp of its
    sum, so they leave it unchanged. No element stops before the largest,
    so the test starts at the term where the largest one's series stops
    (an element near a zero of J0 stops later)."""
    import numpy as np

    first_test = _j0_series(float(x.max()))[2]
    nz = -0.25 * x * x
    term, total, step = np.ones_like(x), np.ones_like(x), np.empty_like(x)
    for k in range(1, 200):
        np.divide(nz, k * k, out=step)
        term *= step
        total += term
        if k >= first_test and not (abs(term) > 1e-17 * abs(total) + 1e-300).any():
            break
    return total


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero, for |x| < 8.

    J0 is even; computed from the defining power series
    sum_k (-1)^k (x^2/4)^k / (k!)^2, which is within 2e-14 of J0 over
    |x| < 8. Takes a real number (not a bool) and returns a float. Raises
    ParameterError for anything else, and for a NaN, an infinity or
    |x| >= 8, before the series runs.
    """
    if (number := _as_float(x)) is None:
        raise ParameterError(f"J0 argument must be a real number, got {x!r}")
    if not -_J0_BOUND < number < _J0_BOUND:
        raise ParameterError(f"J0 argument must have |x| < 8, got {x!r}")
    return _j0_series(abs(number))[0]


def carrier_intensity_factor(x_micromotion_m: float, cooling_wavelength_m: float) -> float:
    """Carrier intensity reduction J0(beta)^2, beta = 2 pi x_um / lambda_D,
    for |beta| < 8 (bessel_j0's domain; ParameterError beyond). x_um is a
    finite real number, else ParameterError."""
    return _carrier(finite("micromotion amplitude", x_micromotion_m),
                    positive("cooling wavelength", cooling_wavelength_m), bessel_j0)


def micromotion_of_single_charge(trap: TrapSection, x_q_m: float, q1_e: float) -> float:
    """Micromotion amplitude for a single charge q1 at x_Q (q2 = 0).

    Expands the charge once for both x~ and omega~_x. Zero charge gives
    0.0.
    """
    mass_kg, _, omega_rf, k_t = _trap(trap)
    c = expansion_coefficients(ChargeScenario(q1_e, 0.0, x_q_m))
    return _micromotion(omega_rf, *_well(mass_kg, k_t, c))


def max_charge_for_cooling(
    trap: TrapSection, x_q_m: float, intensity_floor: float
) -> CoolingBudget:
    """Largest q1 (q2 = 0) keeping the carrier intensity above a floor.

    Solves J0(beta) = sqrt(floor) below the first J0 zero, where J0 falls
    monotonically from 1 to 0, by Newton's method with J0' = -J1 from the
    same power series. A step that leaves the bracket of the points
    evaluated so far goes to the bracket's midpoint. It stops at machine
    precision: when a step would move beta by at most an ulp, or when no
    float is left between the bracket's ends. Then it inverts
    x_um = beta lambda_D / (2 pi) for q1 in closed form.
    """
    _trap(trap)  # the trap's checks come before the option's
    if (floor := _as_float(intensity_floor)) is None or not 0.0 < floor < 1.0:
        raise ParameterError(f"intensity floor must be in (0,1), got {intensity_floor!r}")
    target = math.sqrt(floor)
    lo, hi = 0.0, BESSEL_J0_FIRST_ZERO
    # J0 = 1 - b^2/4 + b^4/64 inverted, bent to rise to the zero as the floor falls to 0
    w = 1.0 - math.sqrt(target)
    beta = math.sqrt(8.0 * w - (8.0 - BESSEL_J0_FIRST_ZERO**2) * w**3)
    while True:
        j0, slope, _ = _j0_series(beta, slope=True)
        lo, hi = (beta, hi) if j0 > target else (lo, beta)
        newton = beta - (j0 - target) / slope
        if abs(newton - beta) <= math.ulp(beta):
            break
        beta = newton if lo < newton < hi else 0.5 * (lo + hi)
        if beta in (lo, hi):
            break
    x_um = beta * trap.cooling_wavelength_m / (2.0 * math.pi)
    q1 = _charge_for_micromotion(trap, x_q_m, x_um)
    s = ChargeScenario(q1, 0.0, x_q_m)
    x_t = equilibrium_position(trap, s)
    return CoolingBudget(q1, field_at(s, x_t), x_t)


def lamb_dicke_budget(
    trap: TrapSection, x_q_m: float, modulation_limit: float
) -> LambDickeBudget:
    """Charge budget from the gate-laser phase-modulation cap k x_um < limit."""
    _trap(trap)  # the trap's checks come before the option's
    limit = positive("modulation limit", modulation_limit)
    x_um_max = limit * trap.gate_wavelength_m / (2.0 * math.pi)
    q1 = _charge_for_micromotion(trap, x_q_m, x_um_max)
    if q1 == 0.0:
        return LambDickeBudget(0.0, x_um_max, 0.0, 0.0)
    s = ChargeScenario(q1, 0.0, x_q_m)
    x_t = equilibrium_position(trap, s)
    return LambDickeBudget(x_t, x_um_max, q1, field_at(s, x_t))


def charge_for_displacement(trap: TrapSection, x_q_m: float, x_tilde_m: float) -> float:
    """q1 (q2 = 0) that displaces the equilibrium to x~, closed form.

    Solving x~ = (1/2) u q1 / x_q^2 / (k_t + u q1 / x_q^3) for q1 with
    u = e^2/(4 pi eps0); only displacements below x_q/2 are reachable.
    """
    k_t = _trap(trap)[3]
    x_q = positive("x_Q", x_q_m)
    if (x_tilde := _as_float(x_tilde_m)) is None or not 0.0 <= x_tilde < 0.5 * x_q:
        raise ParameterError(
            f"displacement {x_tilde_m!r} m outside the reachable range "
            f"[0, x_q/2 = {0.5 * x_q} m)"
        )
    if x_tilde == 0.0:
        return 0.0
    u = CODATA.e**2 * CODATA.k_e
    denom = u * (0.5 / x_q**2 - x_tilde / x_q**3)
    return x_tilde * k_t / denom


def _charge_for_micromotion(trap: TrapSection, x_q_m: float, x_um_m: float) -> float:
    """q1 (q2 = 0) with excess micromotion x_um >= 0; SearchError past CHARGE_SEARCH_MAX_E.

    x_um = c q / sqrt(k_t + b q) with u = e^2/(4 pi eps0), b = u/x_Q^3 and
    c = u/(Omega_RF x_Q^2 sqrt(m)); its positive root, free of cancellation,
    is q = x_um (b x_um + sqrt(b^2 x_um^2 + 4 c^2 k_t)) / (2 c^2).
    """
    mass_kg, _, omega_rf, k_t = _trap(trap)
    x_q = positive("x_Q", x_q_m)
    u = CODATA.e**2 * CODATA.k_e
    b = u / x_q**3
    c = u / (omega_rf * x_q**2 * math.sqrt(mass_kg))
    bx = b * x_um_m
    q = x_um_m * (bx + math.sqrt(bx * bx + 4.0 * c * c * k_t)) / (2.0 * c * c)
    if q > CHARGE_SEARCH_MAX_E:
        raise SearchError(f"micromotion amplitude {x_um_m:.6g} m needs q1 = {q:.6g} e, "
                          f"above the {CHARGE_SEARCH_MAX_E:.0e} e limit")
    return q


def zero_point_spread(trap: TrapSection) -> float:
    """Ground-state wavepacket size sqrt(hbar/(2 m omega_x)), in m."""
    mass_kg, omega_x, _, _ = _trap(trap)
    return math.sqrt(CODATA.hbar / (2.0 * mass_kg * omega_x))


def gate_detuning_verdict(
    trap: TrapSection, s: ChargeScenario, gate: GateParams
) -> GateDetuning:
    """Secular-frequency error against the gate threshold.

    delta_x = |omega_x - omega~_x| is compared to the two-qubit Rabi rate
    (ratio_rabi, thresholded) and to the secular frequency itself
    (ratio_secular, reported for reference).
    """
    omega_x = _trap(trap)[1]
    delta, ratio_rabi = _detuning(omega_x, shifted_frequency(trap, s), gate.rabi_hz)
    return GateDetuning(
        delta_x_rad_s=delta,
        ratio_rabi=ratio_rabi,
        ratio_secular=delta / omega_x,
        within_threshold=ratio_rabi < gate.threshold_ratio,
    )


def max_equal_charge_for_gate(trap: TrapSection, x_q_m: float, gate: GateParams) -> float:
    """Largest q1 = q2 keeping delta_x/Omega_2g below the gate threshold.

    With equal charges A = 0, so delta_x depends only on B: closed-form
    inversion of omega~_x = omega_x sqrt(1 + s_q B / k_t).
    """
    _, omega_x, _, k_t = _trap(trap)
    x_q = positive("x_Q", x_q_m)
    delta_target = gate.threshold_ratio * (2.0 * math.pi * gate.rabi_hz)
    s_q_b = k_t * ((1.0 + delta_target / omega_x) ** 2 - 1.0)
    b = s_q_b / (CODATA.e * CODATA.k_e)
    q_total_e = b * x_q**3 / CODATA.e
    return 0.5 * q_total_e
