"""Stray-charge budgets: how much charge each target tolerates, and a sweep.

``budget_report`` answers one ``toolkit budget`` target from a scenario:
a few (name, value, unit) rows and a SWEEP_POINTS-row table of the
target's figure of merit against charge (or laser power). Every row and
sweep point it returns is finite; numerics that overflow, divide by zero
or end non-finite raise EvaluationError instead. ``reports`` re-exports
``budget_report`` and ``SWEEP_POINTS``; this module imports neither
``reports`` nor the cavity-optics chain, so a ``budget`` command does
not load them.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import BUDGET_TARGETS, charging, electrostatics, ion_impact, rydberg_impact
from .errors import EvaluationError, ParameterError
from .quantities import CODATA
from .scenario import Scenario

__all__ = ["BUDGET_TARGETS", "SWEEP_POINTS", "budget_report"]

#: Points in every budget sweep.
SWEEP_POINTS = 200


def _sweep(upper: float, figure_of_merit) -> np.ndarray:
    """(x, y) rows: SWEEP_POINTS x values up to upper, y = f(x) in one call."""
    grid = np.linspace(upper / SWEEP_POINTS, upper, SWEEP_POINTS)
    return np.column_stack((grid, figure_of_merit(grid)))


def _charging_parts(scn: Scenario):
    """Film, illumination, photocurrent, resistance and steady state of the
    laser-charging scenario; the report's charging rows read them too."""
    film = scn.film_sample()
    illum = scn.illumination_scenario()
    current = charging.photocurrent(illum)
    resistance = charging.film_resistance(film)
    steady = charging.equilibrium_charge(
        resistance.resistance_ohm, film.capacitance_f, current.current_a
    )
    return film, illum, current, resistance, steady


def budget_report(
    scn: Scenario,
    target: str,
    intensity_floor: float = 0.5,
    modulation_limit: float = 0.2,
    displacement_m: Optional[float] = None,
    tau_pi_s: float = 5e-6,
    target_infidelity: float = 0.01,
):
    """Budget rows plus a (sweep_variable, figure_of_merit) table.

    Returns (rows, sweep_header, sweep) where rows is a list of
    (name, value, unit) tuples and sweep is a (SWEEP_POINTS, 2) array of
    (x, y) rows, its y column evaluated as one array call on the x grid.

    Raises ParameterError for an unknown target, and EvaluationError when
    the numerics raise an ArithmeticError (overflow, division by zero) or
    leave a row or a sweep point non-finite.
    """
    if target not in BUDGET_TARGETS:
        raise ParameterError(
            f"unknown budget target {target!r}; expected one of {BUDGET_TARGETS}"
        )
    try:
        # a non-finite intermediate either drops out or is caught below
        with np.errstate(all="ignore"):
            rows, header, sweep = _budget(
                scn, target, intensity_floor, modulation_limit, displacement_m,
                tau_pi_s, target_infidelity,
            )
    except ArithmeticError as exc:
        raise EvaluationError(
            f"target {target}: {type(exc).__name__}: {exc}; a scenario value is "
            "outside the floating-point range of the budget formulas"
        ) from exc
    for name, value, _unit in rows:
        if not math.isfinite(value):
            raise EvaluationError(f"target {target}: {name} = {float(value)!r} is not finite")
    if not np.isfinite(sweep).all():
        finite = np.isfinite(sweep).all(axis=1)
        k = int(np.argmin(finite))
        raise EvaluationError(
            f"target {target}: {np.count_nonzero(~finite)} of {len(sweep)} sweep "
            f"points are not finite, the first ({header}) = "
            f"({float(sweep[k, 0])!r}, {float(sweep[k, 1])!r})"
        )
    return rows, header, sweep


def _budget(
    scn, target, intensity_floor, modulation_limit, displacement_m, tau_pi_s,
    target_infidelity,
):
    """budget_report's (rows, sweep_header, sweep) for one target, unchecked."""
    if target == "charging":
        film, illum, current, resistance, steady = _charging_parts(scn)

        def first_principles_rate(power_w):
            return (
                illum.quantum_efficiency * power_w * illum.wavelength_m
                / (CODATA.h * CODATA.c)
            )

        rows = [
            ("photoelectron_rate", current.rate_per_s, "1/s"),
            (
                "photoelectron_rate_first_principles",
                first_principles_rate(illum.power_w),
                "1/s",
            ),
            ("photocurrent", current.current_a, "A"),
            ("sheet_resistance", resistance.sheet_resistance_ohm_sq, "Ohm/sq"),
            ("film_resistance", resistance.resistance_ohm, "Ohm"),
            ("film_voltage", steady.voltage_v, "V"),
            ("equilibrium_charge", steady.charge_e, "e"),
            ("rc_time", steady.rc_time_s, "s"),
            (
                "clipping_factor",
                charging.gaussian_clipping_factor(
                    illum.beam_waist_m, illum.mirror_distance_m
                ),
                "",
            ),
        ]
        sweep = _sweep(
            2.0 * max(illum.power_w, 1e-12),
            lambda p: charging.equilibrium_charge(
                resistance.resistance_ohm,
                film.capacitance_f,
                CODATA.e * first_principles_rate(p),
            ).charge_e,
        )
        return rows, "power_w,equilibrium_charge_e", sweep

    trap = scn.trap_config()
    x_q = scn.charge_scenario().x_q_m

    if target == "cooling":
        budget = ion_impact.max_charge_for_cooling(trap, x_q, intensity_floor)
        rows = [
            ("intensity_floor", intensity_floor, ""),
            ("q1_max", budget.q1_e, "e"),
            ("equilibrium_displacement", budget.x_tilde_m, "m"),
            ("field_at_ion", budget.field_v_per_m, "V/m"),
        ]
        sweep = _sweep(
            2.0 * budget.q1_e,
            lambda q: ion_impact.carrier_intensity_factor(
                ion_impact.micromotion_of_single_charge(trap, x_q, q),
                trap.cooling_wavelength_m,
            ),
        )
        return rows, "q1_e,carrier_intensity_factor", sweep

    if target == "coupling":
        x_target = (
            trap.cavity_wavelength_m / 8.0 if displacement_m is None else displacement_m
        )
        q1 = ion_impact.charge_for_displacement(trap, x_q, x_target)
        s = electrostatics.ChargeScenario(q1, 0.0, x_q)
        rows = [
            ("displacement_target", x_target, "m"),
            ("q1_max", q1, "e"),
            ("field_at_ion", electrostatics.field_at(s, x_target), "V/m"),
        ]
        sweep = _sweep(
            2.0 * max(q1, 1.0),
            lambda q: ion_impact.equilibrium_position(
                trap, electrostatics.ChargeScenario(q, 0.0, x_q)
            ),
        )
        return rows, "q1_e,equilibrium_displacement_m", sweep

    if target == "lamb-dicke":
        budget = ion_impact.lamb_dicke_budget(trap, x_q, modulation_limit)
        rows = [
            ("modulation_limit", modulation_limit, ""),
            ("q1_max", budget.q1_max_e, "e"),
            ("equilibrium_displacement", budget.x_tilde_max_m, "m"),
            ("micromotion_amplitude", budget.x_micromotion_max_m, "m"),
            ("field_at_ion", budget.field_v_per_m, "V/m"),
        ]
        k = 2.0 * math.pi / trap.gate_wavelength_m
        sweep = _sweep(
            2.0 * max(budget.q1_max_e, 1.0),
            lambda q: k * ion_impact.micromotion_of_single_charge(trap, x_q, q),
        )
        return rows, "q1_e,gate_modulation_index", sweep

    if target == "gate":
        gate = scn.gate_params()
        verdict = ion_impact.gate_detuning_verdict(trap, scn.charge_scenario(), gate)
        bound = ion_impact.max_equal_charge_for_gate(trap, x_q, gate)
        rows = [
            ("delta_x", verdict.delta_x_rad_s, "rad/s"),
            ("delta_x_over_rabi", verdict.ratio_rabi, ""),
            ("delta_x_over_secular", verdict.ratio_secular, ""),
            ("within_threshold", float(verdict.within_threshold), ""),
            ("equal_charge_bound", bound, "e"),
        ]
        q_scale = max(abs(scn.charge_scenario().q1_e), bound, 1.0)
        sweep = _sweep(
            2.0 * q_scale,
            lambda q: ion_impact.gate_detuning_verdict(
                trap, electrostatics.ChargeScenario(q, q, x_q), gate
            ).ratio_rabi,
        )
        return rows, "q1_e,detuning_over_rabi", sweep

    rydberg = scn.rydberg_config()
    if target == "rydberg-coherence":
        budget = rydberg_impact.charge_for_coherence_time(rydberg, tau_pi_s, x_q)
        rows = [
            ("tau_pi_goal", tau_pi_s, "s"),
            ("q1_max", budget.q1_e, "e"),
            ("field_at_atom", budget.field_v_per_m, "V/m"),
            (
                "stark_shift",
                rydberg_impact.stark_shift(rydberg, budget.field_v_per_m),
                "Hz",
            ),
        ]
        sweep = _sweep(
            2.0 * budget.q1_e,
            lambda q: rydberg_impact.decoherence_time(
                rydberg, electrostatics.single_charge_field(q, x_q)
            ),
        )
        return rows, "q1_e,decoherence_time_s", sweep

    # rydberg-gate
    budget = rydberg_impact.max_charge_for_infidelity(rydberg, target_infidelity, x_q)
    rows = [
        ("target_infidelity", target_infidelity, ""),
        ("q1_max", budget.q1_e, "e"),
        ("field_at_atom", budget.field_v_per_m, "V/m"),
    ]
    sweep = _sweep(
        2.0 * budget.q1_e,
        lambda q: rydberg_impact.blockade_infidelity(
            rydberg,
            rydberg_impact.stark_shift(
                rydberg, electrostatics.single_charge_field(q, x_q)
            ),
        ),
    )
    return rows, "q1_e,blockade_infidelity", sweep
