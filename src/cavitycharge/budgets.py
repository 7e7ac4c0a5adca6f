"""Stray-charge budgets: how much charge each target tolerates, and a sweep.

Each ``toolkit budget`` target computes a few (name, value, unit) rows
plus its sweep: the CSV header, the upper end of the charge (or laser
power) grid and the figure of merit as a function of that grid.
``budget_report`` returns the rows and the sweep evaluated on
SWEEP_POINTS points; ``budget_rows`` returns the rows alone, which is
where the reproduction report reads its budget numbers. Both run the
target under ``quantities.finite_evaluation``: every row and sweep point
returned is finite; numerics that overflow, divide by zero or end
non-finite raise EvaluationError, and any toolkit error raised while a
target is evaluated starts with "target T: ".

The options (intensity_floor, modulation_limit, displacement_m, tau_pi_s,
target_infidelity) default to ``BUDGET_DEFAULTS``. ``reports`` re-exports
``budget_report`` and ``SWEEP_POINTS``; this module imports neither
``reports`` nor the cavity-optics chain, so a ``budget`` command does not
load them.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import (
    BUDGET_DEFAULTS, BUDGET_TARGETS, charging, electrostatics, ion_impact, rydberg_impact,
)
from .errors import EvaluationError, ParameterError
from .quantities import CODATA, finite_evaluation
from .scenario import Scenario

__all__ = ["BUDGET_DEFAULTS", "BUDGET_TARGETS", "SWEEP_POINTS", "budget_report", "budget_rows"]

#: Points in every budget sweep.
SWEEP_POINTS = 200


class _Target(NamedTuple):
    rows: list             # (name, value, unit)
    header: str            # sweep CSV header, "x_name,y_name"
    upper: float           # the sweep grid runs from upper / SWEEP_POINTS to upper
    figure_of_merit: Callable  # y of an array of x, in one call


def budget_rows(scn: Scenario, target: str, **options) -> dict[str, float]:
    """{name: value} of budget_report's rows, without evaluating the sweep."""
    options = _options(target, options)
    with finite_evaluation(f"target {target}") as check:
        rows = _TARGETS[target](scn, **options).rows
        return {name: check(name, value) for name, value, _unit in rows}


def budget_report(scn: Scenario, target: str, **options):
    """Budget rows plus a (sweep_variable, figure_of_merit) table.

    Returns (rows, sweep_header, sweep) where rows is a list of
    (name, value, unit) tuples and sweep is a (SWEEP_POINTS, 2) array of
    (x, y) rows, its y column evaluated as one array call on the x grid.

    Raises ParameterError for an unknown target, TypeError for an unknown
    option, and EvaluationError when the numerics raise an ArithmeticError
    (overflow, division by zero) or leave a row or a sweep point non-finite.
    """
    options = _options(target, options)
    with finite_evaluation(f"target {target}") as check:
        rows, header, upper, figure_of_merit = _TARGETS[target](scn, **options)
        for name, value, _unit in rows:
            check(name, value)
        grid = np.linspace(upper / SWEEP_POINTS, upper, SWEEP_POINTS)
        sweep = np.column_stack((grid, figure_of_merit(grid)))
        if not np.isfinite(sweep).all():
            finite = np.isfinite(sweep).all(axis=1)
            k = int(np.argmin(finite))
            raise EvaluationError(
                f"{np.count_nonzero(~finite)} of {len(sweep)} sweep points are not "
                f"finite, the first ({header}) = "
                f"({float(sweep[k, 0])!r}, {float(sweep[k, 1])!r})"
            )
    return rows, header, sweep


def _options(target: str, options: dict) -> dict:
    """Every option of a known target, BUDGET_DEFAULTS filling the gaps."""
    if target not in _TARGETS:
        raise ParameterError(
            f"unknown budget target {target!r}; expected one of {BUDGET_TARGETS}"
        )
    if not options.keys() <= BUDGET_DEFAULTS.keys():
        unknown = sorted(options.keys() - BUDGET_DEFAULTS.keys())
        raise TypeError(f"unknown budget options {unknown}")
    return {**BUDGET_DEFAULTS, **options}


def _charging(scn, **_) -> _Target:
    film = scn._require("film")
    illum = scn._require("illumination")
    x_q = scn._require("charges").xq_m
    current = charging.photocurrent(illum)
    resistance = charging.film_resistance(film)
    steady = charging.equilibrium_charge(resistance, film.capacitance_f, current.current_a)

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
        ("sheet_resistance", resistance, "Ohm/sq"),
        ("film_resistance", resistance, "Ohm"),
        ("film_voltage", steady.voltage_v, "V"),
        ("equilibrium_charge", steady.charge_e, "e"),
        ("rc_time", steady.rc_time_s, "s"),
        ("clipping_factor", charging.gaussian_clipping_factor(illum.waist_m, x_q), ""),
    ]
    return _Target(
        rows, "power_w,equilibrium_charge_e", 2.0 * max(illum.power_w, 1e-12),
        lambda p: charging.equilibrium_charge(
            resistance, film.capacitance_f, CODATA.e * first_principles_rate(p),
        ).charge_e,
    )


def _cooling(scn, intensity_floor, **_) -> _Target:
    trap = scn._require("trap")
    x_q = scn._require("charges").xq_m
    budget = ion_impact.max_charge_for_cooling(trap, x_q, intensity_floor)
    rows = [
        ("intensity_floor", intensity_floor, ""),
        ("q1_max", budget.q1_e, "e"),
        ("equilibrium_displacement", budget.x_tilde_m, "m"),
        ("field_at_ion", budget.field_v_per_m, "V/m"),
    ]
    return _Target(
        rows, "q1_e,carrier_intensity_factor", 2.0 * budget.q1_e,
        lambda q: ion_impact.carrier_intensity_factor(
            ion_impact.micromotion_of_single_charge(trap, x_q, q),
            trap.cooling_wavelength_m,
        ),
    )


def _coupling(scn, displacement_m, **_) -> _Target:
    trap = scn._require("trap")
    x_q = scn._require("charges").xq_m
    x_target = trap.cavity_wavelength_m / 8.0 if displacement_m is None else displacement_m
    q1 = ion_impact.charge_for_displacement(trap, x_q, x_target)
    s = electrostatics.ChargeScenario(q1, 0.0, x_q)
    rows = [
        ("displacement_target", x_target, "m"),
        ("q1_max", q1, "e"),
        ("field_at_ion", electrostatics.field_at(s, x_target), "V/m"),
    ]
    return _Target(
        rows, "q1_e,equilibrium_displacement_m", 2.0 * max(q1, 1.0),
        lambda q: ion_impact.equilibrium_position(
            trap, electrostatics.ChargeScenario(q, 0.0, x_q)
        ),
    )


def _lamb_dicke(scn, modulation_limit, **_) -> _Target:
    trap = scn._require("trap")
    x_q = scn._require("charges").xq_m
    budget = ion_impact.lamb_dicke_budget(trap, x_q, modulation_limit)
    rows = [
        ("modulation_limit", modulation_limit, ""),
        ("q1_max", budget.q1_max_e, "e"),
        ("equilibrium_displacement", budget.x_tilde_max_m, "m"),
        ("micromotion_amplitude", budget.x_micromotion_max_m, "m"),
        ("field_at_ion", budget.field_v_per_m, "V/m"),
    ]
    k = 2.0 * math.pi / trap.gate_wavelength_m
    return _Target(
        rows, "q1_e,gate_modulation_index", 2.0 * max(budget.q1_max_e, 1.0),
        lambda q: k * ion_impact.micromotion_of_single_charge(trap, x_q, q),
    )


def _gate(scn, **_) -> _Target:
    trap = scn._require("trap")
    charges = scn.charge_scenario()
    x_q = charges.x_q_m
    gate = scn.gate_params()
    verdict = ion_impact.gate_detuning_verdict(trap, charges, gate)
    bound = ion_impact.max_equal_charge_for_gate(trap, x_q, gate)
    rows = [
        ("delta_x", verdict.delta_x_rad_s, "rad/s"),
        ("delta_x_over_rabi", verdict.ratio_rabi, ""),
        ("delta_x_over_secular", verdict.ratio_secular, ""),
        ("within_threshold", float(verdict.within_threshold), ""),
        ("equal_charge_bound", bound, "e"),
    ]
    return _Target(
        rows, "q1_e,detuning_over_rabi", 2.0 * max(abs(charges.q1_e), bound, 1.0),
        lambda q: ion_impact.gate_detuning_verdict(
            trap, electrostatics.ChargeScenario(q, q, x_q), gate
        ).ratio_rabi,
    )


def _rydberg_coherence(scn, tau_pi_s, **_) -> _Target:
    rydberg = scn._require("rydberg")
    x_q = scn._require("charges").xq_m
    budget = rydberg_impact.charge_for_coherence_time(rydberg, tau_pi_s, x_q)
    rows = [
        ("tau_pi_goal", tau_pi_s, "s"),
        ("q1_max", budget.q1_e, "e"),
        ("field_at_atom", budget.field_v_per_m, "V/m"),
        ("stark_shift", rydberg_impact.stark_shift(rydberg, budget.field_v_per_m), "Hz"),
    ]
    return _Target(
        rows, "q1_e,decoherence_time_s", 2.0 * budget.q1_e,
        lambda q: rydberg_impact.decoherence_time(
            rydberg, electrostatics.single_charge_field(q, x_q)
        ),
    )


def _rydberg_gate(scn, target_infidelity, **_) -> _Target:
    rydberg = scn._require("rydberg")
    x_q = scn._require("charges").xq_m
    budget = rydberg_impact.max_charge_for_infidelity(rydberg, target_infidelity, x_q)
    rows = [
        ("target_infidelity", target_infidelity, ""),
        ("q1_max", budget.q1_e, "e"),
        ("field_at_atom", budget.field_v_per_m, "V/m"),
    ]
    return _Target(
        rows, "q1_e,blockade_infidelity", 2.0 * budget.q1_e,
        lambda q: rydberg_impact.blockade_infidelity(
            rydberg,
            rydberg_impact.stark_shift(
                rydberg, electrostatics.single_charge_field(q, x_q)
            ),
        ),
    )


_TARGETS = {
    "cooling": _cooling,
    "coupling": _coupling,
    "lamb-dicke": _lamb_dicke,
    "gate": _gate,
    "rydberg-coherence": _rydberg_coherence,
    "rydberg-gate": _rydberg_gate,
    "charging": _charging,
}
