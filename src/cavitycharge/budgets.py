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

The sweep is evaluated with NumPy when it is already loaded (a library
caller that has imported it): one array call on the grid. Otherwise (a
``budget`` command) the figure of merit is called on each grid point,
a float, and NumPy is never imported. Both give the same bits.

The options (intensity_floor, modulation_limit, displacement_m, tau_pi_s,
target_infidelity) default to ``BUDGET_DEFAULTS``. ``reports`` re-exports
``budget_report`` and ``SWEEP_POINTS``; this module imports neither
``reports`` nor the cavity-optics chain, and each target imports only
its own physics modules, so a ``budget`` command loads no other.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import BUDGET_DEFAULTS, BUDGET_TARGETS
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
    figure_of_merit: Callable  # y of x, a float or an array of floats


def budget_rows(scn: Scenario, target: str, **options) -> dict[str, float]:
    """{name: value} of budget_report's rows, without evaluating the sweep."""
    options = _options(target, options)
    with finite_evaluation(f"target {target}") as check:
        rows = _TARGETS[target](scn, **options).rows
        return {name: check(name, value) for name, value, _unit in rows}


def budget_report(scn: Scenario, target: str, **options):
    """Budget rows plus a (sweep_variable, figure_of_merit) table.

    Returns (rows, sweep_header, sweep) where rows is a list of
    (name, value, unit) tuples and sweep is a sequence of SWEEP_POINTS
    (x, y) rows: a (SWEEP_POINTS, 2) array, its y column one array call on
    the x grid, when NumPy is loaded, else a list of float pairs, y called
    on each x. The two hold the same bits.

    Raises ParameterError for an unknown target, TypeError for an unknown
    option, and EvaluationError when the numerics raise an ArithmeticError
    (overflow, division by zero) or leave a row or a sweep point non-finite.
    """
    return _report(scn, target, options, sys.modules.get("numpy"))


def _report(scn: Scenario, target: str, options: dict, np):
    """budget_report with the sweep evaluated by np, or point by point if np is None."""
    options = _options(target, options)
    with finite_evaluation(f"target {target}") as check:
        rows, header, upper, figure_of_merit = _TARGETS[target](scn, **options)
        for name, value, _unit in rows:
            check(name, value)
        start = upper / SWEEP_POINTS
        if np is not None:
            grid = np.linspace(start, upper, SWEEP_POINTS)
            sweep = np.column_stack((grid, figure_of_merit(grid)))
            complete = np.isfinite(sweep).all()
        else:
            # np.linspace's grid: start + i * step, its last point upper itself
            step = (upper - start) / (SWEEP_POINTS - 1)
            grid = [i * step + start for i in range(SWEEP_POINTS - 1)] + [upper]
            sweep = [(x, _at(figure_of_merit, x)) for x in grid]
            complete = all(map(_finite_row, sweep))
        if not complete:
            bad = [row for row in sweep if not _finite_row(row)]
            raise EvaluationError(
                f"{len(bad)} of {len(sweep)} sweep points are not finite, the first "
                f"({header}) = ({float(bad[0][0])!r}, {float(bad[0][1])!r})"
            )
    return rows, header, sweep


def _at(figure_of_merit, x: float) -> float:
    """figure_of_merit(x), or nan where an array call's element would be non-finite."""
    try:
        return figure_of_merit(x)
    except ArithmeticError:
        return math.nan


def _finite_row(row) -> bool:
    return math.isfinite(row[0]) and math.isfinite(row[1])


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
    from . import charging
    film = scn._require("film")
    illum = scn._require("illumination")
    x_q = scn._require("charges").xq_m
    current = charging.photocurrent(illum)
    resistance = charging.film_resistance(film)
    steady = charging.equilibrium_charge(resistance, film.capacitance_f, current.current_a)
    rows = [
        ("photoelectron_rate", current.rate_per_s, "1/s"),
        ("photoelectron_rate_first_principles",
         charging.photoelectron_flux(illum, illum.power_w), "1/s"),
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
            resistance, film.capacitance_f, CODATA.e * charging.photoelectron_flux(illum, p),
        ).charge_e,
    )


def _cooling(scn, intensity_floor, **_) -> _Target:
    from . import ion_impact
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
    from . import electrostatics, ion_impact
    trap = scn._require("trap")
    x_q = scn._require("charges").xq_m
    x_target = displacement_m
    if x_target is None:
        x_target = trap.cavity_wavelength_m / 8.0
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
    from . import ion_impact
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
    from . import electrostatics, ion_impact
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
    from . import electrostatics, rydberg_impact
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
        lambda q: rydberg_impact._decoherence_time(
            rydberg, electrostatics.single_charge_field(q, x_q)
        ),
    )


def _rydberg_gate(scn, target_infidelity, **_) -> _Target:
    from . import electrostatics, rydberg_impact
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
        lambda q: rydberg_impact._blockade_infidelity(
            rydberg,
            rydberg_impact._stark_shift(
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
