"""Reference-reproduction report: recompute every published anchor value.

Each report row recomputes one quantity from bundled inputs and compares
it against the printed reference value under a tolerance declared in the
bundled manifest (data/report_manifest.json), so the acceptance thresholds
are auditable without reading code. Statuses:

* MATCH                -- within the row's declared tolerance
* MISMATCH-DOCUMENTED  -- outside tolerance, but a known, documented
                          discrepancy of the source analysis
* MISMATCH             -- outside tolerance and *not* expected; the report
                          command exits non-zero on these
* N/A                  -- informational row without a pass/fail contract

Relative deviations are symmetric: |computed - reference| divided by
max(|computed|, |reference|). Reference values are printed with two or
three significant figures, so measuring against the rounder number alone
would overstate the error. A 1e-9 relative guard absorbs last-ulp float
noise at tolerance boundaries.

Three discrepancies are expected and documented:

* kappa_zno_128d      -- the printed film extinction at 128 days is
                         8.0e-5 while the finesse pair in the same table
                         reproduces 1.05e-4 (the companion reflection
                         variation 4.8e-5 *does* match the printed text).
* gate_ratio_rabi     -- the printed claim that 630 equal charges keep
                         delta_x/Omega_2g below 0.013 is inconsistent with
                         the stated formulas, which give 0.64 (the bound
                         holds for delta_x/omega_x instead; both ratios
                         are reported).
* photocurrent_rate   -- the printed photoelectron rate 4e11 1/s does not
                         follow from P lambda/(h c) = 3.7e14 1/s for the
                         stated power; the first-principles value is
                         reported alongside, flagged.

``budget_report`` and ``SWEEP_POINTS`` live in ``budgets`` and are
re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from . import BUDGET_TARGETS, cavity_optics, charging, electrostatics, ion_impact, rydberg_impact
from .budgets import SWEEP_POINTS, _charging_parts, budget_report
from .errors import ParameterError
from .quantities import CODATA, UncertainQuantity, propagate_monte_carlo
from .ringdown import finesse, fsr_from_length
from .scenario import Scenario, parse_scenario

__all__ = [
    "ReportRow",
    "EXPECTED_DOCUMENTED",
    "bundled_scenario",
    "bundled_scenario_text",
    "load_manifest",
    "build_report",
    "report_exit_code",
    "render_text",
    "render_csv",
    "budget_report",
    "BUDGET_TARGETS",
    "SWEEP_POINTS",
]

_FLOAT_GUARD = 1e-9  # relative guard against last-ulp tolerance failures

EXPECTED_DOCUMENTED = frozenset(
    {"kappa_zno_128d", "gate_ratio_rabi", "photocurrent_rate"}
)


@dataclass(frozen=True)
class ReportRow:
    row_id: str
    label: str
    units: str
    computed: float
    sigma: float
    reference: Optional[float]
    deviation: Optional[float]
    status: str
    note: str


def _data_text(name: str) -> str:
    return resources.files("cavitycharge").joinpath(f"data/{name}").read_text(
        encoding="utf-8"
    )


def bundled_scenario_text() -> str:
    return _data_text("paper_yb.scenario")


def bundled_scenario() -> Scenario:
    return parse_scenario(bundled_scenario_text())


def load_manifest() -> list[dict]:
    return json.loads(_data_text("report_manifest.json"))


def _relative_deviation(computed: float, reference: float) -> float:
    scale = max(abs(computed), abs(reference))
    if scale == 0.0:
        return 0.0
    return abs(computed - reference) / scale


def _within(kind: str, computed: float, reference, tol) -> bool:
    if kind == "rel":
        return _relative_deviation(computed, reference) <= tol * (1.0 + _FLOAT_GUARD)
    if kind in ("abs", "sigma"):
        return abs(computed - reference) <= tol * (1.0 + _FLOAT_GUARD)
    if kind == "band":
        lo, hi = tol
        guard = _FLOAT_GUARD * max(abs(lo), abs(hi))
        return lo - guard <= computed <= hi + guard
    if kind == "upper":
        return computed <= tol * (1.0 + _FLOAT_GUARD)
    raise ParameterError(f"unknown tolerance kind {kind!r}")


def _make_row(spec: dict, computed: float, sigma: float) -> ReportRow:
    kind = spec["kind"]
    reference = spec.get("reference")
    deviation = (
        float(_relative_deviation(computed, reference))
        if reference is not None
        else None
    )
    if kind == "info":
        status = "N/A"
    elif _within(kind, computed, reference, spec["tol"]):
        status = "MATCH"
    elif spec.get("documented", False):
        status = "MISMATCH-DOCUMENTED"
    else:
        status = "MISMATCH"
    return ReportRow(
        row_id=spec["id"],
        label=spec["label"],
        units=spec.get("units", ""),
        computed=float(computed),
        sigma=float(sigma),
        reference=reference,
        deviation=deviation,
        status=status,
        note=spec.get("note", ""),
    )


# ---------------------------------------------------------------------------
# row computations


class _Context:
    """Shared, lazily computed intermediates for the report rows."""

    def __init__(self, scn: Scenario, seed: int):
        self.scn = scn
        self.seed = seed
        self._cache: dict[str, object] = {}

    def _get(self, key: str, builder: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def trap(self) -> ion_impact.TrapConfig:
        return self._get("trap", self.scn.trap_config)

    @property
    def x_q(self) -> float:
        return self.scn.charge_scenario().x_q_m

    @property
    def rydberg(self) -> rydberg_impact.RydbergConfig:
        return self._get("rydberg", self.scn.rydberg_config)

    @property
    def cooling(self) -> ion_impact.CoolingBudget:
        return self._get(
            "cooling",
            lambda: ion_impact.max_charge_for_cooling(self.trap, self.x_q, 0.5),
        )

    @property
    def lamb_dicke(self) -> ion_impact.LambDickeBudget:
        return self._get(
            "lamb_dicke",
            lambda: ion_impact.lamb_dicke_budget(self.trap, self.x_q, 0.2),
        )

    @property
    def gate_verdict(self) -> ion_impact.GateDetuning:
        return self._get(
            "gate_verdict",
            lambda: ion_impact.gate_detuning_verdict(
                self.trap, self.scn.charge_scenario(), self.scn.gate_params()
            ),
        )

    def finesse_quantity(self) -> UncertainQuantity:
        return self._get(
            "finesse_q",
            lambda: finesse(self.scn.linewidth_quantity(), self.scn.fsr_quantity()),
        )


def _kappa_row(ctx: _Context, spec: dict) -> tuple[float, float]:
    inputs = spec["inputs"]
    q = cavity_optics.extinction_from_finesse(
        ctx.scn.f00_quantity(),
        UncertainQuantity(inputs["f01"], inputs["f01_sigma"]),
        ctx.scn.film_thickness_quantity(),
        ctx.scn.cavity.wavelength_m,
        mc_samples=ctx.scn.mc_samples,
        seed=ctx.seed,
    )
    return q.value, q.sigma


def _refl_row(ctx: _Context, spec: dict) -> tuple[float, float]:
    inputs = spec["inputs"]
    q = cavity_optics.excess_reflection_loss(
        ctx.scn.f00_quantity(),
        UncertainQuantity(inputs["f01"], inputs["f01_sigma"]),
    )
    return q.value, q.sigma


def _transport_row(ctx: _Context, spec: dict) -> tuple[float, float]:
    inputs = spec["inputs"]
    check = charging.transport_consistency(
        charging.TransportSample(
            resistivity_ohm_m=inputs["hall_resistivity_ohm_m"],
            carrier_density_per_m3=inputs["carrier_density_per_m3"],
            mobility_m2_per_vs=inputs["mobility_m2_per_vs"],
        )
    )
    return check.predicted_resistivity_ohm_m, 0.0


def _computers() -> dict[str, Callable[[_Context, dict], tuple[float, float]]]:
    def fsr_length(ctx, spec):
        return fsr_from_length(ctx.scn.cavity.length_m), 0.0

    def finesse_row(ctx, spec):
        q = ctx.finesse_quantity()
        return q.value, q.sigma

    def finesse_mc_ratio(ctx, spec):
        linear = ctx.finesse_quantity()
        mc = propagate_monte_carlo(
            lambda d, f: f / d,
            [ctx.scn.linewidth_quantity(), ctx.scn.fsr_quantity()],
            sample_count=ctx.scn.mc_samples,
            seed=ctx.seed,
        )
        return mc.sigma / linear.sigma, 0.0

    def resonant_transmission(ctx, spec):
        r0 = cavity_optics.r0_from_symmetric_finesse(ctx.scn.f00_quantity()).value
        vendor_t = spec["inputs"]["vendor_transmission"]
        mirror = cavity_optics.MirrorState(r0, vendor_t, label="M0")
        return cavity_optics.resonant_response(mirror, mirror)["transmission"], 0.0

    def disc_u(ctx, spec):
        i = spec["inputs"]
        return (
            electrostatics.disc_point_ratios(i["radius_m"], i["distance_m"])["u_ratio"],
            0.0,
        )

    def disc_e(ctx, spec):
        i = spec["inputs"]
        return (
            electrostatics.disc_point_ratios(i["radius_m"], i["distance_m"])["e_ratio"],
            0.0,
        )

    def cooling_q1(ctx, spec):
        return ctx.cooling.q1_e, 0.0

    def cooling_field(ctx, spec):
        return ctx.cooling.field_v_per_m, 0.0

    def cooling_displacement(ctx, spec):
        return ctx.cooling.x_tilde_m, 0.0

    def coupling_q1(ctx, spec):
        target = ctx.trap.cavity_wavelength_m / 8.0
        return ion_impact.charge_for_displacement(ctx.trap, ctx.x_q, target), 0.0

    def coupling_displacement(ctx, spec):
        s = electrostatics.ChargeScenario(spec["inputs"]["q1_e"], 0.0, ctx.x_q)
        return ion_impact.equilibrium_position(ctx.trap, s), 0.0

    def coupling_field(ctx, spec):
        s = electrostatics.ChargeScenario(spec["inputs"]["q1_e"], 0.0, ctx.x_q)
        x_t = ion_impact.equilibrium_position(ctx.trap, s)
        return electrostatics.field_at(s, x_t), 0.0

    def ld_q1(ctx, spec):
        return ctx.lamb_dicke.q1_max_e, 0.0

    def ld_field(ctx, spec):
        return ctx.lamb_dicke.field_v_per_m, 0.0

    def ld_displacement(ctx, spec):
        return ctx.lamb_dicke.x_tilde_max_m, 0.0

    def ld_micromotion(ctx, spec):
        return ctx.lamb_dicke.x_micromotion_max_m, 0.0

    def zero_point(ctx, spec):
        return (
            ion_impact.zero_point_spread(ctx.trap.mass_kg, ctx.trap.omega_x),
            0.0,
        )

    def gate_secular(ctx, spec):
        return ctx.gate_verdict.ratio_secular, 0.0

    def gate_rabi(ctx, spec):
        return ctx.gate_verdict.ratio_rabi, 0.0

    def gate_bound(ctx, spec):
        return (
            ion_impact.max_equal_charge_for_gate(
                ctx.trap, ctx.x_q, ctx.scn.gate_params()
            ),
            0.0,
        )

    def rydberg_field(ctx, spec):
        return (
            electrostatics.single_charge_field(spec["inputs"]["q1_e"], ctx.x_q),
            0.0,
        )

    def stark_at_reference_field(ctx, spec):
        return (
            rydberg_impact.stark_shift(ctx.rydberg, spec["inputs"]["field_v_per_m"]),
            0.0,
        )

    def coherence_time(ctx, spec):
        field = electrostatics.single_charge_field(spec["inputs"]["q1_e"], ctx.x_q)
        return rydberg_impact.decoherence_time(ctx.rydberg, field), 0.0

    def coherence_charge(ctx, spec):
        budget = rydberg_impact.charge_for_coherence_time(
            ctx.rydberg, spec["inputs"]["tau_pi_s"], ctx.x_q
        )
        return budget.q1_e, 0.0

    def blockade_infidelity_at(ctx, spec):
        field = electrostatics.single_charge_field(spec["inputs"]["q1_e"], ctx.x_q)
        shift = rydberg_impact.stark_shift(ctx.rydberg, field)
        return rydberg_impact.blockade_infidelity(ctx.rydberg, shift), 0.0

    def blockade_q1(ctx, spec):
        budget = rydberg_impact.max_charge_for_infidelity(
            ctx.rydberg, spec["inputs"]["target_infidelity"], ctx.x_q
        )
        return budget.q1_e, 0.0

    def blockade_field(ctx, spec):
        budget = rydberg_impact.max_charge_for_infidelity(
            ctx.rydberg, spec["inputs"]["target_infidelity"], ctx.x_q
        )
        return budget.field_v_per_m, 0.0

    def film_resistance_row(ctx, spec):
        return charging.film_resistance(ctx.scn.film_sample()).resistance_ohm, 0.0

    def charge_row(ctx, spec):
        *_, steady = _charging_parts(ctx.scn)
        return steady.charge_e, 0.0

    def rc_row(ctx, spec):
        *_, steady = _charging_parts(ctx.scn)
        return steady.rc_time_s, 0.0

    def clipping_row(ctx, spec):
        illum = ctx.scn.illumination_scenario()
        return (
            charging.gaussian_clipping_factor(
                illum.beam_waist_m, illum.mirror_distance_m
            ),
            0.0,
        )

    def photocurrent_rate(ctx, spec):
        illum = ctx.scn.illumination_scenario()
        i = ctx.scn.illumination
        first_principles = (
            i.quantum_efficiency
            * i.power_w
            * i.wavelength_m
            / (CODATA.h * CODATA.c)
        )
        return first_principles, 0.0

    return {
        "fsr_from_length": fsr_length,
        "finesse_from_linewidth": finesse_row,
        "finesse_mc_linear_sigma": finesse_mc_ratio,
        "kappa_zno_27d": _kappa_row,
        "kappa_zno_69d": _kappa_row,
        "kappa_zno_128d": _kappa_row,
        "kappa_ann_69d": _kappa_row,
        "kappa_ann_128d": _kappa_row,
        "refl_var_69d": _refl_row,
        "refl_var_128d": _refl_row,
        "resonant_transmission": resonant_transmission,
        "disc_u_ratio": disc_u,
        "disc_e_ratio": disc_e,
        "cooling_q1": cooling_q1,
        "cooling_field": cooling_field,
        "cooling_displacement": cooling_displacement,
        "coupling_q1": coupling_q1,
        "coupling_displacement": coupling_displacement,
        "coupling_field": coupling_field,
        "lamb_dicke_q1": ld_q1,
        "lamb_dicke_field": ld_field,
        "lamb_dicke_displacement": ld_displacement,
        "lamb_dicke_micromotion": ld_micromotion,
        "zero_point_spread": zero_point,
        "gate_ratio_secular": gate_secular,
        "gate_ratio_rabi": gate_rabi,
        "gate_charge_bound": gate_bound,
        "rydberg_field_54e": rydberg_field,
        "stark_shift_ref_field": stark_at_reference_field,
        "coherence_time_54e": coherence_time,
        "coherence_charge": coherence_charge,
        "blockade_infidelity_140e": blockade_infidelity_at,
        "blockade_q1": blockade_q1,
        "blockade_field": blockade_field,
        "film_resistance": film_resistance_row,
        "equilibrium_charge_e": charge_row,
        "rc_time": rc_row,
        "clipping_factor": clipping_row,
        "photocurrent_rate": photocurrent_rate,
        "transport_zno1": _transport_row,
        "transport_zno2": _transport_row,
    }


def build_report(
    scn: Optional[Scenario] = None, seed: Optional[int] = None
) -> list[ReportRow]:
    """Compute every row of the reference-reproduction report."""
    scn = bundled_scenario() if scn is None else scn
    seed = scn.seed if seed is None else seed
    ctx = _Context(scn, seed)
    computers = _computers()
    rows = []
    for spec in load_manifest():
        computed, sigma = computers[spec["id"]](ctx, spec)
        rows.append(_make_row(spec, computed, sigma))
    return rows


def report_exit_code(rows: list[ReportRow]) -> int:
    """0 iff no undocumented mismatch and the documented set is exactly
    the three known discrepancies."""
    if any(r.status == "MISMATCH" for r in rows):
        return 1
    documented = {r.row_id for r in rows if r.status == "MISMATCH-DOCUMENTED"}
    return 0 if documented == EXPECTED_DOCUMENTED else 1


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "-"
    if x == 0:
        return "0"
    return f"{x:.6g}"


def render_text(rows: list[ReportRow]) -> str:
    header = f"{'quantity':42s} {'computed':>14s} {'reference':>12s} {'dev':>8s}  status"
    lines = [header, "-" * len(header)]
    for r in rows:
        dev = f"{100 * r.deviation:.2f}%" if r.deviation is not None else "-"
        label = f"{r.label} [{r.units}]" if r.units else r.label
        lines.append(
            f"{label:42s} {_fmt(r.computed):>14s} {_fmt(r.reference):>12s} "
            f"{dev:>8s}  {r.status}"
        )
    n_match = sum(r.status == "MATCH" for r in rows)
    n_doc = sum(r.status == "MISMATCH-DOCUMENTED" for r in rows)
    n_bad = sum(r.status == "MISMATCH" for r in rows)
    lines.append("-" * len(header))
    lines.append(
        f"{n_match} MATCH, {n_doc} MISMATCH-DOCUMENTED (expected "
        f"{len(EXPECTED_DOCUMENTED)}), {n_bad} MISMATCH"
    )
    return "\n".join(lines) + "\n"


def render_csv(rows: list[ReportRow]) -> str:
    lines = ["row_id,label,units,computed,sigma,reference,relative_deviation,status,note"]
    for r in rows:
        ref = repr(r.reference) if r.reference is not None else ""
        dev = repr(r.deviation) if r.deviation is not None else ""
        label = r.label.replace(",", ";")
        note = r.note.replace(",", ";")
        lines.append(
            f"{r.row_id},{label},{r.units},{r.computed!r},{r.sigma!r},{ref},{dev},"
            f"{r.status},{note}"
        )
    return "\n".join(lines) + "\n"
