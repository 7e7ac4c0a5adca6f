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

Rows come from two tables. BUDGET_ROWS maps a row id to the budget
target and row it reads through ``budgets.budget_rows``, so a budget
number has one code path whether ``reproduce-paper`` or ``budget`` prints
it; ROWS maps every other row id to f(scn, **manifest inputs). A
row is finite or build_report raises a ToolkitError that names its row id
or budget target. ``budget_report`` and ``SWEEP_POINTS`` live in
``budgets`` and are re-exported here.

The report draws no random numbers: its non-linear sigmas (the five film
extinctions and the finesse sigma that finesse_mc_linear_sigma compares
with its linear sigma) come from Gauss-Hermite cubature, so no row
depends on a seed. The cubature's check by Monte Carlo (JCGM 101:2008
section 8) is a test, not a report row.

build_report reads the manifest from a parse made once per process and
kept as immutable records (_manifest), so a library caller that builds
the report again and again reads and parses the JSON once; a one-shot
``reproduce-paper`` builds one report and gains nothing from it.
load_manifest still parses a fresh list of dicts on every call, which
its caller may change without changing any report.

The bundled scenario and manifest are read as UTF-8 with the builtin open
from cavitycharge._data_path, the data/ directory next to the modules; an
installed package is files on disk, not a zip archive.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple, Optional

from . import (BUDGET_TARGETS, _data_path, cavity_optics, charging, electrostatics, ion_impact,
               rydberg_impact)
from .budgets import SWEEP_POINTS, budget_report, budget_rows
from .errors import ParameterError
from .quantities import (
    UncertainQuantity, _positive_at_nodes, finesse, finite_evaluation, fsr_from_length,
    propagate_cubature, random_seed,
)
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


class ReportRow(NamedTuple):
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
    with open(_data_path(name), encoding="utf-8") as fh:
        return fh.read()


def bundled_scenario_text() -> str:
    return _data_text("paper_yb.scenario")


def bundled_scenario() -> Scenario:
    return parse_scenario(bundled_scenario_text())


def load_manifest() -> list[dict]:
    return json.loads(_data_text("report_manifest.json"))


class _Spec(NamedTuple):
    """One manifest row: its inputs as (name, value) pairs sorted by name,
    a band's tol as a (lo, hi) tuple."""

    id: str
    label: str
    kind: str
    units: str = ""
    reference: Optional[float] = None
    tol: object = None
    documented: bool = False
    note: str = ""
    inputs: tuple = ()


@functools.cache
def _manifest() -> tuple:
    """The manifest as _Spec records, parsed on the first call only."""
    return tuple(_Spec(**{**spec, "inputs": tuple(sorted(spec.get("inputs", {}).items())),
                          "tol": tuple(tol) if isinstance(tol := spec.get("tol"), list) else tol})
                 for spec in load_manifest())


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


def _make_row(spec: _Spec, computed) -> ReportRow:
    """The row of spec for a computed float or UncertainQuantity; every
    number the row holds is a float, as the checked functions return."""
    computed, sigma = (
        (computed.value, computed.sigma)
        if isinstance(computed, UncertainQuantity)
        else (computed, 0.0)
    )
    reference = spec.reference
    deviation = _relative_deviation(computed, reference) if reference is not None else None
    if spec.kind == "info":
        status = "N/A"
    elif _within(spec.kind, computed, reference, spec.tol):
        status = "MATCH"
    elif spec.documented:
        status = "MISMATCH-DOCUMENTED"
    else:
        status = "MISMATCH"
    return ReportRow(
        row_id=spec.id,
        label=spec.label,
        units=spec.units,
        computed=computed,
        sigma=sigma,
        reference=reference,
        deviation=deviation,
        status=status,
        note=spec.note,
    )


# ---------------------------------------------------------------------------
# row computations

# rows read from a budget target: row id -> (target, budget row name). The
# manifest inputs of these rows are the target's options (tau_pi_s,
# target_infidelity) and are passed through as such.
BUDGET_ROWS = {
    "cooling_q1": ("cooling", "q1_max"),
    "cooling_field": ("cooling", "field_at_ion"),
    "cooling_displacement": ("cooling", "equilibrium_displacement"),
    "coupling_q1": ("coupling", "q1_max"),
    "lamb_dicke_q1": ("lamb-dicke", "q1_max"),
    "lamb_dicke_field": ("lamb-dicke", "field_at_ion"),
    "lamb_dicke_displacement": ("lamb-dicke", "equilibrium_displacement"),
    "lamb_dicke_micromotion": ("lamb-dicke", "micromotion_amplitude"),
    "gate_ratio_secular": ("gate", "delta_x_over_secular"),
    "gate_ratio_rabi": ("gate", "delta_x_over_rabi"),
    "gate_charge_bound": ("gate", "equal_charge_bound"),
    "coherence_charge": ("rydberg-coherence", "q1_max"),
    "blockade_q1": ("rydberg-gate", "q1_max"),
    "blockade_field": ("rydberg-gate", "field_at_atom"),
    "film_resistance": ("charging", "film_resistance"),
    "equilibrium_charge_e": ("charging", "equilibrium_charge"),
    "rc_time": ("charging", "rc_time"),
    "clipping_factor": ("charging", "clipping_factor"),
    "photocurrent_rate": ("charging", "photoelectron_rate_first_principles"),
}


def _f00(scn: Scenario) -> UncertainQuantity:
    c = scn._require("cavity")
    return UncertainQuantity(c.f00, c.f00_sigma)


def _fsr(scn: Scenario) -> UncertainQuantity:
    c = scn._require("cavity")
    if c.fsr_hz is not None:
        return UncertainQuantity(c.fsr_hz, c.fsr_sigma_hz)
    return UncertainQuantity(fsr_from_length(c.length_m), 0.0)


def _fsr_from_length(scn: Scenario) -> float:
    return fsr_from_length(scn._require("cavity", "length_m"))


def _film_thickness(scn: Scenario) -> UncertainQuantity:
    film = scn._require("film")
    return UncertainQuantity(film.thickness_m, film.thickness_sigma_m)


def _linewidth(scn: Scenario) -> UncertainQuantity:
    return UncertainQuantity(scn._require("cavity", "linewidth_hz"), scn.cavity.linewidth_sigma_hz)


def _finesse(scn: Scenario) -> UncertainQuantity:
    return finesse(_linewidth(scn), _fsr(scn))


def _over(d, f):
    return f / d


def _finesse_sigma_ratio(scn: Scenario) -> float:
    """The ratio of the sigma of F = FSR/linewidth, over independent normal
    linewidth and FSR, to the finesse row's linear sigma, that sigma by
    8x8-node Gauss-Hermite cubature (quantities.propagate_cubature).
    Strictly, f/d over a normal d has no finite variance, since d <= 0 has
    a positive probability; the sigma is that of f/d within the nodes'
    span, value +/- 4.1445 sigma, which is what a Monte Carlo sees while
    d <= 0 lies many sigma away. A linewidth or FSR at or below 0 at its lowest node
    is a DomainError naming it: f/d has a pole there.
    """
    inputs = [_positive_at_nodes("linewidth", _linewidth(scn)),
              _positive_at_nodes("FSR", _fsr(scn))]
    return propagate_cubature(_over, inputs).sigma / _finesse(scn).sigma


def _kappa(scn: Scenario, f01: float, f01_sigma: float) -> UncertainQuantity:
    """The film extinction of one coated-mirror finesse against the
    scenario's [cavity] F00 and [film] thickness."""
    return cavity_optics.extinction_from_finesse(
        _f00(scn), UncertainQuantity(f01, f01_sigma), _film_thickness(scn),
        scn._require("cavity").wavelength_m,
    )


def _resonant_transmission(scn: Scenario, vendor_transmission: float) -> float:
    r0 = cavity_optics.r0_from_symmetric_finesse(_f00(scn)).value
    mirror = cavity_optics.MirrorState(r0, vendor_transmission)
    return cavity_optics.resonant_response(mirror, mirror)


def _single_charge(scn: Scenario, q1_e: float):
    """(scenario of charge q1_e alone, the ion's equilibrium position in it)."""
    s = electrostatics.ChargeScenario(q1_e, 0.0, scn._require("charges").xq_m)
    return s, ion_impact.equilibrium_position(scn._require("trap"), s)


def _field(scn: Scenario, q1_e: float) -> float:
    return electrostatics.single_charge_field(q1_e, scn._require("charges").xq_m)


def _blockade_infidelity(scn: Scenario, q1_e: float) -> float:
    rydberg = scn._require("rydberg")
    shift = rydberg_impact.stark_shift(rydberg, _field(scn, q1_e))
    return rydberg_impact.blockade_infidelity(rydberg, shift)


# every other row: row id -> f(scn, **manifest inputs), a float or an
# UncertainQuantity
ROWS = {
    "fsr_from_length": _fsr_from_length,
    "finesse_from_linewidth": _finesse,
    "finesse_mc_linear_sigma": _finesse_sigma_ratio,
    **dict.fromkeys(
        ("kappa_zno_27d", "kappa_zno_69d", "kappa_zno_128d", "kappa_ann_69d", "kappa_ann_128d"),
        _kappa,
    ),
    **dict.fromkeys(
        ("refl_var_69d", "refl_var_128d"),
        lambda scn, f01, f01_sigma: cavity_optics.excess_reflection_loss(
            _f00(scn), UncertainQuantity(f01, f01_sigma)
        ),
    ),
    "resonant_transmission": _resonant_transmission,
    "disc_u_ratio": lambda scn, radius_m, distance_m: (
        electrostatics.disc_point_ratios(radius_m, distance_m)["u_ratio"]
    ),
    "disc_e_ratio": lambda scn, radius_m, distance_m: (
        electrostatics.disc_point_ratios(radius_m, distance_m)["e_ratio"]
    ),
    "coupling_displacement": lambda scn, q1_e: _single_charge(scn, q1_e)[1],
    "coupling_field": lambda scn, q1_e: electrostatics.field_at(
        *_single_charge(scn, q1_e)
    ),
    "zero_point_spread": lambda scn: ion_impact.zero_point_spread(scn._require("trap")),
    "rydberg_field_54e": _field,
    "stark_shift_ref_field": lambda scn, field_v_per_m: rydberg_impact.stark_shift(
        scn._require("rydberg"), field_v_per_m
    ),
    "coherence_time_54e": lambda scn, q1_e: rydberg_impact.decoherence_time(
        scn._require("rydberg"), _field(scn, q1_e)
    ),
    "blockade_infidelity_140e": _blockade_infidelity,
    **dict.fromkeys(
        ("transport_zno1", "transport_zno2"),
        lambda scn, carrier_density_per_m3, mobility_m2_per_vs: charging.transport_consistency(
            carrier_density_per_m3, mobility_m2_per_vs
        ),
    ),
}


def build_report(
    scn: Optional[Scenario] = None, seed: Optional[int] = None
) -> list[ReportRow]:
    """Compute every row of the reference-reproduction report.

    The report draws no random numbers: every sigma comes from linear
    propagation or Gauss-Hermite cubature, so no row reads seed. The
    argument is kept only because the benchmark's lib-report op passes
    one; a seed given is still checked, ParameterError unless it is an
    int >= 0.

    A row in BUDGET_ROWS reads its value from budgets.budget_rows, one call
    per (target, manifest inputs); every other row runs its ROWS entry
    under quantities.finite_evaluation. Either way a row is finite or the
    call raises a ToolkitError: EvaluationError for overflow, division by
    zero or a non-finite value, its message starting with "row <id>: " or
    "target <target>: ".
    """
    if seed is not None:
        random_seed(seed)
    scn = bundled_scenario() if scn is None else scn
    budgets = {}
    rows = []
    for spec in _manifest():
        row_id = spec.id
        inputs = dict(spec.inputs)
        if row_id in BUDGET_ROWS:
            target, name = BUDGET_ROWS[row_id]
            key = (target, *spec.inputs)
            if key not in budgets:
                budgets[key] = budget_rows(scn, target, **inputs)
            computed = budgets[key][name]
        else:
            with finite_evaluation(f"row {row_id}") as check:
                computed = check(row_id, ROWS[row_id](scn, **inputs))
        rows.append(_make_row(spec, computed))
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
