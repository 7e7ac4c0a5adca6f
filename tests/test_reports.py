import math
from importlib import resources

import numpy as np
import pytest
from mc_oracle import propagate_monte_carlo, sigma_standard_error

from cavitycharge import BUDGET_DEFAULTS, reports
from cavitycharge.budgets import budget_rows
from cavitycharge.cli import build_parser
from cavitycharge.errors import ParameterError
from cavitycharge.reports import (
    BUDGET_ROWS,
    BUDGET_TARGETS,
    EXPECTED_DOCUMENTED,
    ROWS,
    ReportRow,
    budget_report,
    build_report,
    bundled_scenario,
    load_manifest,
    render_csv,
    render_text,
    report_exit_code,
)


@pytest.fixture(scope="module")
def rows():
    return build_report()


def test_manifest_covers_every_computer():
    ids = [spec["id"] for spec in load_manifest()]
    assert len(ids) == len(set(ids))
    assert set(EXPECTED_DOCUMENTED) <= set(ids)


def test_every_manifest_row_is_in_exactly_one_table():
    ids = [spec["id"] for spec in load_manifest()]
    assert sorted(ids) == sorted([*BUDGET_ROWS, *ROWS])
    assert (len(BUDGET_ROWS), len(ROWS)) == (19, 22)


def test_one_film_thickness_feeds_the_extinction_and_the_resistance_rows(rows):
    # kappa = -lambda/(8 pi h) ln(...) and R = rho/h: doubling [film] thickness_m
    # halves both, exactly in binary
    scn = bundled_scenario()
    thick = scn._replace(film=scn.film._replace(thickness_m=2 * scn.film.thickness_m))
    doubled = {row.row_id: row.computed for row in build_report(thick)}
    film_rows = [row_id for row_id in ROWS if row_id.startswith("kappa_")] + ["film_resistance"]
    halved = [row.row_id for row in rows
              if row.row_id in film_rows and doubled[row.row_id] == row.computed / 2]
    assert halved == film_rows


def test_reports_read_and_parse_the_manifest_once(monkeypatch, rows):
    scn = bundled_scenario()
    reads = []
    data_text = reports._data_text
    monkeypatch.setattr(reports, "_data_text", lambda name: reads.append(name) or data_text(name))
    reports._manifest.cache_clear()
    assert [build_report(scn) for _ in range(3)] == [rows] * 3
    assert reads == ["report_manifest.json"]


def test_changing_a_loaded_manifest_changes_no_report(rows):
    original = load_manifest()
    changed = load_manifest()
    for spec in changed:
        spec["reference"] = spec["label"] = None
        spec.get("inputs", {}).clear()
        if isinstance(spec.get("tol"), list):
            spec["tol"].reverse()
    changed.reverse()
    assert build_report() == rows
    assert load_manifest() == original != changed


def test_no_undocumented_mismatch(rows):
    assert all(r.status != "MISMATCH" for r in rows)


def test_info_rows_have_na_status(rows):
    by_id = {r.row_id: r for r in rows}
    transmission = by_id["resonant_transmission"]
    assert transmission.status == "N/A"
    assert transmission.reference is None
    assert 0.0 < transmission.computed < 1.0


def test_documented_set_is_exactly_the_three_known(rows):
    documented = {r.row_id for r in rows if r.status == "MISMATCH-DOCUMENTED"}
    assert documented == EXPECTED_DOCUMENTED


def test_exit_code_zero_on_default_report(rows):
    assert report_exit_code(rows) == 0


def test_exit_code_flags_vanished_documented_row(rows):
    trimmed = [r for r in rows if r.row_id != "gate_ratio_rabi"]
    assert report_exit_code(trimmed) == 1


def test_exit_code_flags_new_mismatch(rows):
    bad = rows + [
        ReportRow("fake", "fake row", "", 1.0, 0.0, 2.0, 0.5, "MISMATCH", "")
    ]
    assert report_exit_code(bad) == 1


def test_match_iff_within_declared_tolerance(rows):
    by_id = {r.row_id: r for r in rows}
    specs = {spec["id"]: spec for spec in load_manifest()}
    for row in rows:
        spec = specs[row.row_id]
        if spec["kind"] in ("rel",) and row.status == "MATCH":
            assert row.deviation <= spec["tol"] * (1 + 1e-6)
    # the boundary row: exactly at its declared 1% tolerance
    r = by_id["film_resistance"]
    assert r.status == "MATCH"
    assert r.deviation == pytest.approx(0.01, abs=1e-12)


def test_report_is_deterministic():
    a = build_report()
    b = build_report()
    assert [tuple(r) for r in a] == [tuple(r) for r in b]
    assert render_csv(a) == render_csv(b)
    assert render_text(a) == render_text(b)


def test_report_draws_no_normals_and_depends_on_no_seed(rows, monkeypatch):
    def no_generator(seed):
        raise AssertionError(f"the report made a generator of seed {seed!r}")

    monkeypatch.setattr("numpy.random.default_rng", no_generator)
    one, two = build_report(seed=1), build_report(seed=2)
    assert one == two == rows


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", np.int64(-3), np.random.default_rng(0),
                                  np.random.SeedSequence(0)])
def test_report_refuses_a_seed_that_is_not_a_nonnegative_int(seed):
    with pytest.raises(ParameterError, match="seed must be an int >= 0"):
        build_report(seed=seed)


@pytest.mark.parametrize("seed", [None, 0, np.int64(3)], ids=["none", "zero", "np-integer"])
def test_report_takes_a_seed_that_is_a_nonnegative_int(seed, rows):
    assert build_report(seed=seed) == rows


def test_finesse_cubature_sigma_is_within_two_standard_errors_of_monte_carlo(rows):
    # as for the film-extinction sigmas (JCGM 101:2008 section 8), against the
    # standard error of a sample sigma. Seeds 0-4 are pooled, their mean sigma against the pooled standard error:
    # one seed's sigma lies up to 2.2 standard errors from the cubature's,
    # which 20, 40 and 80 nodes give to 1e-15
    by_id = {row.row_id: row for row in rows}
    cubature = by_id["finesse_mc_linear_sigma"].computed * by_id["finesse_from_linewidth"].sigma
    scn = bundled_scenario()
    inputs = [reports._linewidth(scn), reports._fsr(scn)]
    n = 1_000_000
    sigmas, variances = [], []
    for seed in range(5):
        mc = propagate_monte_carlo(reports._over, inputs, n, seed)
        m4 = propagate_monte_carlo(lambda d, f: (f / d - mc.value) ** 4, inputs, n, seed).value
        sigmas.append(mc.sigma)
        variances.append(sigma_standard_error(mc.sigma, m4, n) ** 2)
    standard_error = math.sqrt(sum(variances)) / len(sigmas)
    assert abs(cubature - sum(sigmas) / len(sigmas)) <= 2.0 * standard_error


def test_scenario_linewidth_is_the_pooled_fit_of_the_bundled_traces_to_1_khz():
    # the report's finesse rests on [cavity] linewidth_hz = 523000 +/- 9000, the
    # pooled fit of the five bundled traces (523171.7 +/- 8946.7 Hz) rounded to
    # 1 kHz; the rounded values are compared, as the fit's last bits depend on
    # the BLAS
    from cavitycharge.ringdown import fit_ringdown, load_trace_csv, pool_linewidths

    traces = resources.files("cavitycharge").joinpath("data/traces")
    pooled = pool_linewidths([
        fit_ringdown(load_trace_csv(traces.joinpath(f"ringdown_{k:02d}.csv"))) for k in range(1, 6)
    ])
    cavity = bundled_scenario().cavity
    assert (round(pooled.value, -3), round(pooled.sigma, -3)) \
        == (cavity.linewidth_hz, cavity.linewidth_sigma_hz)


def test_render_text_structure(rows):
    text = render_text(rows)
    assert "MISMATCH-DOCUMENTED" in text
    assert text.count("\n") == len(rows) + 4  # header, rule, rows, rule, summary
    assert "0 MISMATCH\n" in text


def test_render_csv_structure(rows):
    lines = render_csv(rows).splitlines()
    assert lines[0].startswith("row_id,")
    assert len(lines) == len(rows) + 1
    assert all(len(line.split(",")) == 9 for line in lines)


# -- budgets -----------------------------------------------------------------


@pytest.fixture(scope="module")
def scn():
    return bundled_scenario()


@pytest.mark.parametrize(
    "target,q1_ref",
    [
        ("cooling", 1400.0),
        ("lamb-dicke", 230.0),
        ("coupling", 100.0),
        ("rydberg-coherence", 54.0),
        ("rydberg-gate", 140.0),
    ],
)
def test_budget_charge_limits(scn, target, q1_ref):
    rows, header, sweep = budget_report(scn, target)
    values = dict((name, value) for name, value, _unit in rows)
    assert values["q1_max"] == pytest.approx(q1_ref, rel=0.05)
    assert len(sweep) == 200
    assert header.count(",") == 1


def test_budget_gate_rows(scn):
    rows, _header, sweep = budget_report(scn, "gate")
    values = dict((name, value) for name, value, _unit in rows)
    assert values["delta_x_over_secular"] == pytest.approx(0.013, abs=0.001)
    assert values["delta_x_over_rabi"] == pytest.approx(0.65, rel=0.02)
    assert values["within_threshold"] == 0.0
    assert values["equal_charge_bound"] == pytest.approx(13.0, rel=0.10)
    # the sweep crosses the threshold at the bound
    below = [q for q, ratio in sweep if ratio < 0.013]
    assert max(below) == pytest.approx(values["equal_charge_bound"], rel=0.05)


def test_budget_charging_rows(scn):
    rows, header, sweep = budget_report(scn, "charging")
    values = dict((name, value) for name, value, _unit in rows)
    assert 100.0 <= values["equilibrium_charge"] <= 160.0
    assert values["rc_time"] < 1e-9
    assert values["photoelectron_rate"] == 4e11  # scenario override
    assert values["photoelectron_rate_first_principles"] == pytest.approx(
        3.7e14, rel=0.01
    )
    assert header.startswith("power_w")
    assert len(sweep) == 200


def test_budget_unknown_target(scn):
    with pytest.raises(Exception):
        budget_report(scn, "warp-drive")


def test_budget_rows_are_budget_report_rows_without_the_sweep(scn):
    for target in BUDGET_TARGETS:
        rows, _header, _sweep = budget_report(scn, target, tau_pi_s=4e-6)
        assert budget_rows(scn, target, tau_pi_s=4e-6) == {n: v for n, v, _unit in rows}
    with pytest.raises(TypeError, match="intensity_flor"):
        budget_rows(scn, "cooling", intensity_flor=0.4)


def test_cli_budget_options_default_to_budget_defaults():
    args = build_parser().parse_args(["budget", "--scenario", "s", "--target", "gate"])
    assert {option: getattr(args, option) for option in BUDGET_DEFAULTS} == BUDGET_DEFAULTS
